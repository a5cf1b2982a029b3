"""Golden regression tests: pinned outputs for the paper's examples.

If any of these change, either a solver regressed or an intentional
behaviour change needs the goldens (and EXPERIMENTS.md) updated in the
same commit.
"""

import pytest

from repro import CacheInterval, Transfer, solve_offline
from repro.online import SpeculativeCaching
from repro.paperdata import fig2_instance, fig6_instance, fig7_instance

FIG6_GOLDEN_INTERVALS = [CacheInterval(0, 0.0, 1.4), CacheInterval(1, 0.5, 4.0)]

FIG6_GOLDEN_TRANSFERS = [
    Transfer(0.5, 0, 1),
    Transfer(0.8, 0, 2),
    Transfer(1.1, 0, 3),
    Transfer(4.0, 1, 2),
]

FIG2_GOLDEN_COSTS = {"caching": 3.2, "transfer": 4.0, "total": 7.2}

FIG7_GOLDEN_COUNTERS = {
    "transfers": 5,
    "local_hits": 1,
    "expirations": 3,
    "extensions": 2,
    "epochs": 1,
}


class TestGoldens:
    def test_fig6_schedule_atoms(self):
        canon = solve_offline(fig6_instance()).schedule().canonical()
        assert canon.intervals == FIG6_GOLDEN_INTERVALS
        assert canon.transfers == FIG6_GOLDEN_TRANSFERS

    def test_fig2_costs(self):
        inst = fig2_instance()
        sched = solve_offline(inst).schedule()
        assert sched.caching_cost(inst.cost) == pytest.approx(
            FIG2_GOLDEN_COSTS["caching"]
        )
        assert sched.transfer_cost(inst.cost) == pytest.approx(
            FIG2_GOLDEN_COSTS["transfer"]
        )
        assert sched.total_cost(inst.cost) == pytest.approx(
            FIG2_GOLDEN_COSTS["total"]
        )

    def test_fig7_counters(self):
        run = SpeculativeCaching(epoch_size=5).run(fig7_instance())
        assert run.counters == FIG7_GOLDEN_COUNTERS

    def test_fig7_cost(self):
        run = SpeculativeCaching(epoch_size=5).run(fig7_instance())
        assert run.cost == pytest.approx(13.0)
