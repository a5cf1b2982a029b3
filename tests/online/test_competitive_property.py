"""Property-based competitive-ratio guarantees (Theorem 3)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import solve_offline, validate_schedule
from repro.analysis import cyclic_adversary, empirical_ratio
from repro.online import SpeculativeCaching

from ..conftest import instances

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestThreeCompetitive:
    @given(instances(max_m=5, max_n=25))
    @settings(**_SETTINGS)
    def test_sc_within_factor_three(self, inst):
        run = SpeculativeCaching().run(inst)
        opt = solve_offline(inst).optimal_cost
        assert run.cost <= 3.0 * opt + 1e-6

    @given(instances(max_m=5, max_n=25))
    @settings(**_SETTINGS)
    def test_sc_schedule_always_feasible(self, inst):
        run = SpeculativeCaching().run(inst)
        validate_schedule(run.schedule, inst)

    @given(instances(max_m=4, max_n=20))
    @settings(**_SETTINGS)
    def test_sc_never_beats_opt(self, inst):
        # Sanity: no online run may cost less than the off-line optimum.
        run = SpeculativeCaching().run(inst)
        assert run.cost >= solve_offline(inst).optimal_cost - 1e-6

    @given(instances(max_m=5, max_n=25))
    @settings(**_SETTINGS)
    def test_epoched_sc_within_factor_three(self, inst):
        # The paper's r = n reset: Theorem 3 covers it because it cannot
        # fire before the last request.  Smaller epochs void the bound
        # (round-robin over m = 4 servers, gap 0.01, epoch_size = 3 costs
        # 6.4x OPT; see test_online_property.py).
        run = SpeculativeCaching(epoch_size=inst.n).run(inst)
        opt = solve_offline(inst).optimal_cost
        assert run.cost <= 3.0 * opt + 1e-6


class TestAdversaries:
    @pytest.mark.parametrize("gap_factor", [0.5, 0.9, 1.001, 1.5, 2.0, 3.0])
    def test_cyclic_adversary_respects_bound(self, gap_factor):
        inst = cyclic_adversary(m=4, rounds=15, gap_factor=gap_factor)
        assert empirical_ratio(inst) <= 3.0 + 1e-9

    def test_just_past_window_is_worse_than_well_inside(self):
        inside = empirical_ratio(cyclic_adversary(3, 20, 0.5))
        past = empirical_ratio(cyclic_adversary(3, 20, 1.05))
        assert past > inside
