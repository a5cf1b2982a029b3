"""Online baseline policy tests."""

import numpy as np
import pytest

from repro import CostModel, ProblemInstance, validate_schedule
from repro.online import (
    AlwaysTransfer,
    NeverDelete,
    RandomizedTTL,
    SpeculativeCaching,
)
from repro.schedule import migration_only_cost

from ..conftest import make_instance


class TestAlwaysTransfer:
    def test_matches_closed_form(self, rng):
        for _ in range(15):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            t = np.cumsum(rng.uniform(0.05, 2.0, size=n))
            srv = rng.integers(0, m, size=n)
            inst = ProblemInstance.from_arrays(t, srv, num_servers=m)
            run = AlwaysTransfer().run(inst)
            assert run.cost == pytest.approx(migration_only_cost(inst))

    def test_single_copy_at_all_times(self):
        inst = make_instance([1.0, 2.0, 3.0], [1, 0, 1], m=2)
        run = AlwaysTransfer().run(inst)
        for t in (0.5, 1.5, 2.5):
            assert run.schedule.copy_count_at(t) == 1

    def test_local_requests_free_of_transfers(self):
        inst = make_instance([1.0, 2.0], [0, 0], m=1)
        run = AlwaysTransfer().run(inst)
        assert run.counters["transfers"] == 0
        assert run.counters["local_hits"] == 2

    def test_feasible(self, fig7):
        run = AlwaysTransfer().run(fig7)
        validate_schedule(run.schedule, fig7)


class TestNeverDelete:
    def test_copies_accumulate(self):
        inst = make_instance([1.0, 2.0, 3.0], [1, 2, 0], m=3)
        run = NeverDelete().run(inst)
        assert run.schedule.copy_count_at(3.0) == 3

    def test_second_visit_is_free(self):
        inst = make_instance([1.0, 5.0], [1, 1], m=2)
        run = NeverDelete().run(inst)
        assert run.counters["transfers"] == 1
        assert run.counters["local_hits"] == 1

    def test_caching_cost_grows_with_touched_servers(self):
        inst = make_instance([1.0, 2.0], [1, 2], m=3, mu=1.0)
        run = NeverDelete().run(inst)
        # s0: [0,2], s1: [1,2], s2: [2,2] -> caching 3.0 + two transfers.
        assert run.cost == pytest.approx(3.0 + 2.0)

    def test_feasible(self, fig7):
        run = NeverDelete().run(fig7)
        validate_schedule(run.schedule, fig7)


class _Draws:
    """RNG stand-in: returns ``draws`` in turn, then 0.5 forever."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws, 0.5)


class _Scripted(RandomizedTTL):
    """RandomizedTTL whose U draws are ``draws`` in turn, then 0.5."""

    def __init__(self, *draws):
        super().__init__()
        self._script = draws

    def _setup(self):
        self._rng = _Draws(self._script)
        SpeculativeCaching._setup(self)


class TestRandomizedTTL:
    def test_deterministic_given_seed(self, fig7):
        a = RandomizedTTL(seed=9).run(fig7)
        b = RandomizedTTL(seed=9).run(fig7)
        assert a.cost == pytest.approx(b.cost)
        assert a.counters == b.counters

    def test_different_seeds_can_differ(self):
        inst = make_instance(
            list(np.arange(1, 21) * 0.9), [i % 3 for i in range(20)], m=3
        )
        costs = {round(RandomizedTTL(seed=s).run(inst).cost, 6) for s in range(8)}
        assert len(costs) > 1

    def test_windows_stay_within_deterministic_window(self, fig7):
        algo = RandomizedTTL(seed=1)
        algo.begin(fig7)
        base = fig7.cost.speculative_window
        samples = [algo._window() for _ in range(200)]
        assert all(0.0 <= w <= base + 1e-12 for w in samples)

    def test_feasible_across_seeds(self, rng):
        for seed in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 30))
            t = np.cumsum(rng.uniform(0.05, 2.0, size=n))
            srv = rng.integers(0, m, size=n)
            inst = ProblemInstance.from_arrays(t, srv, num_servers=m)
            run = RandomizedTTL(seed=seed).run(inst)
            validate_schedule(run.schedule, inst)

    def test_reusable_across_runs(self, fig7):
        algo = RandomizedTTL(seed=4)
        first = algo.run(fig7).cost
        second = algo.run(fig7).cost
        assert first == pytest.approx(second)  # re-seeded per run

    def test_tiny_draw_before_a_long_gap_finishes(self):
        # The lone copy idles 1e4 Δt before the first request.  Its first
        # extension draws a window of ~1.7e-9 Δt, and 2**32 such windows
        # fall short of the gap, but the draws after it average ~0.58 Δt:
        # the chain ends after ~1.6e4 re-arms.  The endless-chain bound
        # must use the base window, not the draw, and the run pays what
        # an unbounded chain pays.
        inst = ProblemInstance.from_arrays(
            np.array([1e4, 1e4 + 1.0]),
            np.array([1, 0]),
            num_servers=2,
            cost=CostModel(mu=1.0, lam=1.0),
        )
        # U = 0.5 for the initial copy, then 1e-9 for its first
        # lone-copy extension (a window of ~1.7e-9 Δt), then 0.5 again.
        run = _Scripted(0.5, 1e-9).run(inst)
        assert run.cost == 10003.620114506959
        assert run.counters["extensions"] == 16128

    def test_draw_that_leaves_the_expiry_draws_again(self):
        # The first lone-copy extension draws U = 0, a window of 0, so
        # the expiry stays at e.  The copy is popped again and draws
        # 0.5: the run pays what drawing 0.5 throughout pays, with one
        # more extension, instead of raising.
        inst = ProblemInstance.from_arrays(
            np.array([10.0, 11.0]),
            np.array([1, 0]),
            num_servers=2,
            cost=CostModel(mu=1.0, lam=1.0),
        )
        run, steady = _Scripted(0.5, 0.0).run(inst), _Scripted().run(inst)
        assert run.cost == steady.cost == 13.620114506958277
        assert run.counters["extensions"] == steady.counters["extensions"] + 1 == 18
        validate_schedule(run.schedule, inst)
