"""Unit tests for the fast O(mn) DP and its reference solvers."""

import numpy as np
import pytest

from repro import (
    CostModel,
    MultiItemInstance,
    ProblemInstance,
    StreamingSolver,
    optimal_cost,
    solve_offline,
    solve_offline_bisect,
    solve_offline_multi,
    solve_offline_naive,
)
from repro.offline.dp import KERNELS
from repro.schedule import migration_only_cost

from ..conftest import make_instance
from .test_kernels import assert_bit_identical


class TestBasics:
    def test_single_request_on_origin(self):
        inst = make_instance([2.0], [0], m=1)
        # Cache on the origin through the gap: cost = mu * 2.
        assert solve_offline(inst).optimal_cost == pytest.approx(2.0)

    def test_single_request_elsewhere(self):
        inst = make_instance([2.0], [1], m=2)
        # Cache the origin copy then transfer: mu*2 + lam.
        assert solve_offline(inst).optimal_cost == pytest.approx(3.0)

    def test_empty_sequence_costs_zero(self):
        inst = make_instance([], [], m=2)
        assert solve_offline(inst).optimal_cost == 0.0

    def test_costs_scale_with_mu(self):
        a = make_instance([1.0], [0], m=1, mu=1.0)
        b = make_instance([1.0], [0], m=1, mu=5.0)
        assert solve_offline(b).optimal_cost == pytest.approx(
            5.0 * solve_offline(a).optimal_cost
        )

    def test_optimal_cost_wrapper(self, fig6):
        assert optimal_cost(fig6) == pytest.approx(8.9)

    def test_same_server_consecutive_never_transfers(self):
        # s_i == s_{i-1}: the cache branch is strictly cheaper, so the
        # reconstruction must not emit a self-transfer (it would raise).
        inst = make_instance([1.0, 1.5, 2.0, 2.5], [1, 1, 1, 1], m=2)
        sched = solve_offline(inst).schedule()
        assert all(tr.src != tr.dst for tr in sched.transfers)

    def test_lower_bound_holds(self, fig6, fig2, fig7):
        for inst in (fig6, fig2, fig7):
            res = solve_offline(inst)
            assert res.lower_bound <= res.optimal_cost + 1e-12

    def test_monotone_C(self, fig6):
        # Serving more requests can never cost less.
        res = solve_offline(fig6)
        assert np.all(np.diff(res.C) >= -1e-12)


class TestSolverAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_three_solvers_agree_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 60))
        t = np.cumsum(rng.uniform(0.01, 3.0, size=n))
        srv = rng.integers(0, m, size=n)
        inst = ProblemInstance.from_arrays(
            t,
            srv,
            num_servers=m,
            cost=CostModel(
                mu=float(rng.uniform(0.2, 4.0)), lam=float(rng.uniform(0.2, 4.0))
            ),
        )
        fast = solve_offline(inst)
        assert fast.agrees_with(solve_offline_naive(inst))
        assert fast.agrees_with(solve_offline_bisect(inst))

    def test_wide_fleet_kernels_agree(self, rng):
        # m=60 servers for 120 requests: most rows of the reference
        # sweep's pointer matrix hold many pivot candidates.
        t = np.cumsum(rng.uniform(0.05, 1.0, size=120))
        srv = rng.integers(0, 60, size=120)
        inst = ProblemInstance.from_arrays(t, srv, num_servers=60)
        assert_bit_identical(
            solve_offline(inst, kernel="reference"),
            solve_offline(inst, kernel="frontier"),
        )

    @pytest.mark.parametrize("entry", ["solve", "multi", "stream"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dispatch_matrix(self, rng, kernel, entry):
        # Every (kernel, entry point) pair solves bit-identically to the
        # reference sweep: one instance, a multi-item service (where
        # "auto" is the batched sweep), and the streaming solver, whose
        # one pivot path (the frontier accumulator) must also match the
        # kernel's batch solve.
        t = np.cumsum(rng.uniform(0.05, 1.0, size=40))
        srv = rng.integers(0, 5, size=40)
        inst = ProblemInstance.from_arrays(t, srv, num_servers=5)
        golden = solve_offline(inst, kernel="reference")
        if entry == "solve":
            res = solve_offline(inst, kernel=kernel)
        elif entry == "multi":
            service = MultiItemInstance({"a": inst, "b": inst})
            per_item = solve_offline_multi(service, kernel=kernel).per_item
            assert list(per_item) == ["a", "b"]
            assert_bit_identical(golden, per_item["b"])
            res = per_item["a"]
        else:
            solver = StreamingSolver(5, cost=inst.cost)
            solver.extend(zip(t.tolist(), srv.tolist()))
            res = solver.result()
            assert_bit_identical(solve_offline(inst, kernel=kernel), res)
        assert_bit_identical(golden, res)

    def test_matrix_and_bisect_pivot_lookups_agree(self, rng):
        # The reference sweep reads π(i) from the pointer matrix; the
        # bisect solver finds the same candidates by binary search.
        t = np.cumsum(rng.uniform(0.05, 1.0, size=50))
        srv = rng.integers(0, 5, size=50)
        inst = ProblemInstance.from_arrays(t, srv, num_servers=5)
        assert solve_offline(inst, kernel="reference").agrees_with(
            solve_offline_bisect(inst)
        )


class TestAgainstBaselines:
    def test_never_above_migration_only(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 30))
            t = np.cumsum(rng.uniform(0.05, 2.0, size=n))
            srv = rng.integers(0, m, size=n)
            inst = ProblemInstance.from_arrays(t, srv, num_servers=m)
            assert (
                solve_offline(inst).optimal_cost
                <= migration_only_cost(inst) + 1e-9
            )

    def test_replication_strictly_helps_sometimes(self):
        # Two servers ping-ponging with tiny gaps: caching both is far
        # cheaper than migrating every time.
        seq = []
        t = 0.0
        for k in range(10):
            t += 0.1
            seq.append((t, k % 2))
        inst = ProblemInstance(seq, num_servers=2, cost=CostModel(1.0, 1.0))
        assert solve_offline(inst).optimal_cost < migration_only_cost(inst) - 0.5


class TestResultObject:
    def test_repr(self, fig6):
        r = repr(solve_offline(fig6))
        assert "fast-dp" in r and "C(n)=8.9" in r

    def test_schedule_is_cached(self, fig6):
        res = solve_offline(fig6)
        assert res.schedule() is res.schedule()

    def test_agrees_with_tolerates_infinities(self, fig6):
        a, b = solve_offline(fig6), solve_offline_naive(fig6)
        assert a.agrees_with(b)
        assert b.agrees_with(a)
