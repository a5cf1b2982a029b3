"""Hypothesis property suite for the online stack."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ProblemInstance, double_transfer, solve_offline
from repro.online import (
    NoisyOracle,
    SpeculativeCaching,
    TrustedPredictionCaching,
    verify_theorem3,
)
from repro.schedule import validate_schedule

from ..conftest import instances

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSCProperties:
    @given(instances(max_m=4, max_n=20))
    @settings(**_SETTINGS)
    def test_dt_identity(self, inst):
        run = SpeculativeCaching().run(inst)
        dt = double_transfer(run, inst)
        assert dt.total_cost == pytest.approx(run.cost, rel=1e-9, abs=1e-9)
        lam = inst.cost.lam
        for tr in dt.schedule.transfers:
            assert lam - 1e-9 <= tr.weight <= 2 * lam + 1e-9

    @given(instances(max_m=4, max_n=20))
    @settings(**_SETTINGS)
    def test_theorem3_chain(self, inst):
        rep = verify_theorem3(inst)
        assert rep.holds()

    @given(instances(max_m=4, max_n=20))
    @settings(**_SETTINGS)
    def test_tails_bounded_by_window(self, inst):
        run = SpeculativeCaching().run(inst)
        window = inst.cost.speculative_window
        for life in run.lifetimes:
            assert life.tail() <= window + 1e-9

    @given(
        instances(max_m=4, max_n=15),
        st.integers(min_value=1, max_value=6),
    )
    @settings(**_SETTINGS)
    def test_epoched_runs_feasible_and_bounded(self, inst, epoch):
        run = SpeculativeCaching(epoch_size=epoch).run(inst)
        validate_schedule(run.schedule, inst)
        opt = solve_offline(inst).optimal_cost
        assert run.cost >= opt - 1e-6
        if epoch >= inst.n:
            # The paper's r = n reset cannot fire before the last
            # request, so Theorem 3 applies.  Earlier resets void it
            # (test_early_epoch_resets_void_theorem3).
            assert run.cost <= 3.0 * opt + 1e-6

    def test_early_epoch_resets_void_theorem3(self):
        # Round-robin over m = 3 servers, gap 0.01, mu = lam = 1.  With a
        # reset every 2 transfers only the requester's copy survives, so
        # every request after the first pays a transfer, while OPT keeps
        # a copy on every server.  Without epochs SC stays within 3x.
        n, m = 64, 3
        inst = ProblemInstance.from_arrays(
            0.01 * np.arange(1, n + 1), np.arange(n) % m, num_servers=m
        )
        opt = solve_offline(inst).optimal_cost
        assert SpeculativeCaching(epoch_size=2).run(inst).cost > 3.0 * opt
        assert SpeculativeCaching(epoch_size=None).run(inst).cost <= 3.0 * opt

    @given(
        instances(max_m=4, max_n=15),
        st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_ttl_family_always_feasible(self, inst, gamma):
        run = SpeculativeCaching(window_factor=gamma).run(inst)
        validate_schedule(run.schedule, inst)
        assert run.cost >= solve_offline(inst).optimal_cost - 1e-6


class TestTrustedProperties:
    @given(
        instances(max_m=4, max_n=15),
        st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(**_SETTINGS)
    def test_any_beta_any_corruption_feasible(self, inst, beta, flip):
        algo = TrustedPredictionCaching(
            NoisyOracle(flip_prob=flip, seed=0), beta=beta
        )
        run = algo.run(inst)
        validate_schedule(run.schedule, inst)
        assert run.cost >= solve_offline(inst).optimal_cost - 1e-6
