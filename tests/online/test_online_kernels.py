"""Differential gate: the batched online kernel vs the per-event oracle.

``repro.kernels.online`` promises *bit-identity* with
``run_online(SpeculativeCaching(...), inst)`` — not approximate equality.
Every test here compares full result structures (cost, counters,
canonical intervals, transfers in both orders, lifetimes, decision
digest) with ``==``, no tolerances, across the adversarial shapes the
per-epoch state machine is most likely to get wrong:

* window-boundary ties — the inter-request gap exactly equals the
  speculative window ``Δt = λ/μ``, so copies expire at the very instant
  of the next request (``expiry >= t`` is a hit, strict pop is ``< t``);
* lone-copy extension chains (Observation 4) — the last surviving copy
  re-arms at ``e + W`` repeatedly, drifting past the original window by
  accumulated FP error if the kernel dared to compute ``e + k·W``;
* last-two-copies-expire-together — the source/target tie rule picks the
  transfer *target*, else the latest cause;
* ``epoch_size=1`` — every transfer immediately resets the epoch;
* duplicate timestamps — only representable on duck instances
  (``ProblemInstance`` enforces strictly increasing times);
* degenerate fleets — ``m=1`` and single-request streams.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostModel
from repro.kernels.batch import BatchLayout
from repro.kernels.online import (
    ONLINE_KERNELS,
    decision_digest,
    run_online_batch,
    run_online_layout,
    run_online_vector,
    sweep_layout,
    vector_policy_config,
)
from repro.online import SpeculativeCaching
from repro.online.baselines import RandomizedTTL
from repro.service.multi import MultiItemInstance
from repro.sim.engine import run_online

from ..conftest import instances, make_instance

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_identical(inst, window_factor=1.0, epoch_size=None):
    """Vector kernel vs per-event oracle: every field, ``==``, no slack."""
    algo = SpeculativeCaching(window_factor=window_factor, epoch_size=epoch_size)
    ref = run_online(algo, inst, kernel="event")
    run = run_online_vector(
        inst,
        window_factor=window_factor,
        epoch_size=epoch_size,
        materialize=False,
    )
    res = run.to_result()
    assert res.cost == ref.cost
    assert res.counters == ref.counters
    assert res.algorithm == ref.algorithm
    assert res.schedule.intervals == ref.schedule.intervals
    assert res.schedule.transfers == ref.schedule.transfers
    assert res.transfers_raw() == ref.transfers_raw()
    assert res.lifetimes == ref.lifetimes
    assert decision_digest(run) == decision_digest(ref)
    return ref


def duck(times, servers, m, mu=1.0, lam=1.0, origin=0):
    """Instance stand-in that tolerates duplicate timestamps.

    ``ProblemInstance`` rejects non-increasing times, but the engine and
    the kernel both accept duck-typed instances, and equal-time requests
    are exactly where pop-group tie handling can diverge.
    """
    t = np.concatenate([[0.0], np.asarray(times, dtype=float)])
    return SimpleNamespace(
        t=t,
        srv=np.concatenate([[origin], np.asarray(servers, dtype=np.int64)]),
        n=len(times),
        num_servers=m,
        cost=CostModel(mu=mu, lam=lam),
        origin=origin,
    )


class TestEligibility:
    def test_kernel_names(self):
        assert ONLINE_KERNELS == ("auto", "event")

    def test_plain_sc_is_vectorizable(self):
        assert vector_policy_config(SpeculativeCaching()) == (
            1.0,
            None,
            "speculative-caching",
        )
        assert vector_policy_config(
            SpeculativeCaching(window_factor=2.0, epoch_size=3)
        ) == (2.0, 3, "ttl(2x)")

    def test_subclasses_and_other_policies_are_not(self):
        class Tweaked(SpeculativeCaching):
            pass

        assert vector_policy_config(Tweaked()) is None
        assert vector_policy_config(RandomizedTTL()) is None

    def test_unknown_kernel_rejected(self, fig6):
        for bad in ("warp", "vector"):
            with pytest.raises(ValueError, match="kernel"):
                run_online(SpeculativeCaching(), fig6, kernel=bad)


class TestAdversarialShapes:
    def test_paper_examples(self, fig2, fig6, fig7):
        for inst in (fig2, fig6, fig7):
            assert_identical(inst)
            assert_identical(inst, epoch_size=2)

    def test_window_boundary_tie(self):
        # Gap exactly Δt = λ/μ: each copy expires at the instant of the
        # next request.  expiry >= t counts as a hit; the expiry queue
        # pops strictly-before only.
        cost = CostModel(mu=1.0, lam=2.0)
        gap = cost.speculative_window
        times = [gap * k for k in range(1, 9)]
        inst = make_instance(times, [1, 0, 1, 0, 1, 0, 1, 0], m=2, mu=1.0, lam=2.0)
        ref = assert_identical(inst)
        assert ref.counters["local_hits"] > 0  # the tie really is a hit

    def test_just_past_window_boundary(self):
        cost = CostModel(mu=1.0, lam=2.0)
        gap = np.nextafter(cost.speculative_window, np.inf)
        times = list(np.cumsum([gap] * 8))
        inst = make_instance(times, [1, 0, 1, 0, 1, 0, 1, 0], m=2, mu=1.0, lam=2.0)
        assert_identical(inst)

    def test_lone_copy_extension_chain(self):
        # One early burst creates copies, then a long quiet stretch: the
        # last survivor re-arms at e + W repeatedly (Observation 4).  The
        # chained sum e + W + W + ... differs in FP from e + k·W, so any
        # closed-form shortcut in the kernel would diverge here.
        inst = make_instance(
            [0.1, 0.2, 0.3, 1000.0], [1, 2, 3, 0], m=4, mu=0.3, lam=7.0
        )
        ref = assert_identical(inst)
        assert ref.counters["extensions"] >= 2

    def test_last_two_copies_expire_together(self):
        # Source refresh and target creation at the same request share one
        # expiry instant; when that pair is the whole population the
        # survivor must be the transfer *target*.
        inst = make_instance([1.0, 50.0], [1, 1], m=2, mu=1.0, lam=1.0)
        assert_identical(inst)
        inst = make_instance([1.0, 2.0, 90.0], [1, 0, 1], m=2, mu=0.5, lam=3.0)
        assert_identical(inst)

    def test_epoch_size_one(self):
        inst = make_instance(
            [1.0, 2.5, 3.0, 7.0, 7.5, 11.0], [1, 2, 0, 2, 1, 0], m=3
        )
        ref = assert_identical(inst, epoch_size=1)
        assert ref.counters["epochs"] >= 1

    def test_duplicate_timestamps(self):
        inst = duck(
            [1.0, 1.0, 1.0, 2.0, 2.0, 5.0], [1, 2, 1, 0, 2, 1], m=3, lam=0.7
        )
        assert_identical(inst)
        assert_identical(inst, window_factor=0.5, epoch_size=1)

    def test_single_server_fleet(self):
        inst = make_instance([1.0, 2.0, 30.0], [0, 0, 0], m=1, mu=2.0, lam=0.1)
        ref = assert_identical(inst)
        assert ref.counters["transfers"] == 0

    def test_single_request(self):
        assert_identical(make_instance([4.0], [1], m=2))
        assert_identical(make_instance([4.0], [0], m=2))  # immediate hit

    @given(instances(max_m=5, max_n=30))
    @settings(**_SETTINGS)
    def test_differential_random(self, inst):
        assert_identical(inst)

    @given(
        instances(max_m=4, max_n=20),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([None, 1, 8]),
    )
    @settings(**_SETTINGS)
    def test_differential_ttl_epoch_grid(self, inst, gamma, epoch):
        assert_identical(inst, window_factor=gamma, epoch_size=epoch)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**_SETTINGS)
    def test_differential_duplicate_timestamps(self, n, m, seed):
        rng = np.random.default_rng(seed)
        # ~half the gaps are exactly zero → heavy equal-time groups.
        gaps = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 2.0)
        times = np.cumsum(gaps + 0.25 * (gaps == 0).astype(float) * 0)
        times = np.maximum.accumulate(times) + 0.5  # non-decreasing, > t0
        servers = rng.integers(0, m, size=n)
        inst = duck(times, servers, m, mu=0.8, lam=1.3)
        assert_identical(inst)
        assert_identical(inst, window_factor=2.0, epoch_size=1)


class TestBatchEquivalence:
    def _insts(self, m=4):
        rng = np.random.default_rng(7)
        out = {}
        for k in range(6):
            n = int(rng.integers(1, 25))
            times = np.cumsum(rng.random(n) + 1e-3)
            out[f"item{k}"] = make_instance(
                times, rng.integers(0, m, size=n), m=m, mu=0.7, lam=1.4
            )
        return out

    def test_layout_matches_per_item(self):
        items = self._insts()
        layout = BatchLayout.from_instances(list(items.items()))
        runs = run_online_layout(layout, 1.0, None)
        assert [r.name for r in runs] == list(items)
        for run, (name, inst) in zip(runs, items.items()):
            solo = run_online_vector(inst, materialize=False)
            assert run.cost == solo.cost
            assert run.counters == solo.counters
            assert run.digest == solo.digest

    def test_run_online_batch_matches_event_runs(self):
        items = self._insts()
        batch = run_online_batch(items, window_factor=2.0, epoch_size=3)
        assert list(batch) == list(items)
        for name, inst in items.items():
            ref = run_online(
                SpeculativeCaching(window_factor=2.0, epoch_size=3),
                inst,
                kernel="event",
            )
            res = batch[name]
            assert res.cost == ref.cost
            assert res.counters == ref.counters
            assert res.schedule.intervals == ref.schedule.intervals
            assert res.schedule.transfers == ref.schedule.transfers
            assert res.lifetimes == ref.lifetimes
            assert decision_digest(res) == decision_digest(ref)

    def test_service_one_kernel_call_matches_per_item(self):
        from repro.service.multi import MultiItemOnlineService

        svc = MultiItemInstance(items=self._insts())
        # run() returns its service object, so each path needs its own.
        vec = MultiItemOnlineService(SpeculativeCaching).run(svc, kernel="auto")
        ev = MultiItemOnlineService(SpeculativeCaching).run(svc, kernel="event")
        assert vec.total_cost == ev.total_cost
        assert vec.counters() == ev.counters()
        for name in svc.items:
            assert vec.runs[name].cost == ev.runs[name].cost
            assert vec.runs[name].counters == ev.runs[name].counters
            assert (
                vec.runs[name].schedule.transfers
                == ev.runs[name].schedule.transfers
            )

    def test_sweep_layout_rows_match_single_runs(self):
        items = self._insts()
        layout = BatchLayout.from_instances(list(items.items()))
        gammas = [0.5, 1.0, 2.0]
        grid = sweep_layout(layout, gammas, epoch_size=4)
        assert len(grid) == len(gammas)
        for gamma, runs in zip(gammas, grid):
            for run, (name, inst) in zip(runs, items.items()):
                solo = run_online_vector(
                    inst, window_factor=gamma, epoch_size=4, materialize=False
                )
                assert run.cost == solo.cost
                assert run.digest == solo.digest


class TestRandomizedSweep:
    """The ISSUE's 1k-instance exhaustive identity sweep, kept cheap."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("epoch", [None, 1, 8])
    def test_grid_point(self, gamma, epoch):
        rng = np.random.default_rng(hash((gamma, epoch)) % (2**32))
        for _ in range(112):  # 9 grid points × 112 ≈ 1k instances
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, 6))
            times = np.cumsum(rng.random(n) * 3.0 + 1e-3)
            inst = make_instance(
                times,
                rng.integers(0, m, size=n),
                m=m,
                mu=float(rng.uniform(0.25, 4.0)),
                lam=float(rng.uniform(0.25, 4.0)),
                origin=int(rng.integers(0, m)),
            )
            assert_identical(inst, window_factor=gamma, epoch_size=epoch)
