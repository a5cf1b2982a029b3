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

Every kernel run here happens once per SC step backend available
(``BACKENDS``: the compiled C step and the Python step), chosen through
``REPRO_BATCH_SWEEP``.  ``TestResumableStep`` adds the block contract:
any split of a sequence into :func:`step_block` calls, resumed from a
deep copy or not, finishes exactly like one block, in one C step call
per block, with the pending queue in pop order after every block.
Bad costs and times are refused when a state is built or stepped, and a
window the clock cannot resolve raises instead of spinning.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import CostModel
from repro.kernels import batch as batch_kernel
from repro.kernels import online as online_kernel
from repro.kernels.batch import BatchLayout
from repro.kernels.online import (
    ONLINE_KERNELS,
    SCState,
    decision_digest,
    finish,
    run_online_batch,
    run_online_layout,
    run_online_vector,
    step_block,
    vector_policy_config,
)
from repro.online import SpeculativeCaching
from repro.online.baselines import RandomizedTTL
from repro.service.multi import MultiItemInstance
from repro.sim.engine import run_online

from ..conftest import instances, make_instance
from ..offline.test_kernels import BACKENDS, backend

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_identical(inst, window_factor=1.0, epoch_size=None):
    """Vector kernel vs per-event oracle: every field, ``==``, no slack."""
    algo = SpeculativeCaching(window_factor=window_factor, epoch_size=epoch_size)
    ref = run_online(algo, inst, kernel="event")
    for name in BACKENDS:
        with backend(name):
            run = run_online_vector(
                inst,
                window_factor=window_factor,
                epoch_size=epoch_size,
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
        assert_per_request(run, ref, inst)
    return ref


def assert_per_request(run, ref, inst):
    """``hit`` / ``src`` / ``epoch_resets`` against the oracle's transfers.

    With strictly increasing times each transfer names exactly one
    request, so ``hit[i]`` must be False exactly when a transfer happened
    at ``t_i``, with ``src[i]`` its source.  Duplicate timestamps make
    that map ambiguous; the reset checks hold everywhere.
    """
    t = np.asarray(inst.t, dtype=float)
    assert run.hit.shape == run.src.shape == t.shape
    if np.all(np.diff(t) > 0):
        source = {tt: s for tt, s, _ in ref.transfers_raw()}
        assert len(source) == len(ref.transfers_raw())
        assert run.hit.tolist() == [ti not in source for ti in t.tolist()]
        assert run.src.tolist() == [source.get(ti, -1) for ti in t.tolist()]
    assert len(run.epoch_resets) == ref.counters["epochs"]
    assert not run.hit[run.epoch_resets].any()


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
        for which in BACKENDS:
            with backend(which):
                runs = run_online_layout(layout, 1.0, None)
                solos = [
                    run_online_vector(inst)
                    for inst in items.values()
                ]
            assert [r.name for r in runs] == list(items)
            for run, solo in zip(runs, solos):
                assert run.cost == solo.cost
                assert run.counters == solo.counters
                assert run.digest == solo.digest

    def test_run_online_batch_matches_event_runs(self):
        items = self._insts()
        for which in BACKENDS:
            with backend(which):
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

    def test_run_online_batch_takes_no_layout(self):
        # A layout packed in another item order used to be zipped against
        # the dict's names, swapping their costs; the option is gone.
        items = self._insts()
        layout = BatchLayout.from_instances(list(items.items())[::-1])
        with pytest.raises(TypeError):
            run_online_batch(items, layout=layout)

    def test_service_one_kernel_call_matches_per_item(self):
        from repro.service.multi import MultiItemOnlineService

        svc = MultiItemInstance(items=self._insts())
        # run() returns its service object, so each path needs its own.
        ev = MultiItemOnlineService(SpeculativeCaching).run(svc, kernel="event")
        for which in BACKENDS:
            with backend(which):
                vec = MultiItemOnlineService(SpeculativeCaching).run(
                    svc, kernel="auto"
                )
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
        # A TTL γ-grid is one run_online_layout call per γ over one
        # packed layout; every row must equal the per-item event runs.
        items = self._insts()
        layout = BatchLayout.from_instances(list(items.items()))
        for gamma in (0.5, 1.0, 2.0):
            algo = SpeculativeCaching(window_factor=gamma, epoch_size=4)
            refs = [run_online(algo, inst, kernel="event") for inst in items.values()]
            for which in BACKENDS:
                with backend(which):
                    runs = run_online_layout(layout, gamma, epoch_size=4)
                assert [run.name for run in runs] == list(items)
                for run, ref in zip(runs, refs):
                    assert run.cost == ref.cost
                    assert decision_digest(run) == decision_digest(ref)


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


def _run_blocks(inst, window_factor, epoch_size, cuts, snapshot_at, resume_on):
    """SCState over ``inst`` stepped block by block (``cuts`` are block
    boundaries within requests ``1..n``), then finished.

    Returns ``(run, hit, src, resets)`` with the per-block decisions
    re-aligned to request indices.  With ``snapshot_at``, the state is
    deep-copied and finished before that block; the original and the
    copy (on backend ``resume_on``) are then both stepped to the end
    and must finish the same.
    """
    t = np.asarray(inst.t, dtype=float)
    srv = np.asarray(inst.srv, dtype=np.int64)
    bounds = [1, *sorted(cuts), inst.n + 1]
    blocks = list(zip(bounds[:-1], bounds[1:]))

    def step(state, todo, decided):
        hit, src, resets = (list(d) for d in decided)
        for lo, hi in todo:
            out = step_block(state, t[lo:hi], srv[lo:hi])
            hit += out.hit.tolist()
            src += out.src.tolist()
            resets += (out.epoch_resets + lo).tolist()
        return hit, src, resets

    state = SCState(
        inst.num_servers,
        inst.cost.mu,
        inst.cost.lam,
        inst.origin,
        t[0],
        window_factor,
        epoch_size,
    )
    head = len(blocks) if snapshot_at is None else snapshot_at
    decided = step(state, blocks[:head], ([True], [-1], []))
    if snapshot_at is None:
        return (finish(state), *decided)
    snapshot = copy.deepcopy(state)
    finish(state)  # a mid-run finish leaves the state steppable
    original = step(state, blocks[head:], decided)
    with backend(resume_on):
        resumed = step(snapshot, blocks[head:], decided)
    run = finish(state)
    assert_same_run(finish(snapshot), run)
    assert resumed == original
    return (run, *original)


def assert_same_run(run, whole):
    """Every :class:`OnlineKernelRun` field, ``==``."""
    assert run.cost == whole.cost
    assert run.caching_cost == whole.caching_cost
    assert run.transfer_cost == whole.transfer_cost
    assert run.copy_seconds == whole.copy_seconds
    assert run.counters == whole.counters
    assert run.intervals == whole.intervals
    assert run.transfers == whole.transfers
    assert run.lifetimes == whole.lifetimes
    assert run.hit.tolist() == whole.hit.tolist()
    assert run.src.tolist() == whole.src.tolist()
    assert run.epoch_resets.tolist() == whole.epoch_resets.tolist()
    assert run.digest == whole.digest


@st.composite
def block_splits(draw, n):
    """Block boundaries over ``n`` requests: single-request blocks, or
    random cuts (empty blocks included), plus where to snapshot."""
    if draw(st.booleans()):
        cuts = list(range(2, n + 1))
    else:
        cuts = draw(st.lists(st.integers(1, n + 1), max_size=8))
    snapshot_at = draw(st.none() | st.integers(0, len(cuts)))
    return cuts, snapshot_at


class TestResumableStep:
    """``step_block`` over any split equals one block, on every backend."""

    def assert_splits_agree(self, inst, gamma, epoch, split):
        cuts, snapshot_at = split
        # The snapshot resumes on the other backend: both leave one state.
        for which, other in zip(BACKENDS, reversed(BACKENDS)):
            with backend(which):
                whole = run_online_vector(
                    inst, window_factor=gamma, epoch_size=epoch
                )
                run, hit, src, resets = _run_blocks(
                    inst, gamma, epoch, cuts, snapshot_at, other
                )
            assert_same_run(run, whole)
            assert hit == whole.hit.tolist()
            assert src == whole.src.tolist()
            assert resets == whole.epoch_resets.tolist()

    @given(
        instances(max_m=5, max_n=30),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([None, 1, 3]),
        st.data(),
    )
    @settings(**_SETTINGS)
    def test_any_split_equals_one_block(self, inst, gamma, epoch, data):
        self.assert_splits_agree(inst, gamma, epoch, data.draw(block_splits(inst.n)))

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.data(),
    )
    @settings(**_SETTINGS)
    def test_any_split_with_duplicate_timestamps(self, n, m, seed, data):
        rng = np.random.default_rng(seed)
        gaps = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 2.0)
        inst = duck(np.cumsum(gaps) + 0.5, rng.integers(0, m, size=n), m, lam=1.3)
        self.assert_splits_agree(inst, 2.0, 1, data.draw(block_splits(n)))

    def test_extension_chain_outgrows_the_queue(self, monkeypatch):
        # Quiet stretches of >= 1000 windows re-arm the lone copy once per
        # window: thousands of pushes against a queue reserved for a
        # 5-request block.  Each re-arm finds the queue drained and
        # restarts it at slot 0, so one reservation serves the block.
        inst = make_instance(
            [0.5, 0.6, 2000.0, 2000.1, 5000.0], [1, 2, 0, 3, 1], m=4
        )
        ref = assert_identical(inst)
        assert ref.counters["extensions"] > 4000
        if "c" not in BACKENDS:
            pytest.skip("no compiled SC step on this host")
        calls = []
        reserve = online_kernel._reserve

        def counting(state, requests):
            calls.append(requests)
            reserve(state, requests)

        monkeypatch.setattr(online_kernel, "_reserve", counting)
        with backend("c"):
            run = run_online_vector(inst)
        assert calls == [5]  # one reservation for the one block
        assert decision_digest(run) == decision_digest(ref)

    def test_million_extension_chain_keeps_the_initial_queue(self, monkeypatch):
        # 999,999 lone-copy re-arms in one block: the queue arrays keep
        # their initial capacity and the C step runs once.
        t = [0.5, 0.6, 1e6, 1e6 + 0.1]
        srv = [1, 2, 0, 1]
        steps = []
        real = online_kernel._load_sweep_lib

        class Counting:
            def __getattr__(self, name):
                fn = getattr(real(), name)
                if name != "repro_sc_step":
                    return fn

                def step(*args):
                    steps.append(args[3])  # nblk
                    return fn(*args)

                return step

        monkeypatch.setattr(online_kernel, "_load_sweep_lib", Counting)
        digests = set()
        for which in BACKENDS:
            with backend(which):
                state = SCState(3, 1.0, 1.0, 0, 0.0)
                capacity = (state.qt.shape[0], state.qs.shape[0])
                step_block(state, t, srv)
                assert (state.qt.shape[0], state.qs.shape[0]) == capacity
                run = finish(state)
            assert run.counters["extensions"] == 999_999
            digests.add(run.digest)
        assert len(digests) == 1
        assert steps == ([4] if "c" in BACKENDS else [])

    def test_room_is_checked_before_every_write(self, monkeypatch):
        # One reservation per block always suffices; without it the C
        # step refuses to write past its arrays rather than resume.
        if "c" not in BACKENDS:
            pytest.skip("no compiled SC step on this host")
        monkeypatch.setattr(online_kernel, "_reserve", lambda state, requests: None)
        state = SCState(2, 1.0, 1.0, 0, 0.0)
        t = np.arange(1, 41) * 0.1
        with backend("c"), pytest.raises(RuntimeError, match="reserved room"):
            step_block(state, t, np.arange(1, 41) % 2)
        assert state.nlife <= state.lt_srv.shape[0]
        assert state.qlen <= state.qt.shape[0]

    @given(
        instances(max_m=5, max_n=30),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.sampled_from([None, 1, 3]),
        st.data(),
    )
    @settings(**_SETTINGS)
    def test_pending_queue_in_pop_order_after_every_block(
        self, inst, gamma, epoch, data
    ):
        # The module's invariants 2 and 3: pushes append in pop order, and
        # no pending entry precedes the last request time.  Ties: some
        # gaps collapse to 0 (duplicate times), some equal the window, so
        # a copy expires at the very instant of the next request.
        W = gamma * (inst.cost.lam / inst.cost.mu)  # SCState's expression
        tie = data.draw(
            st.lists(st.sampled_from([None, 0.0, W]), min_size=inst.n, max_size=inst.n)
        )
        t = [float(inst.t[0])]
        for gap, tied in zip(np.diff(inst.t).tolist(), tie):
            t.append(t[-1] + (gap if tied is None else tied))
        t = np.asarray(t)
        srv = np.asarray(inst.srv, dtype=np.int64)
        cuts, _ = data.draw(block_splits(inst.n))
        bounds = [1, *sorted(cuts), inst.n + 1]
        tied = SimpleNamespace(
            t=t,
            srv=srv,
            n=inst.n,
            num_servers=inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
        )
        ref = run_online(SpeculativeCaching(gamma, epoch), tied, kernel="event")
        for which in BACKENDS:
            with backend(which):
                state = SCState(
                    inst.num_servers,
                    inst.cost.mu,
                    inst.cost.lam,
                    inst.origin,
                    t[0],
                    gamma,
                    epoch,
                )
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    step_block(state, t[lo:hi], srv[lo:hi])
                    pending = state.qt[state.head : state.qlen]
                    assert np.all(pending[1:] >= pending[:-1])
                    assert np.all(pending >= state.last_t)
                assert decision_digest(finish(state)) == decision_digest(ref)

    def test_bad_blocks_rejected_before_any_change(self):
        inst = make_instance([1.0, 2.0, 3.0], [1, 0, 1], m=2)
        for which in BACKENDS:
            with backend(which):
                state = SCState(2, 1.0, 1.0, 0, 0.0)
                step_block(state, [1.0, 2.0], [1, 0])
                for t, srv in (([3.0], [2]), ([3.0], [-1]), ([1.5], [1]),
                               ([3.0, 2.5], [0, 1]), ([3.0], [0, 1])):
                    with pytest.raises(ValueError):
                        step_block(state, t, srv)
                step_block(state, [3.0], [1])
                assert_same_run(
                    finish(state), run_online_vector(inst)
                )


_BAD_PARAMS = [
    pytest.param({"window_factor": float("nan")}, id="window_factor=nan"),
    pytest.param({"window_factor": float("inf")}, id="window_factor=inf"),
    pytest.param({"window_factor": 0.0}, id="window_factor=0"),
    pytest.param({"window_factor": -1.0}, id="window_factor=-1"),
    pytest.param({"window_factor": "2"}, id="window_factor=str"),
    pytest.param({"epoch_size": 2.5}, id="epoch_size=2.5"),
    pytest.param({"epoch_size": 2.0}, id="epoch_size=2.0"),
    pytest.param({"epoch_size": True}, id="epoch_size=True"),
    pytest.param({"epoch_size": 0}, id="epoch_size=0"),
    pytest.param({"epoch_size": -3}, id="epoch_size=-3"),
    pytest.param({"epoch_size": "3"}, id="epoch_size=str"),
]


class TestParameterValidation:
    @pytest.mark.parametrize("bad", _BAD_PARAMS)
    def test_rejected_on_every_path(self, bad, fig6):
        for kernel in ONLINE_KERNELS:
            with pytest.raises(ValueError):
                run_online(SpeculativeCaching(**bad), fig6, kernel=kernel)
        layout = BatchLayout.from_instances([("fig6", fig6)])
        params = {"window_factor": 1.0, "epoch_size": None, **bad}
        for which in BACKENDS:
            with backend(which), pytest.raises(ValueError):
                run_online_layout(layout, **params)

    def test_numeric_types_are_normalised(self, fig6):
        # A float32 window must not make the per-event run compute in
        # float32 while the kernels compute in double.
        algo = SpeculativeCaching(window_factor=np.float32(0.5), epoch_size=np.int64(3))
        assert type(algo.window_factor) is float and type(algo.epoch_size) is int
        assert vector_policy_config(algo) == (0.5, 3, "ttl(0.5x)")
        assert_identical(fig6, window_factor=np.float32(0.5), epoch_size=np.int64(3))


_BAD_COSTS = [
    pytest.param(1.0, -1.0, id="lam=-1"),
    pytest.param(1.0, 0.0, id="lam=0"),
    pytest.param(1.0, float("nan"), id="lam=nan"),
    pytest.param(-1.0, 1.0, id="mu=-1"),
    pytest.param(0.0, 1.0, id="mu=0"),
    pytest.param(float("inf"), 1.0, id="mu=inf"),
]


class TestStateBoundary:
    @pytest.mark.parametrize("mu, lam", _BAD_COSTS)
    def test_bad_costs_refused_at_construction(self, mu, lam):
        # Stepped, such a state hung (negative or zero window, or an
        # infinite mu) or raised a misleading error; W >= 0 is what lets
        # every push append.
        with pytest.raises(ValueError):
            SCState(3, mu, lam, 0, 0.0)

    def test_non_finite_times_refused(self):
        for t0 in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="t0 must be finite"):
                SCState(2, 1.0, 1.0, 0, t0)
        for which in BACKENDS:
            with backend(which):
                state = SCState(2, 1.0, 1.0, 0, 0.0)
                nan, inf = float("nan"), float("inf")
                for t in ([nan], [1.0, nan, 2.0], [1.0, inf]):
                    with pytest.raises(ValueError, match="finite and non-decreasing"):
                        step_block(state, t, [1] * len(t))
                assert (state.n, state.last_t) == (0, 0.0)


#: Runs SC on both kernels over three requests near t = 1e6 with
#: W = lam / mu = 1e-20; ``{servers}``, ``{m}`` and ``{start}`` complete
#: the instance.
_SPIN = """
import numpy as np
from repro import CostModel, ProblemInstance
from repro.online import SpeculativeCaching
inst = ProblemInstance.from_arrays(
    np.array([1e6, 1e6 + 1.0, 1e6 + 2.0]), np.array({servers}), num_servers={m},
    cost=CostModel(mu=1.0, lam=1e-20){start},
)
for kernel in ("event", "auto"):
    try:
        SpeculativeCaching().run(inst, kernel=kernel)
    except ValueError as exc:
        print(kernel, exc)
    else:
        print(kernel, "ran")
"""


def _run_fresh(code):
    """Each backend's output lines of ``code`` in a fresh interpreter."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for which in BACKENDS:
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(env, REPRO_BATCH_SWEEP=which),
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["event", "auto"]
        yield lines


class TestUnresolvableWindow:
    def test_raises_instead_of_spinning(self):
        # lam / mu = 1e-20 is far below the clock's resolution near 1e6,
        # so the lone copy's re-arm leaves e + W == e and would pop the
        # same group forever.  A fresh interpreter with a timeout turns a
        # regression into a failure, not a hung suite.
        code = _SPIN.format(servers=[1, 2, 1], m=3, start=", start_time=1e6 - 1.0")
        for lines in _run_fresh(code):
            for line in lines:
                assert "window W=1e-20 does not move" in line
                assert "e=999999.0" in line

    def test_endless_chain_raises_instead_of_hanging(self):
        # From the default start time 0 every re-arm moves the expiry,
        # but by 1e-20 at a time: the chain from e = 1e-20 to the first
        # request at 1e6 needs ~1e26 windows and would outlast any
        # timeout.
        code = _SPIN.format(servers=[1, 0, 1], m=2, start="")
        for lines in _run_fresh(code):
            for line in lines:
                assert "window W=1e-20 would re-arm a lone copy" in line
                assert "from e=1e-20 up to t=1000000.0" in line
                assert "more than 4294967296 times" in line


class TestNoCompiler:
    def test_falls_back_to_the_python_step(self, monkeypatch, tmp_path, fig6):
        # The compile-failure branch of the loader: an empty kernel cache
        # and no compiler leave both kernels on their Python loops.
        monkeypatch.delenv("REPRO_BATCH_SWEEP", raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(batch_kernel, "_find_compiler", lambda: None)
        for key, value in list(batch_kernel._lib_state.items()):
            monkeypatch.setitem(batch_kernel._lib_state, key, value)
        batch_kernel._lib_state["loaded"] = False
        assert batch_kernel.batch_sweep_backend() == "python"
        assert "no C compiler" in str(batch_kernel._lib_state["error"])
        ref = run_online(SpeculativeCaching(), fig6, kernel="event")
        run = run_online_vector(fig6)
        assert decision_digest(run) == decision_digest(ref)
        monkeypatch.setenv("REPRO_BATCH_SWEEP", "c")
        with pytest.raises(RuntimeError, match="unavailable"):
            run_online_vector(fig6)
