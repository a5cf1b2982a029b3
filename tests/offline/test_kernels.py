"""Differential suite for ``repro.kernels`` — bit-identity, not approx.

The kernels are throughput knobs, never semantics knobs: every test here
compares *bytes*, not ``pytest.approx``.  Three layers:

* ``solve_offline`` on every sweep backend, its ``kernel="frontier"``
  Python loop, and batched solves vs the reference sweep, including
  tie-heavy integer-gap instances and single-server degenerate cases;
* the one check and pre-scan of request columns
  (``prescan_columns``) vs its loop reference twins, one packed
  multi-item call vs the one-item calls instances make, and the narrow
  sort keys it groups by;
* the streaming solver vs the batch solver on the same
  prefix.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostModel, ProblemInstance, solve_offline
from repro.kernels import batch as batch_kernel
from repro.kernels import batch_sweep_backend, solve_offline_batch
from repro.kernels.prescan import (
    build_pivot_matrix,
    build_pivot_matrix_reference,
    per_server_lists,
    prescan_columns,
    prev_same_server_reference,
    sort_key,
)
from repro.offline.streaming import StreamingSolver

from ..conftest import instances, make_instance

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every batch sweep backend runnable on this box.  The Python sweep
#: always exists; the C sweep joins when a system compiler produced the
#: shared object.
BACKENDS = ("python", "c") if batch_sweep_backend() == "c" else ("python",)


@contextmanager
def backend(name):
    """Pin the compiled kernels' backend (DP sweep, SC step, CSV scanner,
    trace pack and pre-scan) for the block, through
    ``REPRO_BATCH_SWEEP`` — the only switch there is.

    A context manager rather than the ``monkeypatch`` fixture, which
    hypothesis rejects in ``@given`` tests.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BATCH_SWEEP", name)
        yield


@st.composite
def tie_heavy_instances(draw, max_m: int = 4, max_n: int = 24):
    """Integer gaps with ``mu = lam = 1``: many exactly-equal D candidates.

    Equal *values* are where argmin tie-breaking can silently diverge
    between kernels, so this strategy manufactures them on purpose.
    """
    m = draw(st.integers(min_value=1, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_n))
    gaps = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n)
    )
    servers = draw(
        st.lists(st.integers(min_value=0, max_value=m - 1), min_size=n, max_size=n)
    )
    origin = draw(st.integers(min_value=0, max_value=m - 1))
    return ProblemInstance.from_arrays(
        np.cumsum(np.asarray(gaps, dtype=float)),
        np.asarray(servers, dtype=int),
        num_servers=m,
        cost=CostModel(mu=1.0, lam=1.0),
        origin=origin,
    )


def assert_bit_identical(a, b):
    """Every result field byte-identical; schedules exactly equal."""
    assert a.C.tobytes() == b.C.tobytes()
    assert a.D.tobytes() == b.D.tobytes()
    assert a.served_by_cache.tobytes() == b.served_by_cache.tobytes()
    assert a.choice_d_tag.tobytes() == b.choice_d_tag.tobytes()
    assert a.choice_d_k.tobytes() == b.choice_d_k.tobytes()
    sa, sb = a.schedule(), b.schedule()
    assert sa.transfers == sb.transfers
    assert sa.intervals == sb.intervals
    cost = a.instance.cost
    assert sa.total_cost(cost) == sb.total_cost(cost)


def assert_solves_match_reference(inst):
    """``solve_offline`` on every backend, and its ``kernel="frontier"``
    Python loop, bit-identical to the reference sweep."""
    ref = solve_offline(inst, kernel="reference")
    for which in BACKENDS:
        with backend(which):
            assert_bit_identical(ref, solve_offline(inst))
    assert_bit_identical(ref, solve_offline(inst, kernel="frontier"))


class TestFrontierVsReference:
    @given(instances())
    @settings(**_SETTINGS)
    def test_random_instances(self, inst):
        assert_solves_match_reference(inst)

    @given(tie_heavy_instances())
    @settings(**_SETTINGS)
    def test_tie_heavy_instances(self, inst):
        assert_solves_match_reference(inst)

    @given(instances(max_m=1, max_n=30))
    @settings(**_SETTINGS)
    def test_single_server_degenerate(self, inst):
        assert inst.num_servers == 1
        assert_solves_match_reference(inst)

    @given(instances(max_m=6, max_n=40))
    @settings(**_SETTINGS)
    def test_batch_backends_match_reference(self, inst):
        ref = solve_offline(inst, kernel="reference")
        for which in BACKENDS:
            with backend(which):
                batch = solve_offline_batch({"x": inst})["x"]
            assert_bit_identical(ref, batch)

    def test_kernel_auto_runs_batched_sweep(self, monkeypatch):
        # "auto" is the batched sweep on a one-item layout, on the
        # backend REPRO_BATCH_SWEEP names.
        inst = make_instance([1.0, 2.0, 3.5], [0, 1, 0], m=2)
        calls = []

        def spy(name):
            real = getattr(batch_kernel, name)

            def sweep(layout, *out):
                calls.append((name, layout.num_items, layout.total))
                real(layout, *out)

            return sweep

        for name in ("_sweep_c", "_sweep_python"):
            monkeypatch.setattr(batch_kernel, name, spy(name))
        ref = solve_offline(inst, kernel="reference")
        for which in BACKENDS:
            calls.clear()
            with backend(which):
                auto = solve_offline(inst)  # kernel="auto"
            assert calls == [(f"_sweep_{which}", 1, inst.n + 1)]
            assert_bit_identical(ref, auto)

    def test_default_result_is_read_only_and_labelled(self):
        inst = make_instance([1.0, 2.0, 3.5], [0, 1, 0], m=2)
        for kernel in ("auto", "frontier"):
            res = solve_offline(inst, kernel=kernel)
            assert res.instance is inst
            assert res.solver == "fast-dp"
            for arr in (
                res.C,
                res.D,
                res.served_by_cache,
                res.choice_d_tag,
                res.choice_d_k,
            ):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_frontier_kernel_never_enters_the_library(self, monkeypatch):
        # kernel="frontier" is the Python oracle loop even when C is
        # pinned: the compiled library must not be touched at all.  The
        # instance is built first, since its pre-scan may run in C.
        def boom(*args):
            raise AssertionError("kernel='frontier' entered the C library")

        inst = make_instance([1.0, 2.0, 3.5, 4.0], [0, 1, 0, 1], m=2)
        monkeypatch.setattr(batch_kernel, "_sweep_c", boom)
        monkeypatch.setattr(batch_kernel, "_load_sweep_lib", boom)
        with backend("c"):
            res = solve_offline(inst, kernel="frontier")
        assert_bit_identical(solve_offline(inst, kernel="reference"), res)

    def test_bad_kernel_rejected(self):
        inst = make_instance([1.0], [0], m=1)
        for bad in ("warp", "batch"):
            with pytest.raises(ValueError, match="kernel"):
                solve_offline(inst, kernel=bad)


@st.composite
def server_vectors(draw, max_m: int = 6, max_n: int = 40):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n1 = draw(st.integers(min_value=1, max_value=max_n))
    servers = draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1), min_size=n1, max_size=n1
        )
    )
    return np.asarray(servers, dtype=np.int64), m


def _columns(insts):
    """``prescan_columns`` arguments packing ``insts`` back to back."""
    return (
        np.concatenate([inst.t for inst in insts]),
        np.concatenate([inst.srv for inst in insts]),
        np.cumsum([0] + [inst.n + 1 for inst in insts[:-1]]),
        np.array([inst.num_servers for inst in insts]),
        np.array([inst.cost.mu for inst in insts]),
        np.array([inst.cost.lam for inst in insts]),
    )


class TestPrescanVsReferenceTwins:
    @given(st.lists(server_vectors(), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_prev_same_server(self, batch):
        # Items packed back to back (times rise within each): every
        # item's slice of the item-local p is the per-server loop's.
        srv = np.concatenate([servers for servers, _ in batch])
        off = np.cumsum([0] + [servers.shape[0] for servers, _ in batch[:-1]])
        ones = np.ones(len(batch))
        p = prescan_columns(
            np.arange(srv.shape[0], dtype=np.float64),
            srv,
            off,
            np.array([m for _, m in batch]),
            ones,
            ones,
        )[0]
        for (servers, m), lo in zip(batch, off):
            ref = prev_same_server_reference(
                per_server_lists(servers, m), servers.shape[0]
            )
            assert p[lo : lo + servers.shape[0]].tobytes() == ref.tobytes()

    @given(server_vectors())
    @settings(**_SETTINGS)
    def test_pivot_matrix(self, sv):
        servers, m = sv
        fast = build_pivot_matrix(servers, m)
        ref = build_pivot_matrix_reference(servers, m)
        assert fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()

    @given(st.lists(instances(), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_batch_call_equals_one_item_calls(self, insts):
        # One packed multi-item call must reproduce, item by item, the
        # one-item call each instance made for its own arrays.
        batch = prescan_columns(*_columns(insts))
        for inst, lo in zip(insts, _columns(insts)[2]):
            rows = slice(lo, lo + inst.n + 1)
            one = prescan_columns(*_columns([inst]))
            own = (inst.p, inst.sigma, inst.b, inst.B)
            for packed, alone, held in zip(batch, one, own):
                assert packed[rows].tobytes() == alone.tobytes() == held.tobytes()


class TestSortKey:
    """``sort_key`` narrows without wrapping, so stable sorts stay equal."""

    @pytest.mark.parametrize(
        "top, dtype",
        [
            (255, np.uint8),
            (256, np.uint16),
            (65535, np.uint16),
            (65536, np.uint32),
            (2**32 - 1, np.uint32),
            (2**32, np.int64),
        ],
    )
    def test_width_follows_the_maximum(self, top, dtype):
        values = np.array([0, top, 7], dtype=np.int64)
        key = sort_key(values)
        assert key.dtype == dtype
        assert key.astype(np.int64).tolist() == values.tolist()

    @pytest.mark.parametrize(
        "values",
        [
            np.empty(0, dtype=np.int64),
            np.array([3, -1, 2], dtype=np.int64),
            np.array([-(2**40), 5], dtype=np.int64),
            np.array([0.0, 3.5]),
        ],
    )
    def test_unnarrowable_input_comes_back_unchanged(self, values):
        assert sort_key(values) is values

    @pytest.mark.parametrize("top", [200, 60_000, 3_000_000, 2**33])
    def test_sorts_on_the_key_equal_sorts_on_the_values(self, top):
        rng = np.random.default_rng(top)
        values = rng.integers(0, top + 1, size=5_000, dtype=np.int64)
        values[0] = top
        other = rng.integers(0, 50, size=values.shape[0], dtype=np.int64)
        key = sort_key(values)
        assert (
            np.argsort(key, kind="stable").tobytes()
            == np.argsort(values, kind="stable").tobytes()
        )
        assert (
            np.lexsort((other, key)).tobytes()
            == np.lexsort((other, values)).tobytes()
        )
        assert (
            np.lexsort((key, other)).tobytes()
            == np.lexsort((values, other)).tobytes()
        )


class TestStreamingVsBatch:
    @given(instances())
    @settings(**_SETTINGS)
    def test_streaming_prefix_equals_batch(self, inst):
        solver = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        for i in range(1, inst.n + 1):
            solver.append(float(inst.t[i]), int(inst.srv[i]))
        res = solver.result()
        batch = solve_offline(inst, kernel="reference")
        assert res.C.tobytes() == batch.C.tobytes()
        assert res.D.tobytes() == batch.D.tobytes()
        assert (
            res.served_by_cache.tobytes() == batch.served_by_cache.tobytes()
        )
        assert res.choice_d_tag.tobytes() == batch.choice_d_tag.tobytes()
        assert res.choice_d_k.tobytes() == batch.choice_d_k.tobytes()

    @given(tie_heavy_instances())
    @settings(**_SETTINGS)
    def test_streaming_frontier_on_ties(self, inst):
        solver = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        solver.extend(
            (float(inst.t[i]), int(inst.srv[i])) for i in range(1, inst.n + 1)
        )
        res = solver.result()
        frontier = solve_offline(inst, kernel="frontier")
        assert res.C.tobytes() == frontier.C.tobytes()
        assert res.choice_d_k.tobytes() == frontier.choice_d_k.tobytes()
