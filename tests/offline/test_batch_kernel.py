"""Differential suite for the batched instance-major DP kernel.

Batch results must be *byte-identical* to per-item
``kernel="frontier"`` solves on every field — including the
``(value, server-id)`` lexicographic argmin tie-breaks — for ragged
batches (mixed ``n`` and ``m``), degenerate fleets (``m = 1``),
single-item batches, duplicate timestamps across items, and tie-heavy
integer-gap workloads.  Both sweep backends (compiled C when available,
the transliterated Python loop always) are held to the same contract,
and the raw-column packing path must produce the same layout as packing
pre-scanned instances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CostModel, ProblemInstance, solve_offline
from repro.core.types import InvalidInstanceError
from repro.kernels import batch as batch_kernel
from repro.kernels.batch import (
    BatchLayout,
    batch_sweep_backend,
    solve_layout,
    solve_offline_batch,
)
from repro.kernels.online import run_online_vector
from repro.offline.streaming import StreamingSolver

from ..conftest import instances, make_instance
from .test_kernels import (
    BACKENDS,
    assert_bit_identical,
    backend,
    tie_heavy_instances,
)

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def _column_entry(name, inst):
    """One item's raw columns: ``(name, times, servers, m, mu, lam,
    origin, t_0)``, without the boundary request ``r_0``."""
    return (
        name,
        inst.t[1:],
        inst.srv[1:],
        inst.num_servers,
        inst.cost.mu,
        inst.cost.lam,
        inst.origin,
        float(inst.t[0]),
    )


def _packed(entries):
    """``BatchLayout.from_columns`` arguments: ``entries`` back to back,
    each item's ``r_0`` first."""
    names, t, srv, off, mserv, mu, lam = [], [], [], [], [], [], []
    for name, times, servers, m, mu_k, lam_k, origin, start in entries:
        off.append(len(t))
        names.append(name)
        t += [start, *times]
        srv += [origin, *servers]
        mserv.append(m)
        mu.append(mu_k)
        lam.append(lam_k)
    return (
        names,
        np.asarray(t, dtype=np.float64),
        np.asarray(srv, dtype=np.int64),
        np.asarray(off, dtype=np.int64),
        mserv,
        mu,
        lam,
    )


def two_item_layout():
    """Rows 0-3 are item a's (m = 2), rows 4-6 item b's (m = 3)."""
    return BatchLayout.from_instances(
        {
            "a": make_instance([1.0, 2.0, 3.5], [0, 1, 0], m=2),
            "b": make_instance([0.5, 1.0], [1, 1], m=3),
        }
    )


def edit(index, value):
    """A copy of a layout column with one entry replaced."""

    def bad(column):
        column = column.copy()
        column[index] = value
        return column

    return bad


@pytest.fixture
def no_c_sweep(monkeypatch):
    """A C library whose sweep fails the test if it is ever called.

    Its pre-scan refuses every input, so the instances a test builds
    take the numpy pre-scan, compiler or not.
    """

    class Library:
        def repro_batch_sweep(self, *args):
            raise AssertionError("the C sweep ran on a bad layout")

        def repro_prescan(self, *args):
            return 1  # PRESCAN_REFUSED

    monkeypatch.setattr(batch_kernel, "_load_sweep_lib", Library)


def assert_batch_matches_frontier(batch, per_item):
    for name, res in batch.items():
        assert_bit_identical(per_item[name], res)


@st.composite
def instance_batches(draw, min_items: int = 1, max_items: int = 5):
    """Ragged batches: items with independent n, m, costs and origins."""
    count = draw(st.integers(min_value=min_items, max_value=max_items))
    return {f"item-{k}": draw(instances()) for k in range(count)}


class TestBatchVsFrontier:
    @pytest.mark.parametrize("which", BACKENDS)
    @given(items=instance_batches())
    @settings(**_SETTINGS)
    def test_ragged_batches(self, which, items):
        per_item = {
            name: solve_offline(inst, kernel="frontier") for name, inst in items.items()
        }
        with backend(which):
            batch = solve_offline_batch(items)
        assert list(batch) == list(items)  # input key order preserved
        assert_batch_matches_frontier(batch, per_item)

    @pytest.mark.parametrize("which", BACKENDS)
    @given(items=st.lists(tie_heavy_instances(), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_tie_heavy_batches(self, which, items):
        # Integer gaps with mu = lam = 1: many exactly-equal D candidates,
        # exercising the (value, server-id) lexicographic argmin.
        named = {f"item-{k}": inst for k, inst in enumerate(items)}
        per_item = {
            name: solve_offline(inst, kernel="frontier") for name, inst in named.items()
        }
        with backend(which):
            batch = solve_offline_batch(named)
        assert_batch_matches_frontier(batch, per_item)

    @pytest.mark.parametrize("which", BACKENDS)
    @given(items=st.lists(instances(max_m=1, max_n=25), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_single_server_batches(self, which, items):
        named = {f"item-{k}": inst for k, inst in enumerate(items)}
        per_item = {
            name: solve_offline(inst, kernel="frontier") for name, inst in named.items()
        }
        with backend(which):
            batch = solve_offline_batch(named)
        assert_batch_matches_frontier(batch, per_item)

    @pytest.mark.parametrize("which", BACKENDS)
    @given(inst=instances())
    @settings(**_SETTINGS)
    def test_single_item_batch(self, which, inst):
        with backend(which):
            batch = solve_offline_batch({"only": inst})
        assert_bit_identical(solve_offline(inst, kernel="frontier"), batch["only"])

    @pytest.mark.parametrize("which", BACKENDS)
    def test_duplicate_timestamps_across_items(self, which):
        # Per-item times are strictly increasing, but *across* items the
        # very same timestamps repeat — the packed columns must never mix
        # neighbouring items up.
        times = [1.0, 2.0, 3.0, 4.0]
        items = {
            f"item-{k}": make_instance(times, [k % 3, (k + 1) % 3, 0, 2], m=3)
            for k in range(5)
        }
        per_item = {
            name: solve_offline(inst, kernel="frontier") for name, inst in items.items()
        }
        with backend(which):
            batch = solve_offline_batch(items)
        assert_batch_matches_frontier(batch, per_item)

    def test_backends_agree_with_each_other(self):
        if len(BACKENDS) < 2:
            pytest.skip("no C compiler on this box")
        items = {
            f"item-{k}": make_instance(
                [float(i) for i in range(1, 30)],
                [(i * (k + 1)) % 4 for i in range(29)],
                m=4,
            )
            for k in range(6)
        }
        with backend("c"):
            a = solve_offline_batch(items)
        with backend("python"):
            b = solve_offline_batch(items)
        for name in items:
            assert_bit_identical(a[name], b[name])

    def test_empty_batch(self):
        assert solve_offline_batch({}) == {}
        with pytest.raises(ValueError, match="at least one item"):
            BatchLayout.from_instances({})

    def test_bad_sweep_kernel_rejected(self):
        # REPRO_BATCH_SWEEP is the only backend switch, so a typo must
        # fail on both kernels rather than silently run the other backend.
        inst = make_instance([1.0, 2.5], [0, 1], m=2)
        for bad in ("pyhton", "warp", "batch", "event", "c python"):
            with backend(bad):
                for call in (
                    batch_sweep_backend,
                    lambda: solve_offline_batch({"x": inst}),
                    lambda: run_online_vector(inst),
                ):
                    with pytest.raises(ValueError, match="REPRO_BATCH_SWEEP"):
                        call()
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("REPRO_BATCH_SWEEP", raising=False)
            default = batch_sweep_backend()
        for ok in ("", "  ", "auto", " Auto "):
            with backend(ok):
                assert batch_sweep_backend() == default
        for ok in ("python", " PYTHON ", *[f" {b.upper()}" for b in BACKENDS]):
            with backend(ok):
                assert batch_sweep_backend() == ok.strip().lower()


class TestStreamingPrefixEquivalence:
    @pytest.mark.parametrize("which", BACKENDS)
    @given(inst=instances())
    @settings(**_SETTINGS)
    def test_batch_equals_streaming_at_every_prefix(self, which, inst):
        # The batch kernel solved on the prefix instance must equal the
        # streaming solver's state after the same appends — for EVERY
        # prefix, not just the full stream.
        solver = StreamingSolver(
            inst.num_servers,
            cost=inst.cost,
            origin=inst.origin,
            start_time=float(inst.t[0]),
        )
        for i in range(1, inst.n + 1):
            solver.append(float(inst.t[i]), int(inst.srv[i]))
            prefix = ProblemInstance.from_arrays(
                inst.t[1 : i + 1],
                inst.srv[1 : i + 1],
                num_servers=inst.num_servers,
                cost=inst.cost,
                origin=inst.origin,
                start_time=float(inst.t[0]),
            )
            stream = solver.result()
            with backend(which):
                batch = solve_offline_batch({"p": prefix})["p"]
            assert batch.C.tobytes() == stream.C.tobytes()
            assert batch.D.tobytes() == stream.D.tobytes()
            assert (
                batch.served_by_cache.tobytes()
                == stream.served_by_cache.tobytes()
            )
            assert batch.choice_d_tag.tobytes() == stream.choice_d_tag.tobytes()
            assert batch.choice_d_k.tobytes() == stream.choice_d_k.tobytes()


class TestBatchLayout:
    @given(items=instance_batches())
    @settings(**_SETTINGS)
    def test_from_columns_matches_from_instances(self, items):
        # The packed-column pre-scan (one prescan_columns call for the
        # batch) must reproduce the instances' own one-item pre-scans
        # bit-for-bit — this is what lets the trace samplers skip
        # instance construction entirely.
        by_inst = BatchLayout.from_instances(items)
        by_cols = BatchLayout.from_columns(
            *_packed(_column_entry(name, inst) for name, inst in items.items())
        )
        assert by_cols.names == by_inst.names
        for field in (
            "off",
            "nreq",
            "soff",
            "mserv",
            "origin",
            "mu",
            "lam",
            "t",
            "srv",
            "p",
            "sigma",
            "B",
        ):
            assert (
                getattr(by_cols, field).tobytes()
                == getattr(by_inst, field).tobytes()
            ), field

    def test_from_columns_matches_from_instances_on_wide_keys(self):
        # Over 256 items and over 256 servers: the (item, server) key
        # then sorts as uint32, not the uint8/uint16 keys the small
        # hypothesis batches reach.
        rng = np.random.default_rng(11)
        items = {}
        for k in range(300):
            m = 300 if k % 50 == 0 else int(rng.integers(1, 9))
            n = int(rng.integers(1, 30))
            times = np.cumsum(rng.uniform(0.05, 2.0, size=n)).tolist()
            servers = rng.integers(0, m, size=n)
            servers[-1] = m - 1
            items[f"item-{k:03d}"] = make_instance(times, servers, m=m)
        by_inst = BatchLayout.from_instances(items)
        by_cols = BatchLayout.from_columns(
            *_packed(_column_entry(name, inst) for name, inst in items.items())
        )
        assert by_cols.names == by_inst.names
        assert by_inst.srv.max() > 256
        for field in ("off", "srv", "p", "sigma", "B"):
            assert (
                getattr(by_cols, field).tobytes()
                == getattr(by_inst, field).tobytes()
            ), field

    def test_result_arrays_are_readonly_views(self):
        items = {
            "a": make_instance([1.0, 2.0], [0, 1], m=2),
            "b": make_instance([1.0, 3.0, 4.0], [1, 0, 1], m=2),
        }
        batch = solve_offline_batch(items)
        for res in batch.values():
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
        # Views really do share one stacked buffer per field.
        assert batch["a"].C.base is batch["b"].C.base

    def test_from_columns_validation(self):
        good = _column_entry("ok", make_instance([1.0, 2.0], [0, 1], m=2))
        with pytest.raises(InvalidInstanceError, match="strictly increasing"):
            BatchLayout.from_columns(
                *_packed([good, ("bad", [1.0, 1.0], [0, 1], 2, 1.0, 1.0, 0, 0.0)])
            )
        with pytest.raises(InvalidInstanceError, match="server ids"):
            BatchLayout.from_columns(
                *_packed([good, ("bad", [1.0, 2.0], [0, 5], 2, 1.0, 1.0, 0, 0.0)])
            )
        with pytest.raises(InvalidInstanceError, match="origin"):
            BatchLayout.from_columns(
                *_packed([good, ("bad", [1.0, 2.0], [0, 1], 2, 1.0, 1.0, 7, 0.0)])
            )
        with pytest.raises(InvalidInstanceError, match="at least one server"):
            BatchLayout.from_columns(
                *_packed([good, ("bad", [1.0, 2.0], [0, 0], 0, 1.0, 1.0, 0, 0.0)])
            )

    def test_from_columns_refuses_bad_packing(self):
        names, t, srv, off, mserv, mu, lam = _packed(
            [_column_entry(k, make_instance([1.0, 2.0], [0, 1], m=2)) for k in "ab"]
        )
        for columns in (
            (t, srv[:-1], off, mserv, mu, lam),
            (t, srv, off, mserv[:1], mu, lam),
            (t, srv, [1, 3], mserv, mu, lam),
            (t, srv, [0, 0], mserv, mu, lam),
            (t, srv, [0, 6], mserv, mu, lam),
            (t[:0], srv[:0], off[:0], [], [], []),
        ):
            with pytest.raises(InvalidInstanceError, match="packed columns need"):
                BatchLayout.from_columns(names[: len(columns[2])], *columns)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_columns_rejects_nonfinite_times(self, bad):
        good = _column_entry("ok", make_instance([1.0, 2.0], [0, 1], m=2))
        for times in ([1.0, bad, 3.0], [1.0, bad]):
            entry = ("bad", times, [0, 1, 0][: len(times)], 2, 1.0, 1.0, 0, 0.0)
            with pytest.raises(
                InvalidInstanceError, match="'bad': request times must be finite"
            ):
                BatchLayout.from_columns(*_packed([good, entry]))

    def test_mixed_costs_and_fleets_in_one_batch(self):
        # Nothing in the layout assumes homogeneity across items: fleet
        # sizes, cost models and origins may all differ per item.
        items = {
            "small": make_instance([1.0, 2.0, 2.5], [0, 0, 0], m=1),
            "wide": ProblemInstance.from_arrays(
                np.asarray([0.5, 1.5, 2.5, 3.0]),
                np.asarray([4, 2, 0, 3]),
                num_servers=5,
                cost=CostModel(mu=0.3, lam=2.7),
                origin=4,
            ),
            "dense": ProblemInstance.from_arrays(
                np.linspace(1.0, 9.0, 17),
                np.arange(17) % 3,
                num_servers=3,
                cost=CostModel(mu=2.0, lam=0.1),
                origin=1,
            ),
        }
        per_item = {
            name: solve_offline(inst, kernel="frontier") for name, inst in items.items()
        }
        assert_batch_matches_frontier(solve_offline_batch(items), per_item)

    @pytest.mark.parametrize(
        "field, bad, match",
        [
            ("t", lambda a: a.astype(np.float32), "C kernel needs"),
            ("srv", lambda a: a.astype(np.int32), "C kernel needs"),
            ("mu", lambda a: a.astype(np.float32), "C kernel needs"),
            ("sigma", lambda a: np.repeat(a, 2)[::2], "C kernel needs"),
            ("off", lambda a: np.repeat(a, 2)[::2], "C kernel needs"),
            ("B", lambda a: a[:-1], "C kernel needs"),
            ("mu", lambda a: np.append(a, 1.0), "one entry per item"),
            ("mserv", edit(0, 0), "origin outside"),
            ("origin", edit(1, 3), "origin outside"),
            ("nreq", edit(1, 10), "request count outside"),
            ("off", edit(1, 3), "do not pack"),
            ("nreq", edit(1, 1), "do not pack"),
            ("soff", edit(1, 3), "server arena outside"),
            ("srv", edit(5, 2**20), "server id outside"),
            ("srv", edit(2, -1), "server id outside"),
            ("p", edit(5, 1), "predecessor outside"),
            ("p", edit(2, -2), "predecessor outside"),
        ],
        ids=[
            "float32-t",
            "int32-srv",
            "float32-mu",
            "strided-sigma",
            "strided-off",
            "short-B",
            "extra-mu",
            "no-servers",
            "origin-past-fleet",
            "count-past-total",
            "overlapping-slices",
            "unpacked-tail",
            "arena-past-end",
            "server-past-fleet",
            "negative-server",
            "predecessor-ahead",
            "predecessor-below-minus-one",
        ],
    )
    def test_bad_layout_column_rejected_before_c(self, no_c_sweep, field, bad, match):
        # The C sweep takes raw addresses and trusts every offset and
        # index in them: a column of the wrong dtype, a strided
        # (non-contiguous) one, one that is too short, or a value out
        # of range must raise ValueError before the library is called.
        layout = two_item_layout()
        setattr(layout, field, bad(getattr(layout, field)))
        with backend("c"), pytest.raises(ValueError, match=match):
            solve_layout(layout)

    def test_bad_layout_value_rejected_by_python_sweep(self):
        layout = two_item_layout()
        layout.srv = edit(5, 2**20)(layout.srv)
        with backend("python"), pytest.raises(ValueError, match="server id outside"):
            solve_layout(layout)

    def test_solve_layout_results_carry_no_instance(self):
        items = {"a": make_instance([1.0, 2.0], [0, 1], m=2)}
        results = solve_layout(BatchLayout.from_instances(items))
        assert results[0].instance is None
        assert results[0].solver == "batch-dp"
