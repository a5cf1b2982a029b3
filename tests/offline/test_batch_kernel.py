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

from repro import CostModel, ProblemInstance
from repro.core.types import InvalidInstanceError
from repro.kernels import solve_offline_frontier
from repro.kernels.batch import (
    BATCH_SWEEPS,
    BatchLayout,
    solve_layout,
    solve_offline_batch,
)
from repro.offline.streaming import StreamingSolver

from ..conftest import instances, make_instance
from .test_kernels import BACKENDS, assert_bit_identical, tie_heavy_instances

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def _column_entry(name, inst):
    """The raw-column tuple the shard workers read for one item."""
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


def assert_batch_matches_frontier(batch, per_item):
    for name, res in batch.items():
        assert_bit_identical(per_item[name], res)


@st.composite
def instance_batches(draw, min_items: int = 1, max_items: int = 5):
    """Ragged batches: items with independent n, m, costs and origins."""
    count = draw(st.integers(min_value=min_items, max_value=max_items))
    return {f"item-{k}": draw(instances()) for k in range(count)}


class TestBatchVsFrontier:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(items=instance_batches())
    @settings(**_SETTINGS)
    def test_ragged_batches(self, backend, items):
        per_item = {
            name: solve_offline_frontier(inst) for name, inst in items.items()
        }
        batch = solve_offline_batch(items, kernel=backend)
        assert list(batch) == list(items)  # input key order preserved
        assert_batch_matches_frontier(batch, per_item)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(items=st.lists(tie_heavy_instances(), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_tie_heavy_batches(self, backend, items):
        # Integer gaps with mu = lam = 1: many exactly-equal D candidates,
        # exercising the (value, server-id) lexicographic argmin.
        named = {f"item-{k}": inst for k, inst in enumerate(items)}
        per_item = {
            name: solve_offline_frontier(inst) for name, inst in named.items()
        }
        assert_batch_matches_frontier(
            solve_offline_batch(named, kernel=backend), per_item
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(items=st.lists(instances(max_m=1, max_n=25), min_size=1, max_size=4))
    @settings(**_SETTINGS)
    def test_single_server_batches(self, backend, items):
        named = {f"item-{k}": inst for k, inst in enumerate(items)}
        per_item = {
            name: solve_offline_frontier(inst) for name, inst in named.items()
        }
        assert_batch_matches_frontier(
            solve_offline_batch(named, kernel=backend), per_item
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(inst=instances())
    @settings(**_SETTINGS)
    def test_single_item_batch(self, backend, inst):
        batch = solve_offline_batch({"only": inst}, kernel=backend)
        assert_bit_identical(solve_offline_frontier(inst), batch["only"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_timestamps_across_items(self, backend):
        # Per-item times are strictly increasing, but *across* items the
        # very same timestamps repeat — the packed columns must never mix
        # neighbouring items up.
        times = [1.0, 2.0, 3.0, 4.0]
        items = {
            f"item-{k}": make_instance(times, [k % 3, (k + 1) % 3, 0, 2], m=3)
            for k in range(5)
        }
        per_item = {
            name: solve_offline_frontier(inst) for name, inst in items.items()
        }
        assert_batch_matches_frontier(
            solve_offline_batch(items, kernel=backend), per_item
        )

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
        a = solve_offline_batch(items, kernel="c")
        b = solve_offline_batch(items, kernel="python")
        for name in items:
            assert_bit_identical(a[name], b[name])

    def test_empty_batch(self):
        assert solve_offline_batch({}) == {}
        with pytest.raises(ValueError, match="at least one item"):
            BatchLayout.from_instances({})

    def test_bad_sweep_kernel_rejected(self):
        inst = make_instance([1.0], [0], m=1)
        for bad in ("warp", "batch"):
            with pytest.raises(ValueError, match="batch sweep kernel"):
                solve_offline_batch({"x": inst}, kernel=bad)
            assert bad not in BATCH_SWEEPS


class TestStreamingPrefixEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(inst=instances())
    @settings(**_SETTINGS)
    def test_batch_equals_streaming_at_every_prefix(self, backend, inst):
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
            batch = solve_offline_batch({"p": prefix}, kernel=backend)["p"]
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
        # The raw-column pre-scan (one concatenated lexsort + per-item
        # cumsum) must reproduce the instances' own pre-scan columns
        # bit-for-bit — this is what lets shard workers skip instance
        # construction entirely.
        by_inst = BatchLayout.from_instances(items)
        by_cols = BatchLayout.from_columns(
            [_column_entry(name, inst) for name, inst in items.items()]
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
                [good, ("bad", [1.0, 1.0], [0, 1], 2, 1.0, 1.0, 0, 0.0)]
            )
        with pytest.raises(InvalidInstanceError, match="server ids"):
            BatchLayout.from_columns(
                [good, ("bad", [1.0, 2.0], [0, 5], 2, 1.0, 1.0, 0, 0.0)]
            )
        with pytest.raises(InvalidInstanceError, match="origin"):
            BatchLayout.from_columns(
                [good, ("bad", [1.0, 2.0], [0, 1], 2, 1.0, 1.0, 7, 0.0)]
            )
        with pytest.raises(InvalidInstanceError, match="at least one server"):
            BatchLayout.from_columns(
                [good, ("bad", [1.0, 2.0], [0, 0], 0, 1.0, 1.0, 0, 0.0)]
            )

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
            name: solve_offline_frontier(inst) for name, inst in items.items()
        }
        assert_batch_matches_frontier(solve_offline_batch(items), per_item)

    def test_solve_layout_results_carry_no_instance(self):
        items = {"a": make_instance([1.0, 2.0], [0, 1], m=2)}
        results = solve_layout(BatchLayout.from_instances(items))
        assert results[0].instance is None
        assert results[0].solver == "batch-dp"
