"""Workload profiler tests: counts, histograms, burstiness, predictability.

The structural guarantee under test: one memmap-native sweep, never a
``TraceRecord`` materialisation, and per-item statistics that match
their brute-force definitions.
"""

import json
import math
import re

import numpy as np
import pytest

from repro import InvalidInstanceError
from repro.kernels.prescan import MAX_SERVERS
from repro.workloads import (
    ColumnarTrace,
    TraceRecord,
    WorkloadStats,
    profile_trace,
    write_columnar,
    zipf_weights,
)

from ..offline.test_kernels import BACKENDS, backend


def make_trace(rows=5000, items=50, m=6, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.choice(items, size=rows, p=zipf_weights(items, 1.0))
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.01, size=rows)),
        rng.integers(0, m, size=rows),
        np.full(rows, -1),
        ids,
        tuple(f"item-{k:03d}" for k in range(items)),
    )


class TestCountsAndShape:
    def test_counts_match_bincount(self):
        trace = make_trace()
        stats = profile_trace(trace)
        np.testing.assert_array_equal(
            stats.item_counts,
            np.bincount(np.asarray(trace.item_ids), minlength=50),
        )
        np.testing.assert_array_equal(
            stats.server_counts, np.bincount(np.asarray(trace.servers))
        )
        assert stats.rows == trace.rows
        assert stats.num_items == 50
        assert stats.num_servers == 6

    def test_time_range(self):
        trace = make_trace()
        t = np.asarray(trace.times)
        stats = profile_trace(trace)
        assert stats.t_start == float(t.min())
        assert stats.t_end == float(t.max())
        assert stats.duration == pytest.approx(float(t.max() - t.min()))

    def test_chunked_sweep_matches_one_shot(self, tmp_path):
        trace = make_trace(rows=1000, items=20)
        path = tmp_path / "t.col"
        trace.save(path)
        a = profile_trace(trace, chunk_rows=64)
        b = profile_trace(path)
        np.testing.assert_array_equal(a.item_counts, b.item_counts)
        np.testing.assert_array_equal(
            a.interarrival_hist, b.interarrival_hist
        )
        assert a.interarrival_mean == b.interarrival_mean
        assert a.zipf_exponent == b.zipf_exponent

    def test_empty_trace_rejected(self):
        empty = ColumnarTrace(
            np.empty(0), np.empty(0, "<i4"), np.empty(0, "<i4"),
            np.empty(0, "<i4"), (),
        )
        with pytest.raises(InvalidInstanceError, match="empty"):
            profile_trace(empty)


def six_rows(times=None, servers=None, ids=None):
    """A 6-row trace over items ``('a', 'b')`` with one field overridden."""
    return ColumnarTrace(
        np.arange(6.0) if times is None else np.array(times),
        np.zeros(6) if servers is None else np.array(servers),
        np.full(6, -1),
        np.array([0, 1, 0, 1, 0, 1]) if ids is None else np.array(ids),
        ("a", "b"),
    )


class TestInputChecks:
    """Every row is checked before anything is counted or sized by it,
    on both backends, and the first bad row is named."""

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, 2, 7])
    def test_item_id_outside_the_table(self, name, bad):
        trace = six_rows(ids=[0, 1, bad, 1, 0, bad])
        msg = f"trace row 2 has item id {bad}, outside the item table [0, 2)"
        with backend(name), pytest.raises(InvalidInstanceError, match=re.escape(msg)):
            profile_trace(trace)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, MAX_SERVERS])
    def test_server_id_outside_the_fleet_bound(self, name, bad):
        trace = six_rows(servers=[0, 1, 0, bad, 1, 0])
        msg = f"trace row 3 has server id {bad}, outside [0, {MAX_SERVERS})"
        with backend(name), pytest.raises(InvalidInstanceError, match=re.escape(msg)):
            profile_trace(trace)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("chunk_rows", [1 << 20, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, name, chunk_rows, bad):
        # One NaN used to set t_start by chunk: inf, 0.5 or 3.0.
        trace = six_rows(times=[0.5, 1.0, bad, 3.0, 4.0, 5.0])
        msg = f"trace row 2 has time {bad!r}; times must be finite"
        with backend(name), pytest.raises(InvalidInstanceError, match=re.escape(msg)):
            profile_trace(trace, chunk_rows=chunk_rows)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_first_bad_row_wins(self, name):
        trace = six_rows(times=[0.0, 1.0, 2.0, 3.0, math.nan, 5.0], ids=[0, 1, 0, -1, 0, 1])
        with backend(name), pytest.raises(InvalidInstanceError, match="trace row 3 "):
            profile_trace(trace, chunk_rows=4)

    @pytest.mark.parametrize("chunk_rows", [0, -3])
    def test_chunk_rows_below_one(self, chunk_rows):
        with pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            profile_trace(six_rows(), chunk_rows=chunk_rows)


class TestInterarrivals:
    def test_hist_counts_every_same_item_gap(self):
        trace = make_trace()
        stats = profile_trace(trace)
        ids = np.asarray(trace.item_ids)
        present = np.unique(ids).size
        assert int(stats.interarrival_hist.sum()) == trace.rows - present

    def test_mean_matches_bruteforce(self):
        trace = make_trace(rows=800, items=10)
        stats = profile_trace(trace)
        t = np.asarray(trace.times)
        ids = np.asarray(trace.item_ids)
        gaps = []
        for i in np.unique(ids):
            ti = np.sort(t[ids == i])
            gaps.extend(np.diff(ti))
        assert stats.interarrival_mean == pytest.approx(np.mean(gaps))

    def test_single_request_items_no_gaps(self):
        recs = [TraceRecord(float(i), 0, item=f"it{i}") for i in range(5)]
        stats = profile_trace(ColumnarTrace.from_records(recs))
        assert int(stats.interarrival_hist.sum()) == 0
        assert math.isnan(stats.interarrival_mean)


class TestBurstiness:
    def test_periodic_item_near_minus_one(self):
        recs = [TraceRecord(float(i), 0, item="tick") for i in range(200)]
        stats = profile_trace(ColumnarTrace.from_records(recs))
        assert stats.burstiness[0] == pytest.approx(-1.0, abs=1e-9)

    def test_poisson_near_zero(self):
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.exponential(1.0, size=4000))
        trace = ColumnarTrace(
            times,
            np.zeros(4000, "<i4"),
            np.full(4000, -1, "<i4"),
            np.zeros(4000, "<i4"),
            ("only",),
        )
        stats = profile_trace(trace)
        assert abs(stats.burstiness[0]) < 0.1

    def test_undefined_for_sparse_items(self):
        recs = [
            TraceRecord(0.0, 0, item="once"),
            TraceRecord(1.0, 0, item="twice"),
            TraceRecord(2.0, 0, item="twice"),
        ]
        stats = profile_trace(ColumnarTrace.from_records(recs))
        by = dict(zip(stats.item_table, stats.burstiness))
        assert math.isnan(by["once"])  # no gaps at all
        assert math.isnan(by["twice"])  # one gap: no variance estimate


class TestPopularity:
    def test_zipf_exponent_recovered(self):
        stats = profile_trace(make_trace(rows=20000, items=100))
        assert 0.7 < stats.zipf_exponent < 1.3

    def test_top_shares(self):
        trace = make_trace()
        stats = profile_trace(trace)
        counts = np.sort(np.bincount(np.asarray(trace.item_ids)))[::-1]
        assert stats.top1_share == pytest.approx(counts[0] / counts.sum())
        assert stats.top10_share == pytest.approx(
            counts[:10].sum() / counts.sum()
        )
        assert stats.top1_share <= stats.top10_share <= 1.0

    def test_top_items_sorted_by_count(self):
        stats = profile_trace(make_trace(), top_items=8)
        reqs = [it.requests for it in stats.top_items]
        assert reqs == sorted(reqs, reverse=True)
        assert len(stats.top_items) == 8


class TestPredictabilityHookup:
    def test_constant_server_fully_predictable(self):
        recs = [TraceRecord(float(i), 2, item="loyal") for i in range(100)]
        recs += [TraceRecord(float(i) + 0.5, i % 4, item="other") for i in range(100)]
        stats = profile_trace(
            ColumnarTrace.from_records(recs), predictability_items=2
        )
        by = {it.name: it for it in stats.top_items}
        assert by["loyal"].entropy_rate == 0.0
        assert by["loyal"].max_predictability == 1.0
        assert by["other"].max_predictability < 1.0

    def test_only_requested_items_profiled(self):
        stats = profile_trace(make_trace(), predictability_items=3, top_items=6)
        profiled = [
            it for it in stats.top_items if it.max_predictability is not None
        ]
        assert len(profiled) == 3
        assert not math.isnan(stats.mean_max_predictability)

    def test_cap_limits_sequence_length(self):
        # A cap far below the item's request count must still work.
        stats = profile_trace(
            make_trace(rows=3000, items=5),
            predictability_items=2,
            predictability_cap=50,
        )
        assert stats.top_items[0].entropy_rate is not None


class TestNoRecordMaterialisation:
    def test_to_records_never_called(self, monkeypatch):
        def boom(self):
            raise AssertionError("profiler must not materialise records")

        monkeypatch.setattr(ColumnarTrace, "to_records", boom)
        stats = profile_trace(make_trace(rows=500, items=10))
        assert stats.rows == 500

    def test_trace_record_never_constructed(self, monkeypatch):
        import repro.workloads.profiler as profiler_mod

        assert not hasattr(profiler_mod, "TraceRecord")


class TestSerialisation:
    def test_to_dict_json_safe(self):
        stats = profile_trace(make_trace())
        payload = json.dumps(stats.to_dict())
        back = json.loads(payload)
        assert back["rows"] == stats.rows
        assert len(back["interarrival"]["hist"]) == 48

    def test_nan_becomes_null(self):
        recs = [TraceRecord(float(i), 0, item=f"it{i}") for i in range(4)]
        stats = profile_trace(ColumnarTrace.from_records(recs))
        back = json.loads(json.dumps(stats.to_dict()))
        assert back["interarrival"]["mean"] is None

    def test_describe_renders(self):
        text = profile_trace(make_trace()).describe(top=5)
        assert "zipf_exponent" in text
        assert "item-0" in text

    def test_path_input(self, tmp_path):
        path = tmp_path / "t.col"
        write_columnar(
            [TraceRecord(float(i), i % 2, item="x") for i in range(10)], path
        )
        stats = profile_trace(path)
        assert isinstance(stats, WorkloadStats)
        assert stats.rows == 10

    def test_closed_trace_rejected(self, tmp_path):
        path = tmp_path / "t.col"
        make_trace(rows=100, items=5).save(path)
        trace = ColumnarTrace.open(path)
        trace.close()
        with pytest.raises(ValueError, match="closed"):
            profile_trace(trace)
