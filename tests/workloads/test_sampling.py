"""Hash-sampled trace solving tests: determinism, round-trips, coverage.

The two load-bearing properties:

* **byte-determinism** — the sampled container's bytes depend only on
  the row *set* and ``(rate, seed, window)``, never on row order,
  interning order, chunking, or the host process;
* **calibration** — ``estimate_offline_cost``'s interval covers the
  exact full-trace solve at (close to) the stated level on traces small
  enough to solve exactly.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import InvalidInstanceError, MultiItemInstance, solve_offline_multi
from repro.workloads import (
    ColumnarTrace,
    TraceRecord,
    estimate_offline_cost,
    exact_offline_cost,
    item_hash,
    mine_instance_columnar,
    online_trace_costs,
    sample_columnar,
    sample_trace,
    sampled_items,
    solve_trace_costs,
    zipf_weights,
)
from repro.workloads.sampling import HASH_SPACE, SampleStats

from ..offline.test_kernels import BACKENDS, backend

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_trace(rows=4000, items=60, m=5, seed=0, user=-1):
    rng = np.random.default_rng(seed)
    ids = rng.choice(items, size=rows, p=zipf_weights(items, 1.0))
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.01, size=rows)),
        rng.integers(0, m, size=rows),
        np.full(rows, user),
        ids,
        tuple(f"item-{k:03d}" for k in range(items)),
    )


def permuted_copy(trace, seed=0):
    """Same row set, different row order AND different interning order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(trace.rows)
    n_items = len(trace.item_table)
    reorder = rng.permutation(n_items)  # new id -> old id
    old_to_new = np.empty(n_items, dtype=np.int64)
    old_to_new[reorder] = np.arange(n_items)
    return ColumnarTrace(
        np.asarray(trace.times)[perm],
        np.asarray(trace.servers)[perm],
        np.asarray(trace.users)[perm],
        old_to_new[np.asarray(trace.item_ids)[perm]],
        tuple(trace.item_table[int(i)] for i in reorder),
    )


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestItemHash:
    def test_stable_known_properties(self):
        h = item_hash("item-000")
        assert h == item_hash("item-000")  # deterministic
        assert 0 <= h < HASH_SPACE
        assert item_hash("item-000") != item_hash("item-001")
        assert item_hash("item-000", seed=1) != item_hash("item-000", seed=2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            item_hash("x", seed=-1)

    def test_mask_edges(self):
        table = tuple(f"i{k}" for k in range(50))
        assert sampled_items(table, 1.0).all()
        assert not sampled_items(table, 0.0).any()
        assert sampled_items((), 0.5).shape == (0,)
        with pytest.raises(ValueError, match="rate"):
            sampled_items(table, 1.5)

    def test_rate_monotone_nested(self):
        table = tuple(f"i{k}" for k in range(300))
        prev = np.zeros(len(table), dtype=bool)
        for rate in (0.05, 0.1, 0.3, 0.7, 1.0):
            mask = sampled_items(table, rate, seed=3)
            assert (prev <= mask).all()  # lower-rate sample is a subset
            prev = mask

    def test_rate_hits_expected_fraction(self):
        table = tuple(f"i{k}" for k in range(4000))
        frac = sampled_items(table, 0.25, seed=0).mean()
        assert 0.2 < frac < 0.3


class TestSampleTrace:
    def test_sampled_item_set_matches_mask(self):
        trace = make_trace()
        out = sample_trace(trace, 0.3, seed=5)
        expect = {
            name
            for name, keep in zip(
                trace.item_table, sampled_items(trace.item_table, 0.3, 5)
            )
            if keep
        }
        assert set(out.item_table) == expect
        assert out.rows == sum(
            int((np.asarray(trace.item_ids) == i).sum())
            for i, name in enumerate(trace.item_table)
            if name in expect
        )

    def test_window_filters_rows(self):
        trace = make_trace()
        t = np.asarray(trace.times)
        t0, t1 = float(t[100]), float(t[900])
        out = sample_trace(trace, 1.0, window=(t0, t1))
        ot = np.asarray(out.times)
        assert ot.min() >= t0 and ot.max() < t1
        assert out.rows == int(((t >= t0) & (t < t1)).sum())
        with pytest.raises(ValueError, match="window"):
            sample_trace(trace, 1.0, window=(t1, t0))

    def test_canonical_order_sorted_by_time(self):
        out = sample_trace(make_trace(), 0.5, seed=1)
        t = np.asarray(out.times)
        assert (np.diff(t) >= 0).all()

    def test_empty_sample_is_valid_trace(self):
        out = sample_trace(make_trace(rows=50, items=4), 0.0)
        assert out.rows == 0 and out.item_table == ()

    def test_stats_payload(self, tmp_path):
        trace = make_trace()
        stats = sample_columnar(trace, tmp_path / "s.col", 0.3, seed=5)
        assert isinstance(stats, SampleStats)
        assert stats.rows_in == trace.rows
        assert stats.items_in == len(trace.item_table)
        assert 0 < stats.row_fraction < 1
        out = ColumnarTrace.open(tmp_path / "s.col")
        assert out.rows == stats.rows_kept
        assert len(out.item_table) == stats.items_kept

    def test_sampled_trace_round_trips_through_solvers(self):
        """A sampled trace is a perfectly ordinary columnar trace."""
        out = sample_trace(make_trace(), 0.2, seed=2)
        inst = mine_instance_columnar(out, item=out.item_table[0])
        assert inst.n >= 1
        svc = MultiItemInstance.from_columnar(out)
        res = solve_offline_multi(svc)
        assert res.total_cost > 0
        # and per-item costs agree with the direct columnar solve
        costs = solve_trace_costs(out)
        for name, r in res.per_item.items():
            assert costs[name] == r.optimal_cost


class TestByteDeterminism:
    @given(data=st.data())
    @settings(**_SETTINGS)
    def test_permutation_and_chunking_invariance(
        self, data, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("det")
        n = data.draw(st.integers(min_value=1, max_value=120), label="rows")
        rate = data.draw(
            st.sampled_from([0.1, 0.3, 0.6, 1.0]), label="rate"
        )
        seed = data.draw(st.integers(min_value=0, max_value=5), label="seed")
        pseed = data.draw(
            st.integers(min_value=0, max_value=2**31), label="perm"
        )
        chunk = data.draw(
            st.sampled_from([1, 3, 7, 1 << 20]), label="chunk"
        )
        trace = make_trace(rows=n, items=13, m=4, seed=seed)
        other = permuted_copy(trace, seed=pseed)
        sample_columnar(trace, tmp / "a.col", rate, seed=1)
        sample_columnar(other, tmp / "b.col", rate, seed=1, chunk_rows=chunk)
        assert sha(tmp / "a.col") == sha(tmp / "b.col")

    def test_tied_timestamps_still_deterministic(self, tmp_path):
        recs = [
            TraceRecord(1.0, s, user=u, item=i)
            for i in ("a", "b", "c")
            for s in (0, 1)
            for u in (3, 4)
        ]
        a = ColumnarTrace.from_records(recs)
        b = ColumnarTrace.from_records(recs[::-1])
        sample_columnar(a, tmp_path / "a.col", 1.0, seed=0)
        sample_columnar(b, tmp_path / "b.col", 1.0, seed=0)
        assert sha(tmp_path / "a.col") == sha(tmp_path / "b.col")

    def test_subprocess_boundary(self, tmp_path):
        """A different process (fresh hash salt, CLI path) produces the
        byte-identical sampled container."""
        trace = make_trace(rows=600, items=20)
        src = tmp_path / "src.col"
        permuted_copy(trace, seed=9).save(src)
        sample_columnar(trace, tmp_path / "local.col", 0.4, seed=7)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "sample",
                str(src),
                str(tmp_path / "remote.col"),
                "--rate",
                "0.4",
                "--seed",
                "7",
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert sha(tmp_path / "local.col") == sha(tmp_path / "remote.col")

    def test_window_part_of_the_key(self, tmp_path):
        trace = make_trace()
        t = np.asarray(trace.times)
        sample_columnar(trace, tmp_path / "a.col", 0.5, seed=1)
        sample_columnar(
            trace,
            tmp_path / "b.col",
            0.5,
            seed=1,
            window=(float(t[0]), float(t[-1]) + 1.0),
        )
        # full-covering window keeps every row -> identical bytes
        assert sha(tmp_path / "a.col") == sha(tmp_path / "b.col")


class TestSolveTraceCosts:
    def test_bit_identical_to_service_layer(self):
        trace = make_trace(rows=3000, items=40)
        svc = MultiItemInstance.from_columnar(trace)
        res = solve_offline_multi(svc)
        costs = solve_trace_costs(trace)
        assert set(costs) == set(res.per_item)
        for name, r in res.per_item.items():
            assert costs[name] == r.optimal_cost
        assert exact_offline_cost(trace) == res.total_cost

    def test_mask_selects_items(self):
        trace = make_trace(rows=800, items=12)
        mask = np.zeros(12, dtype=bool)
        mask[[2, 5]] = True
        costs = solve_trace_costs(trace, items=mask)
        assert set(costs) == {"item-002", "item-005"}

    def test_masked_solve_keeps_full_fleet(self):
        """num_servers defaults to the *full-trace* fleet so masked
        costs stay comparable to the unmasked solve."""
        trace = make_trace(rows=800, items=12, m=6)
        full = solve_trace_costs(trace)
        mask = np.zeros(12, dtype=bool)
        mask[3] = True
        part = solve_trace_costs(trace, items=mask)
        assert part["item-003"] == full["item-003"]

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("call", [solve_trace_costs, online_trace_costs])
    @pytest.mark.parametrize(
        "mask, dtype, shape",
        [
            (np.array([1, 0, 1]), "int64", "(3,)"),
            (np.array([True]), "bool", "(1,)"),
            (np.array([[True, False, True]]), "bool", "(1, 3)"),
            ("abc", "<U3", "()"),
        ],
        ids=["int", "short", "2d", "str"],
    )
    def test_non_boolean_mask_refused(self, name, call, mask, dtype, shape):
        # An integer array would index rows, not items, through the
        # numpy pack, and answer for the wrong items without an error.
        trace = ColumnarTrace(
            np.arange(1.0, 7.0), np.array([0, 1, 0, 1, 0, 1]), np.zeros(6),
            np.array([0, 1, 2, 0, 1, 2]), "abc",
        )
        with backend(name):
            with pytest.raises(ValueError, match="boolean mask over the 3") as err:
                call(trace, items=mask)
            assert f"dtype {dtype} with shape {shape}" in str(err.value)
            want = call(trace, items=np.array([True, False, True]))
            assert set(want) == {"a", "c"}
            assert call(trace, items=[True, False, True]) == want

    def test_empty_trace(self):
        empty = ColumnarTrace(
            np.empty(0), np.empty(0, "<i4"), np.empty(0, "<i4"),
            np.empty(0, "<i4"), (),
        )
        assert solve_trace_costs(empty) == {}


class TestItemIdsOutsideTheTable:
    """A row whose item id does not index the item table is refused by
    every entry point, naming the first such row, on both backends.

    An id of -1 used to read ``item_table[-1]`` (two layout items named
    ``'b'``, one cost lost in the dict), and one past the table raised a
    bare ``IndexError`` or numpy's ``bincount`` error."""

    CALLS = {
        "solve": lambda tr, tmp: solve_trace_costs(tr),
        "solve-masked": lambda tr, tmp: solve_trace_costs(
            tr, items=np.array([True, False])
        ),
        "solve-chunked": lambda tr, tmp: solve_trace_costs(tr, chunk_rows=2),
        "online": lambda tr, tmp: online_trace_costs(tr),
        "exact": lambda tr, tmp: exact_offline_cost(tr),
        "estimate": lambda tr, tmp: estimate_offline_cost(tr, rate=0.5),
        "sample": lambda tr, tmp: sample_trace(tr, 1.0),
        "sample-columnar": lambda tr, tmp: sample_columnar(tr, tmp / "s.col", 1.0),
    }

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize(
        "ids, row, bad",
        [([0, 1, -1, 1, 0, -1], 2, -1), ([0, 1, 0, 2, 0, 1], 3, 2)],
        ids=["negative", "past-the-table"],
    )
    def test_refused(self, name, call, ids, row, bad, tmp_path):
        trace = ColumnarTrace(
            np.arange(1.0, 7.0), [0, 1, 0, 1, 0, 1], np.full(6, -1), ids, ("a", "b")
        )
        with backend(name), pytest.raises(InvalidInstanceError) as err:
            self.CALLS[call](trace, tmp_path)
        assert str(err.value) == (
            f"trace row {row} has item id {bad}, outside the item table [0, 2)"
        )
        assert not (tmp_path / "s.col").exists()


class TestEstimateOfflineCost:
    def test_rate_one_is_exact(self):
        trace = make_trace(rows=2000, items=30)
        exact = exact_offline_cost(trace)
        est = estimate_offline_cost(trace, rate=1.0, top_exact=4)
        assert est.estimate == pytest.approx(exact, rel=1e-12)
        assert est.ci_lo == est.ci_hi == est.estimate
        assert est.solve_fraction == 1.0

    def test_all_head_is_exact(self):
        trace = make_trace(rows=2000, items=30)
        exact = exact_offline_cost(trace)
        est = estimate_offline_cost(trace, rate=0.5, top_exact=30)
        assert est.estimate == pytest.approx(exact, rel=1e-12)
        assert est.ci_lo == est.ci_hi == est.estimate

    def test_tuple_unpacking_contract(self):
        est = estimate_offline_cost(make_trace(), rate=0.5, top_exact=8)
        e, lo, hi, frac = est
        assert (e, lo, hi, frac) == (
            est.estimate, est.ci_lo, est.ci_hi, est.solve_fraction
        )
        assert lo <= e <= hi
        assert 0 < frac <= 1

    def test_validation_errors(self):
        trace = make_trace(rows=100, items=10)
        with pytest.raises(ValueError, match="rate"):
            estimate_offline_cost(trace, rate=0.0)
        with pytest.raises(ValueError, match="confidence"):
            estimate_offline_cost(trace, rate=0.5, confidence=1.5)
        with pytest.raises(ValueError, match="top_exact"):
            estimate_offline_cost(trace, rate=0.5, top_exact=-1)
        empty = ColumnarTrace(
            np.empty(0), np.empty(0, "<i4"), np.empty(0, "<i4"),
            np.empty(0, "<i4"), (),
        )
        with pytest.raises(InvalidInstanceError, match="empty"):
            estimate_offline_cost(empty, rate=0.5)

    def test_empty_tail_sample_raises(self):
        # One tail item whose hash is above the tiny rate threshold.
        trace = make_trace(rows=400, items=6)
        with pytest.raises(ValueError, match="selected none"):
            estimate_offline_cost(trace, rate=1e-12, seed=0, top_exact=2)

    def test_estimate_deterministic(self):
        trace = make_trace(rows=1500, items=40)
        a = estimate_offline_cost(trace, rate=0.3, seed=4, top_exact=8)
        b = estimate_offline_cost(trace, rate=0.3, seed=4, top_exact=8)
        assert (a.estimate, a.ci_lo, a.ci_hi) == (b.estimate, b.ci_lo, b.ci_hi)

    def test_solve_fraction_shrinks_with_rate(self):
        trace = make_trace(rows=4000, items=80)
        fr = [
            estimate_offline_cost(
                trace, rate=r, seed=1, top_exact=8
            ).solve_fraction
            for r in (0.1, 0.4, 1.0)
        ]
        assert fr[0] < fr[2] and fr[1] <= fr[2]

    def test_ci_covers_exact_at_stated_level(self):
        """Empirical coverage over many hash seeds stays near nominal.

        95% nominal; the union percentile/bootstrap-t interval measures
        ~90-96% on Zipf tails with >= 10 sampled items, so gate at 80%
        to stay flake-free while still catching calibration regressions
        (the broken pure scale-up interval measured ~10-20%).
        """
        trace = make_trace(rows=6000, items=120, m=5, seed=11)
        exact = exact_offline_cost(trace)
        covered = total = 0
        for seed in range(30):
            try:
                est = estimate_offline_cost(
                    trace, rate=0.25, seed=seed, top_exact=24
                )
            except ValueError:
                continue
            total += 1
            covered += est.covers(exact)
            assert abs(est.estimate - exact) / exact < 0.5
        assert total >= 25
        assert covered / total >= 0.8

    def test_estimate_close_on_zipf_trace(self):
        trace = make_trace(rows=8000, items=100, seed=3)
        exact = exact_offline_cost(trace)
        est = estimate_offline_cost(trace, rate=0.3, seed=0, top_exact=32)
        assert abs(est.estimate - exact) / exact < 0.1
        assert est.rows_solved < trace.rows
