"""Differential suite for the profiler's compiled passes.

``profile_trace`` runs its item-major pass in C (``kernels/_profile.c``)
when the result provably equals the numpy path's, which runs otherwise
and is the oracle here.  Every comparison is of dtypes and bytes for
arrays, of ``repr`` for floats, of ``to_dict()`` as JSON, or of the
exception type and message:

* ``profile_trace`` on traces with ties, falls, single-request items,
  unused ids, one item, one server, predictability caps below the
  counts, one bin and several chunk sizes;
* the binning kernel against ``searchsorted`` on gaps at, and one ulp
  either side of, every edge;
* on a time-ordered trace the compiled pass and the compiled LPNF take
  the whole profile, so a silent fallback cannot hide behind a
  time-ordered benchmark log.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.types import InvalidInstanceError
from repro.kernels import batch, batch_sweep_backend
from repro.workloads import WorkloadStats, predictability, profile_trace, profiler
from repro.workloads.columnar import ColumnarTrace

from ..offline.test_kernels import BACKENDS, backend

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_c = pytest.mark.skipif(
    batch_sweep_backend() != "c", reason="no C compiler: the compiled paths cannot run"
)

#: Free times: falls, repeats and both zeros (``-0.0 - 0.0`` is a
#: ``-0.0`` gap).
_TIMES = [0.0, -0.0, 0.5, 1.0, 2.0, -1.0, 1e-300, 3.25]


@st.composite
def traces(draw):
    """A small trace and the keyword arguments of one profile."""
    size = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["rising", "ties", "free"]))
    if shape == "free":
        times = draw(st.lists(st.sampled_from(_TIMES), min_size=rows, max_size=rows))
    else:
        low = 0.0 if shape == "ties" else 1e-3
        gaps = draw(
            st.lists(st.sampled_from([low, 0.25, 1.0, 7.5]), min_size=rows, max_size=rows)
        )
        times = (draw(st.sampled_from([0.0, -4.0, 1e6])) + np.cumsum(gaps)).tolist()
    if draw(st.integers(0, 4)):
        top = draw(st.integers(min_value=0, max_value=size - 1))  # leaves ids unused
        ids = draw(st.lists(st.integers(0, top), min_size=rows, max_size=rows))
    else:
        ids = [draw(st.integers(0, size - 1))] * rows  # one item
    m = draw(st.sampled_from([1, 1, 2, 3, 6]))
    servers = draw(st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows))
    trace = ColumnarTrace(
        np.array(times, dtype=np.float64),
        np.array(servers),
        np.full(rows, -1),
        np.array(ids),
        tuple(f"item-{k}" for k in range(size)),
    )
    kwargs = dict(
        bins=draw(st.sampled_from([1, 2, 5, 48])),
        predictability_items=draw(st.sampled_from([0, 1, 3, 8])),
        predictability_cap=draw(st.sampled_from([0, 1, 2, 5, 4000])),
        top_items=draw(st.sampled_from([0, 2, 10])),
        chunk_rows=draw(st.sampled_from([1, 3, 7, 1 << 20])),
    )
    return trace, kwargs


def outcome(trace, kwargs):
    """``("ok", stats)`` or ``("raised", type, message)`` of one profile."""
    try:
        return ("ok", profile_trace(trace, **kwargs))
    except (InvalidInstanceError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def profile_on(name, trace, kwargs):
    with backend(name):
        return outcome(trace, kwargs)


def same_value(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert type(b) is float and repr(a) == repr(b)
    else:
        assert a == b


def same_stats(a, b):
    for f in dataclasses.fields(WorkloadStats):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "top_items":
            assert [repr(row) for row in x] == [repr(row) for row in y]
        else:
            same_value(x, y)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def same_outcomes(got, want):
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
    else:
        same_stats(got[1], want[1])


def falls(trace):
    """Whether some item's times fail ``>=`` in row order."""
    last = {}
    for t, k in zip(trace.times.tolist(), trace.item_ids.tolist()):
        if k in last and not t >= last[k]:
            return True
        last[k] = t
    return False


class TestProfileTrace:
    @pytest.mark.parametrize("name", BACKENDS)
    @given(traces())
    @settings(**_SETTINGS)
    def test_matches_numpy(self, name, case):
        same_outcomes(profile_on(name, *case), profile_on("python", *case))

    @needs_c
    @given(traces())
    @settings(**_SETTINGS)
    def test_compiled_scan_declines_only_falls(self, case):
        # The compiled pass takes every trace whose items do not fall,
        # and then hands on exactly the numpy pass's arrays.
        trace, kw = case
        args = (trace, kw["bins"], kw["predictability_items"], kw["predictability_cap"])
        with backend("c"):
            got = profiler._scan_c(*args)
        if falls(trace):
            assert got is None
            return
        with backend("python"):
            want = profiler._scan_numpy(*args, kw["chunk_rows"])
        assert got is not None
        for field in ("item_counts", "gaps", "edges", "hist"):
            same_value(getattr(got, field), getattr(want, field))
        # Without any gap, np.bincount(weights=) returns int64 zeros; the
        # profile only divides them, so the values are what must agree.
        for field in ("gap_sum", "gap_sq"):
            same_value(getattr(got, field), getattr(want, field).astype(np.float64))
        assert got.sequences.keys() == want.sequences.keys()
        for k in want.sequences:
            same_value(got.sequences[k], want.sequences[k])

    @pytest.mark.parametrize("name", BACKENDS)
    def test_strided_columns_take_numpy(self, name):
        trace = ColumnarTrace(
            np.arange(16.0)[::2], np.zeros(8), np.zeros(8), np.arange(8) % 3, "abc"
        )
        assert not trace.times.flags.c_contiguous
        with backend(name):
            assert profiler._scan_c(trace, 48, 8, 4000) is None
        same_outcomes(profile_on(name, trace, {}), profile_on("python", trace, {}))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_overflowing_gap_takes_numpy(self, name):
        # -1e308 to 1e308 overflows to an infinite gap: no finite edges,
        # so the compiled pass declines and numpy decides.
        trace = ColumnarTrace(
            np.array([-1e308, 1e308, 0.0, 1.0]), np.zeros(4), np.zeros(4),
            np.array([0, 0, 1, 1]), "ab",
        )
        with backend(name), np.errstate(all="ignore"):
            assert profiler._scan_c(trace, 48, 8, 4000) is None
            got = outcome(trace, {})
        with backend("python"), np.errstate(all="ignore"):
            want = outcome(trace, {})
        same_outcomes(got, want)


# ---------------------------------------------------------------------------
# The binning kernel.
# ---------------------------------------------------------------------------


def bins_c(gaps, edges):
    bins = edges.shape[0] - 1
    hist = np.zeros(bins, dtype=np.int64)
    batch._load_sweep_lib().repro_profile_bins(
        gaps.shape[0],
        batch._addr(gaps, np.float64, gaps.shape[0]),
        bins,
        batch._addr(edges, np.float64, bins + 1),
        batch._addr(hist, np.int64, bins, out=True),
    )
    return hist


def bins_numpy(gaps, edges):
    bins = edges.shape[0] - 1
    idx = np.clip(np.searchsorted(edges, gaps, side="right") - 1, 0, bins - 1)
    return np.bincount(idx, minlength=bins).astype(np.int64)


@needs_c
@given(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=1.0, max_value=1e30),
    st.sampled_from([1, 2, 3, 48, 200]),
    st.lists(st.floats(min_value=0.0, max_value=1e300), max_size=20),
)
@settings(**_SETTINGS)
def test_binning_kernel_matches_searchsorted(lo, ratio, bins, extra):
    hi = lo * ratio
    assume(math.isfinite(hi))
    edges = profiler._edges(lo, hi, bins)
    assume(np.isfinite(edges).all() and (edges[1:] >= edges[:-1]).all())
    # Every edge, one ulp either side, zero, -0.0, a subnormal and more.
    gaps = np.concatenate(
        [
            edges,
            np.nextafter(edges, 0.0),
            np.nextafter(edges, np.inf),
            [0.0, -0.0, 5e-324, lo / 3, hi * 3],
            extra,
        ]
    ).astype(np.float64)
    same_value(bins_c(gaps, edges), bins_numpy(gaps, edges))


# ---------------------------------------------------------------------------
# No silent fallback on a time-ordered trace.
# ---------------------------------------------------------------------------


@needs_c
def test_time_ordered_trace_never_takes_numpy(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    rows, size = 20_000, 24
    ColumnarTrace(
        np.cumsum(rng.exponential(0.01, size=rows)),
        rng.integers(0, 6, size=rows),
        np.full(rows, -1),
        rng.integers(0, size, size=rows),
        tuple(f"item-{k:02d}" for k in range(size)),
    ).save(tmp_path / "trace.col")
    mapped = ColumnarTrace.open(tmp_path / "trace.col")
    with backend("python"):
        want = profile_trace(mapped)

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy path ran")

    monkeypatch.setattr(profiler, "_scan_numpy", refuse)
    monkeypatch.setattr(predictability, "_lpnf", refuse)
    with backend("c"):
        same_stats(profile_trace(mapped), want)
    assert sum(row.entropy_rate is not None for row in want.top_items) == 8
    mapped.close()
