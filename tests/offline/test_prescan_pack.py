"""Differential suite for the compiled trace pack, and the one check.

The trace samplers' ``_trace_layout`` has a compiled pack
(``kernels/_prescan.c``) that takes an input only when its output
provably equals the numpy path's; the numpy path runs otherwise and is
the oracle here.  Every comparison is of bytes, dtypes and names, or of
the exception type and message:

* ``check_columns``, the one check of packed request columns:
  ``BatchLayout.from_columns`` refuses each fault in a packed batch
  (ties at item seams, mixed per-item fleets, a ``mu`` or ``lam`` that
  is zero, negative, NaN or infinite) with the message that the
  one-item check raises for that item alone;
* ``_trace_layout`` on traces with ties, falls, NaN and infinite times,
  masks selecting none, some or all items, empty traces and item ids
  outside the table;
* on a time-ordered trace the compiled pack takes the whole pass and
  nothing is pre-scanned, so a silent fallback cannot hide behind a
  time-ordered benchmark log.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.types import CostModel, InvalidInstanceError
from repro.kernels import BatchLayout, batch_sweep_backend, prescan
from repro.kernels.prescan import MAX_SERVERS, check_columns
from repro.workloads import sampling
from repro.workloads.columnar import ColumnarTrace

from .test_kernels import BACKENDS, backend

_SETTINGS = dict(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

needs_c = pytest.mark.skipif(
    batch_sweep_backend() != "c", reason="no C compiler: the compiled paths cannot run"
)

_LAYOUT_FIELDS = ("off", "nreq", "mserv", "origin", "mu", "lam", "t", "srv")


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)`` of one call."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NaN and ±inf times
        try:
            return ("ok", fn(*args))
        except (InvalidInstanceError, ValueError, IndexError) as exc:
            return ("raised", type(exc), str(exc))


def same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# check_columns
# ---------------------------------------------------------------------------


@st.composite
def packed_batches(draw, max_items=4):
    """``BatchLayout.from_columns`` arguments after the names: 1 to
    ``max_items`` items back to back.

    Each item is its ``r_0`` plus 0-6 requests (so one-row items occur)
    at strictly rising times; an item's ``r_0`` often repeats the time
    of the item before it (a tie at the seam, which the check skips).
    ``m`` runs from 1 and sometimes exceeds the column length, and
    ``mu``/``lam`` differ per item.
    """
    items = draw(st.integers(min_value=1, max_value=max_items))
    t, srv, off, ms, mus, lams = [], [], [], [], [], []
    last = draw(st.sampled_from([0.0, -2.5, 7.0]))
    for _ in range(items):
        n1 = draw(st.integers(min_value=1, max_value=7))
        m = draw(st.sampled_from([1, 1, 2, 3, 4, 40]))
        gaps = draw(
            st.lists(
                st.sampled_from([0.125, 0.5, 1.0, 3.0, 1e-9]),
                min_size=n1,
                max_size=n1,
            )
        )
        first = last if draw(st.booleans()) else last - 1.0
        times = first + np.cumsum([0.0] + gaps[1:])
        off.append(len(t))
        t.extend(times.tolist())
        srv.extend(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=m - 1),
                    min_size=n1,
                    max_size=n1,
                )
            )
        )
        last = t[-1]
        ms.append(m)
        mus.append(draw(st.sampled_from([0.5, 1.0, 2.0])))
        lams.append(draw(st.sampled_from([0.25, 1.0, 4.0])))
    return (
        np.array(t, dtype=np.float64),
        np.array(srv, dtype=np.int64),
        np.array(off, dtype=np.int64),
        np.array(ms, dtype=np.int64),
        np.array(mus, dtype=np.float64),
        np.array(lams, dtype=np.float64),
    )


def item_columns(columns, k):
    """Item ``k`` of packed columns as ``(t, srv, m, mu, lam)``."""
    t, srv, off, mserv, mu, lam = columns
    lo = int(off[k])
    hi = int(off[k + 1]) if k + 1 < off.shape[0] else t.shape[0]
    return t[lo:hi], srv[lo:hi], int(mserv[k]), float(mu[k]), float(lam[k])


def check_alone(t, srv, m, mu, lam):
    """``check_columns`` on one item, as an instance runs it."""
    one = np.zeros(1, dtype=np.int64)
    check_columns(t, srv, one, np.array([m]), np.array([mu]), np.array([lam]))


def _check_on(name, args):
    with backend(name):
        return outcome(check_alone, *args)


def _pack_on(name, names, columns):
    with backend(name):
        return outcome(BatchLayout.from_columns, names, *columns)


#: Costs that are not finite and positive, each a refusal fault.
_BAD_COSTS = {"0": 0.0, "neg": -1.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}


class TestPrescanColumns:
    @pytest.mark.parametrize("name", BACKENDS)
    @given(
        packed_batches(),
        st.sampled_from(
            ["m0", "m-1", "origin", "server-high", "server-low", "nan", "inf",
             "-inf", "tie", "fall"]
            + [f"{cost}={bad}" for cost in ("mu", "lam") for bad in _BAD_COSTS]
        ),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(**_SETTINGS)
    def test_refusals_raise_the_numpy_message(self, name, args, fault, where):
        # One fault in one item of a packed batch: from_columns refuses
        # it with the message the one-item check raises for that item
        # alone (for a cost, CostModel's message).
        t, srv, off, mserv, mu, lam = (a.copy() for a in args)
        items = off.shape[0]
        k = where % items
        lo = int(off[k])
        hi = int(off[k + 1]) if k + 1 < items else t.shape[0]
        row = lo + where % (hi - lo)
        if fault in ("m0", "m-1"):
            mserv[k] = 0 if fault == "m0" else -1
        elif fault == "origin":
            srv[lo] = mserv[k]
        elif fault == "server-high":
            srv[row] = mserv[k] + where % 3
        elif fault == "server-low":
            srv[row] = -1 - where % 3
        elif fault in ("nan", "inf", "-inf"):
            t[row] = float(fault)
        elif "=" in fault:
            cost, bad = fault.split("=")
            (mu if cost == "mu" else lam)[k] = _BAD_COSTS[bad]
        else:
            assume(hi - lo > 1)
            row = max(row, lo + 1)
            t[row] = t[row - 1] if fault == "tie" else t[row - 1] - 0.5
        bad = (t, srv, off, mserv, mu, lam)
        alone = item_columns(bad, k)
        want = _check_on("python", alone)
        assert want[:2] == ("raised", InvalidInstanceError)
        assert _check_on(name, alone) == want
        if "=" in fault:
            with pytest.raises(ValueError) as refused:
                CostModel(mu=alone[3], lam=alone[4])
            assert want[2] == str(refused.value)
        names = [f"item-{j}" for j in range(items)]
        prefixed = want[:2] + (f"item 'item-{k}': " + want[2],)
        assert _pack_on(name, names, bad) == prefixed

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("named", [False, True])
    def test_fleet_above_the_bound_is_refused(self, name, named):
        # Refused before anything is sized by m; m at the bound passes.
        # Unnamed: one instance; named: item 'b' of a packed batch.
        t = np.arange(4, dtype=np.float64)
        srv = np.array([0, 1, 0, 1], dtype=np.int64)
        off = np.array([0, 2], dtype=np.int64)
        one = np.ones(2)

        def outcome_at(m):
            if named:
                return _pack_on(name, ["a", "b"], (t, srv, off, np.array([2, m]), one, one))
            return _check_on(name, (t, srv, m, 1.0, 1.0))

        assert outcome_at(MAX_SERVERS)[0] == "ok"
        msg = f"need at most {MAX_SERVERS} servers, got m={MAX_SERVERS + 1}"
        got = outcome_at(MAX_SERVERS + 1)
        assert got == ("raised", InvalidInstanceError, ("item 'b': " if named else "") + msg)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_layout_refusal_is_shared(self, name):
        t = np.arange(4, dtype=np.float64)
        srv = np.zeros(4, dtype=np.int64)
        for bad in ((t, srv[:3], 1, 1.0, 1.0), (t[:0], srv[:0], 1, 1.0, 1.0)):
            got, want = _check_on(name, bad), _check_on("python", bad)
            assert want[:2] == ("raised", InvalidInstanceError)
            assert "packed columns need" in want[2]
            assert got == want

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "mu, lam",
        [(math.nan, 1.0), (1.0, math.nan), (-0.0, 1.0), (1.0, -0.0), (-1.0, 2.0), (1.0, -2.0)],
    )
    def test_unpinned_minimum_operands_take_numpy(self, name, mu, lam):
        # NaN and signed costs, where np.minimum's pick between equal or
        # NaN operands is not pinned, never reach a pre-scan: the numpy
        # check refuses them, alone and in a batch, with CostModel's
        # message.
        args = (np.array([0.0, 1.0, 2.0, 4.0]), np.array([0, 1, 0, 1]), 2, mu, lam)
        with pytest.raises(ValueError) as refused:
            CostModel(mu=mu, lam=lam)
        assert _check_on(name, args) == ("raised", InvalidInstanceError, str(refused.value))
        packed = (args[0], args[1], np.zeros(1), np.array([2]), np.array([mu]), np.array([lam]))
        assert _pack_on(name, ["a"], packed) == (
            "raised", InvalidInstanceError, f"item 'a': {refused.value}"
        )


# ---------------------------------------------------------------------------
# _trace_layout
# ---------------------------------------------------------------------------


_TIMES = [0.0, 0.5, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf]


@st.composite
def traces(draw):
    """A small trace, a mask over its items and the layout arguments.

    Times rise, rise with ties, or are drawn freely (falls, NaN, ±inf);
    ids sometimes leave the item table.
    """
    size = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=0, max_value=30))
    m = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from(["rising", "ties", "free"]))
    if shape == "free":
        times = draw(st.lists(st.sampled_from(_TIMES), min_size=rows, max_size=rows))
    else:
        low = 0.0 if shape == "ties" else 0.125
        gaps = draw(
            st.lists(st.sampled_from([low, 0.25, 1.0]), min_size=rows, max_size=rows)
        )
        times = np.cumsum(gaps).tolist()
    top = size if draw(st.integers(0, 9)) else size + 1
    ids = draw(st.lists(st.integers(min_value=-(top > size), max_value=top - 1),
                        min_size=rows, max_size=rows))
    servers = draw(st.lists(st.integers(min_value=0, max_value=m - 1),
                            min_size=rows, max_size=rows))
    trace = ColumnarTrace(
        np.array(times, dtype=np.float64),
        np.array(servers),
        np.full(rows, -1),
        np.array(ids, dtype=np.int64),
        tuple(f"item-{k}" for k in range(size)),
    )
    pick = draw(st.sampled_from(["all", "none", "some", "every"]))
    mask = {
        "all": None,
        "none": np.zeros(size, dtype=bool),
        "every": np.ones(size, dtype=bool),
        "some": np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))),
    }[pick]
    extra = (
        draw(st.sampled_from([None, 1, m, m + 2])),  # num_servers
        draw(st.sampled_from([0, 0, 1])),  # origin
        draw(st.sampled_from([1e-9, 0.5, 0.0])),  # min_gap
        draw(st.sampled_from([1, 3, 1 << 20])),  # chunk_rows
    )
    return trace, mask, extra


def _layout(trace, mask, extra):
    num_servers, origin, min_gap, chunk_rows = extra
    return sampling._trace_layout(trace, mask, None, num_servers, origin, min_gap, chunk_rows)


def _layout_on(name, trace, mask, extra):
    with backend(name):
        return outcome(_layout, trace, mask, extra)


def same_layouts(got, want):
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    (ids_a, lay_a), (ids_b, lay_b) = got[1], want[1]
    same_arrays([ids_a], [ids_b])
    assert (lay_a is None) == (lay_b is None)
    if lay_a is not None:
        assert lay_a.names == lay_b.names
        same_arrays(
            [getattr(lay_a, f) for f in _LAYOUT_FIELDS],
            [getattr(lay_b, f) for f in _LAYOUT_FIELDS],
        )


def falls(trace, mask):
    """Whether some kept item's times fail ``>=`` in row order (NaN too)."""
    last = {}
    for t, k in zip(trace.times.tolist(), trace.item_ids.tolist()):
        if mask is None or mask[k]:
            if k in last and not t >= last[k]:
                return True
            last[k] = t
    return False


class TestTraceLayout:
    @pytest.mark.parametrize("name", BACKENDS)
    @given(traces())
    @settings(**_SETTINGS)
    def test_matches_numpy(self, name, case):
        same_layouts(_layout_on(name, *case), _layout_on("python", *case))

    @needs_c
    @given(traces())
    @settings(**_SETTINGS)
    def test_compiled_pack_declines_only_falls(self, case):
        # The pack takes every in-range trace whose kept items do not
        # fall, and then equals the numpy pack exactly.
        trace, mask, (_, origin, min_gap, chunk_rows) = case
        size = len(trace.item_table)
        ids = trace.item_ids
        assume(trace.rows and ids.min() >= 0 and ids.max() < size)
        with backend("c"):
            got = sampling._pack_c(trace, mask, origin, min_gap, chunk_rows)
        if falls(trace, mask):
            assert got is None
            return
        with backend("python"):
            want = sampling._pack_numpy(trace, mask, origin, min_gap, chunk_rows)
        same_arrays(got, want)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_trace(self, name):
        empty = ColumnarTrace(
            np.empty(0), np.empty(0, "<i4"), np.empty(0, "<i4"), np.empty(0, "<i4"), ()
        )
        got = _layout_on(name, empty, None, (None, 0, 1e-9, 1 << 20))
        assert got[0] == "ok" and got[1][1] is None and got[1][0].dtype == np.int64

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize(
        "mask",
        [np.array([True]), np.array([1, 0, 1]), np.array([True, False, True])[::-1]],
        ids=["short", "int", "reversed-view"],
    )
    def test_odd_masks_match_numpy(self, name, mask):
        trace = ColumnarTrace(
            np.arange(6.0), np.zeros(6), np.zeros(6), np.array([0, 1, 2, 0, 1, 2]), "abc"
        )
        case = (trace, mask, (None, 0, 1e-9, 1 << 20))
        same_layouts(_layout_on(name, *case), _layout_on("python", *case))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_chunk_rows_below_one_is_refused(self, name):
        trace = ColumnarTrace(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(3), "a")
        with backend(name), pytest.raises(ValueError, match="chunk_rows must be >= 1"):
            sampling._trace_layout(trace, None, None, 1, 0, 1e-9, 0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_strided_columns_take_numpy(self, name):
        trace = ColumnarTrace(np.arange(8.0)[::2], np.zeros(4), np.zeros(4), np.zeros(4), "a")
        assert not trace.times.flags.c_contiguous
        with backend(name):
            assert sampling._pack_c(trace, None, 0, 1e-9, 1 << 20) is None
        case = (trace, None, (None, 0, 1e-9, 1 << 20))
        same_layouts(_layout_on(name, *case), _layout_on("python", *case))


# ---------------------------------------------------------------------------
# No silent fallback on a time-ordered trace.
# ---------------------------------------------------------------------------


@needs_c
def test_time_ordered_trace_never_takes_numpy(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    rows, size = 5000, 24
    trace = ColumnarTrace(
        np.cumsum(rng.exponential(0.01, size=rows)),
        rng.integers(0, 6, size=rows),
        np.full(rows, -1),
        rng.integers(0, size, size=rows),
        tuple(f"item-{k:02d}" for k in range(size)),
    )
    trace.save(tmp_path / "trace.col")
    mapped = ColumnarTrace.open(tmp_path / "trace.col")
    with backend("python"):
        opt = sampling.solve_trace_costs(mapped)
        sc = sampling.online_trace_costs(mapped)

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy fallback or a pre-scan ran")

    monkeypatch.setattr(sampling, "_pack_numpy", refuse)
    monkeypatch.setattr(prescan, "prescan_columns", refuse)  # layouts never pre-scan
    with backend("c"):
        assert sampling.solve_trace_costs(mapped) == opt
        assert sampling.online_trace_costs(mapped) == sc
    mapped.close()
