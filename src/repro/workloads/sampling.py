"""Hash-sampled trace solving: estimate offline cost from a 1-10% sample.

The batched kernel (:mod:`repro.kernels.batch`) made the per-shard solve
~20x faster, but it still touches every request — traces beyond ~10M
rows remain out of reach.  This module trades exactness for a *stated*
error bound:

* **Spatial sampling** over item ids: an item named ``s`` is kept at
  rate ``p`` iff ``item_hash(s, seed) < p * 2**64``, where
  :func:`item_hash` is a stable 64-bit BLAKE2b digest of the interned
  string.  Membership depends only on ``(name, seed, rate)`` — never on
  row order, chunk size, or the host process — so the same ``(seed,
  rate)`` selects the same items on every shard of a distributed scan.
  Nested thresholds also make rates monotone: the sample at ``p1`` is a
  subset of the sample at ``p2 >= p1``.
* **Temporal windowing**: an optional half-open ``[t0, t1)`` row filter
  applied in the same chunked pass.
* **Canonical output**: :func:`sample_trace` re-sorts kept rows by
  ``(time, item name, server, user)`` and re-interns the item table in
  first-appearance order of that canonical ordering, so
  :func:`sample_columnar` writes **byte-identical** container files
  regardless of how the input rows were ordered or chunked.  The output
  is an ordinary :class:`~repro.workloads.columnar.ColumnarTrace` —
  ``mine_instance_columnar``, ``solve_offline_batch`` and the service
  layer consume it unchanged.
* **Estimation**: :func:`estimate_offline_cost` solves only the sampled
  items (plus a top-``K`` certainty stratum of the heaviest items, which
  a Zipf head would otherwise dominate into huge variance) with the
  batched kernel and scales the sampled tail back Horvitz-Thompson
  style.  Every tail item has inclusion probability exactly ``p``; the
  Hájek (ratio) form ``N_tail * mean(sampled costs)`` is used because it
  conditions on the realised sample size — same expectation as the raw
  ``sum / p`` scale-up, far lower variance.  The confidence interval is
  the union of a percentile bootstrap and a studentized bootstrap-*t*
  interval over the sampled tail costs (both from
  :mod:`repro.analysis.bootstrap`) — the bootstrap-*t* keeps coverage
  near nominal on the small, skewed samples a 1-5% rate produces.

Per-item costs mirror the mining semantics of
``traces._columns_to_instance`` exactly (stable time sort, min-gap
sweep, start-time convention) on packed columns, which one
:meth:`~repro.kernels.batch.BatchLayout.from_columns` call checks as
instances are checked, so :func:`solve_trace_costs` is
bit-identical to ``MultiItemInstance.from_columnar`` +
``solve_offline_batch`` — the property tests assert that.  The packing
runs in C (``kernels/_prescan.c``: a stable counting sort by item id of
the mapped columns, read in place) when the compiled kernels are in use
(:func:`repro.kernels.batch.batch_sweep_backend`) and no kept item's
times fall in row order, where it provably equals the numpy path
(chunked row selection, a ``lexsort`` by item and time, ``np.insert``
for each ``r_0``).  The numpy path runs every other input, is the
fallback without a compiler, and is the oracle of
``tests/offline/test_prescan_pack.py``.  Every entry point refuses a row
whose item id does not index the item table
(:class:`~repro.core.types.InvalidInstanceError`, naming the first).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.bootstrap import bootstrap_ci, bootstrap_t_ci
from ..core.types import CostModel, InvalidInstanceError
from ..kernels.prescan import sort_key
from .columnar import ColumnarTrace, _bad_item_id, _check_item_ids
from .traces import _enforce_min_gap

if TYPE_CHECKING:  # pragma: no cover - imported on use
    from ..kernels.batch import BatchLayout

__all__ = [
    "HASH_SPACE",
    "CostEstimate",
    "SampleStats",
    "estimate_offline_cost",
    "exact_offline_cost",
    "item_hash",
    "item_hashes",
    "online_trace_costs",
    "sample_columnar",
    "sample_trace",
    "sampled_items",
    "solve_trace_costs",
]

#: Size of the item-hash space; rate ``p`` keeps hashes below ``p * HASH_SPACE``.
HASH_SPACE = 1 << 64

_Trace = Union[ColumnarTrace, str, Path]
_Window = Optional[Tuple[float, float]]


# ---------------------------------------------------------------------------
# Stable item hashing.
# ---------------------------------------------------------------------------


def item_hash(item: str, seed: int = 0) -> int:
    """Stable 64-bit hash of an item name (BLAKE2b, keyed by ``seed``).

    Depends only on the UTF-8 bytes of ``item`` and on ``seed`` —
    identical across processes, hosts and Python versions (unlike
    ``hash()``, which is salted per process).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    digest = hashlib.blake2b(
        item.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")


def item_hashes(items: Sequence[str], seed: int = 0) -> np.ndarray:
    """Vectorised :func:`item_hash` over an item table (uint64 array)."""
    return np.array(
        [item_hash(name, seed) for name in items], dtype=np.uint64
    )


def sampled_items(
    items: Sequence[str], rate: float, seed: int = 0
) -> np.ndarray:
    """Boolean keep-mask over ``items`` at sampling rate ``rate``.

    ``mask[i]`` is True iff ``item_hash(items[i], seed) < rate * 2**64``.
    ``rate >= 1`` keeps everything; ``rate <= 0`` keeps nothing.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
    if not items:
        return np.zeros(0, dtype=bool)
    if rate >= 1.0:
        return np.ones(len(items), dtype=bool)
    threshold = np.uint64(int(rate * HASH_SPACE))
    return item_hashes(items, seed) < threshold


# ---------------------------------------------------------------------------
# Chunked row selection over memmap columns.
# ---------------------------------------------------------------------------


def _open(trace: _Trace) -> ColumnarTrace:
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.open(trace)


def _check_window(window: _Window) -> None:
    if window is None:
        return
    t0, t1 = window
    if not float(t0) < float(t1):
        raise ValueError(f"window must satisfy t0 < t1, got {window}")


def _select_rows(
    trace: ColumnarTrace,
    keep_item: Optional[np.ndarray],
    window: _Window,
    chunk_rows: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather (times, servers, users, item_ids) of kept rows, chunked.

    Touches the memmap columns ``chunk_rows`` at a time; peak memory is
    one chunk plus the gathered (kept) rows, never the whole trace and
    never any :class:`TraceRecord` objects.  Raises
    :class:`InvalidInstanceError` at the first row whose item id does
    not index the item table.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    t_parts, s_parts, u_parts, i_parts = [], [], [], []
    rows, size = trace.rows, len(trace.item_table)
    for lo in range(0, rows, chunk_rows):
        hi = min(lo + chunk_rows, rows)
        ids = np.asarray(trace.item_ids[lo:hi])
        _check_item_ids(ids, lo, size)
        if keep_item is not None:
            mask = keep_item[ids]
        else:
            mask = np.ones(hi - lo, dtype=bool)
        times = None
        if window is not None:
            times = np.asarray(trace.times[lo:hi])
            mask &= (times >= window[0]) & (times < window[1])
        if not mask.any():
            continue
        if times is None:
            times = np.asarray(trace.times[lo:hi])
        t_parts.append(times[mask])
        s_parts.append(np.asarray(trace.servers[lo:hi])[mask])
        u_parts.append(np.asarray(trace.users[lo:hi])[mask])
        i_parts.append(ids[mask])
    if not t_parts:
        return (
            np.empty(0, dtype="<f8"),
            np.empty(0, dtype="<i4"),
            np.empty(0, dtype="<i4"),
            np.empty(0, dtype="<i4"),
        )
    return (
        np.concatenate(t_parts),
        np.concatenate(s_parts),
        np.concatenate(u_parts),
        np.concatenate(i_parts),
    )


def _item_counts(trace: ColumnarTrace, chunk_rows: int) -> np.ndarray:
    """Per-item request counts (int64), one chunked bincount pass."""
    counts = np.zeros(len(trace.item_table), dtype=np.int64)
    rows = trace.rows
    for lo in range(0, rows, chunk_rows):
        hi = min(lo + chunk_rows, rows)
        ids = np.asarray(trace.item_ids[lo:hi])
        _check_item_ids(ids, lo, counts.shape[0])
        counts += np.bincount(ids, minlength=counts.shape[0])
    return counts


def _fleet_size(trace: ColumnarTrace, chunk_rows: int) -> int:
    """Fleet size ``max(server) + 1`` via a chunked max."""
    best = -1
    rows = trace.rows
    for lo in range(0, rows, chunk_rows):
        hi = min(lo + chunk_rows, rows)
        chunk = np.asarray(trace.servers[lo:hi])
        if chunk.size:
            best = max(best, int(chunk.max()))
    if best < 0:
        raise InvalidInstanceError("trace has no rows to derive a fleet from")
    return best + 1


# ---------------------------------------------------------------------------
# Sampling into a canonical columnar trace.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """What a sampling pass kept, for logging and benchmark payloads."""

    rows_in: int
    rows_kept: int
    items_in: int
    items_kept: int
    rate: float
    seed: int
    window: _Window = None

    @property
    def row_fraction(self) -> float:
        return self.rows_kept / self.rows_in if self.rows_in else 0.0

    @property
    def item_fraction(self) -> float:
        return self.items_kept / self.items_in if self.items_in else 0.0


def _canonical_trace(
    times: np.ndarray,
    servers: np.ndarray,
    users: np.ndarray,
    old_ids: np.ndarray,
    item_table: Sequence[str],
) -> ColumnarTrace:
    """Canonicalise kept rows: sort by (time, name, server, user), re-intern.

    Ranking equal-time rows by the item's *name* (not its input-dependent
    intern id) is what makes the output independent of the source's row
    and interning order; the item table is then rebuilt in first
    appearance order of the canonical row order.
    """
    if times.shape[0] == 0:
        return ColumnarTrace(
            np.empty(0, dtype="<f8"),
            np.empty(0, dtype="<i4"),
            np.empty(0, dtype="<i4"),
            np.empty(0, dtype="<i4"),
            (),
        )
    rank = np.empty(len(item_table), dtype=np.int64)
    for pos, idx in enumerate(
        sorted(range(len(item_table)), key=lambda i: item_table[i])
    ):
        rank[idx] = pos
    order = np.lexsort((users, servers, rank[old_ids], times))
    times, servers = times[order], servers[order]
    users, old_ids = users[order], old_ids[order]
    uniq, first = np.unique(old_ids, return_index=True)
    appear = uniq[np.argsort(first, kind="stable")]
    new_of_old = np.full(len(item_table), -1, dtype=np.int64)
    new_of_old[appear] = np.arange(appear.shape[0])
    return ColumnarTrace(
        times,
        servers,
        users,
        new_of_old[old_ids].astype("<i4"),
        tuple(item_table[int(i)] for i in appear),
    )


def sample_trace(
    trace: _Trace,
    rate: float,
    seed: int = 0,
    window: _Window = None,
    chunk_rows: int = 1 << 20,
) -> ColumnarTrace:
    """Hash-sample a trace's items (and optionally a time window).

    Returns an in-memory :class:`ColumnarTrace` in **canonical order**
    (rows sorted by time, ties broken by item name, then server, then
    user; item table interned in first appearance order of that order).
    Because item membership is decided by :func:`sampled_items` and the
    output order is canonical, the result — down to the bytes
    :meth:`ColumnarTrace.save` writes — depends only on the trace's row
    *set*, ``rate``, ``seed`` and ``window``.
    """
    trace = _open(trace)
    _check_window(window)
    keep = sampled_items(trace.item_table, rate, seed)
    times, servers, users, ids = _select_rows(trace, keep, window, chunk_rows)
    return _canonical_trace(times, servers, users, ids, trace.item_table)


def sample_columnar(
    src: _Trace,
    dest: Union[str, Path],
    rate: float,
    seed: int = 0,
    window: _Window = None,
    chunk_rows: int = 1 << 20,
) -> SampleStats:
    """Sample ``src`` into a new columnar container at ``dest``.

    The written file is **byte-deterministic**: same row set + ``(rate,
    seed, window)`` → identical bytes, regardless of the source's row
    order, conversion chunking, or which process runs the sampling.
    """
    trace = _open(src)
    out = sample_trace(
        trace, rate, seed=seed, window=window, chunk_rows=chunk_rows
    )
    out.save(dest)
    return SampleStats(
        rows_in=trace.rows,
        rows_kept=out.rows,
        items_in=len(trace.item_table),
        items_kept=len(out.item_table),
        rate=float(rate),
        seed=int(seed),
        window=window,
    )


# ---------------------------------------------------------------------------
# Per-item solving straight from the columns.
# ---------------------------------------------------------------------------


def _trace_layout(
    trace: ColumnarTrace,
    items: Optional[np.ndarray],
    cost: Optional[CostModel],
    num_servers: Optional[int],
    origin: int,
    min_gap: float,
    chunk_rows: int,
) -> Tuple[np.ndarray, Optional[BatchLayout]]:
    """Every selected item packed into one layout: ``(ids, layout)``.

    ``items`` is ``None`` or a boolean mask over item ids, as
    ``np.asarray`` reads it; another dtype or shape raises
    ``ValueError``.  ``ids`` are the packed items' ids, ascending; the
    layout is ``None`` when no row is selected.  Mirrors the mining tail of
    ``traces._columns_to_instance`` — stable sort by time,
    :func:`_enforce_min_gap` sweep, identical start-time convention — so
    every per-item result is bit-identical to ``mine_instance_columnar``
    plus the per-item solver/policy on the same rows.  The compiled pack
    (:func:`_pack_c`) runs when it provably equals :func:`_pack_numpy`,
    which runs otherwise.
    """
    from ..kernels.batch import BatchLayout

    if items is not None:
        items, size = np.asarray(items), len(trace.item_table)
        if items.dtype != np.bool_ or items.shape != (size,):
            raise ValueError(
                f"items must be a boolean mask over the {size} item ids; "
                f"got dtype {items.dtype} with shape {items.shape}"
            )
    empty = np.empty(0, dtype=np.int64)
    if trace.rows == 0:
        return empty, None
    if num_servers is None:
        num_servers = _fleet_size(trace, chunk_rows)
    cost = cost if cost is not None else CostModel()
    packed = _pack_c(trace, items, origin, min_gap, chunk_rows)
    if packed is None:
        packed = _pack_numpy(trace, items, origin, min_gap, chunk_rows)
    solved, t, srv, off = packed
    count = solved.shape[0]
    if count == 0:
        return solved, None
    layout = BatchLayout.from_columns(
        [trace.item_table[i] for i in solved.tolist()],
        t,
        srv,
        off,
        np.full(count, num_servers, dtype=np.int64),
        np.full(count, cost.mu),
        np.full(count, cost.lam),
    )
    return solved, layout


def _pack_numpy(
    trace: ColumnarTrace,
    items: Optional[np.ndarray],
    origin: int,
    min_gap: float,
    chunk_rows: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The selected rows packed item-major: ``(ids, t, srv, off)``.

    ``ids`` are the packed items' ids, ascending; item ``k``'s rows sit
    in time order from ``off[k] + 1``, after its ``r_0`` (start time,
    ``origin``) at ``off[k]``, as
    :func:`~repro.kernels.prescan.check_columns` takes them.  The
    fallback without a C compiler, the path for every input
    :func:`_pack_c` does not take, and its test oracle.
    """
    times, servers, _, ids = _select_rows(trace, items, None, chunk_rows)
    if times.shape[0] == 0:
        none = np.empty(0, dtype=np.int64)
        return none, np.empty(0, dtype=np.float64), none, none
    # Item-major, time-ordered within item; stability keeps equal-time
    # rows in original order, matching the per-item stable sort the
    # miner performs.
    order = np.lexsort((times, sort_key(ids)))
    times = np.ascontiguousarray(times[order], dtype=np.float64)
    servers, ids = servers[order], ids[order]
    del order
    seams = np.flatnonzero(ids[1:] != ids[:-1])
    starts = np.append(0, seams + 1)
    # Only items whose gaps are not all > 0 (ties, or a NaN) run the
    # min-gap sweep, in place; the check skips the item seams.
    rising = times[1:] > times[:-1]
    rising[seams] = True
    falls = np.flatnonzero(~rising)
    ends = np.append(starts[1:], times.shape[0])
    for k in np.unique(np.searchsorted(seams, falls, side="right")).tolist():
        _enforce_min_gap(times[starts[k] : ends[k]], min_gap)
    start = times[starts] - max(min_gap, 1e-6)
    start[start > 0] = 0.0
    return (
        ids[starts].astype(np.int64),
        np.insert(times, starts, start),
        np.insert(servers.astype(np.int64), starts, origin),
        starts + np.arange(starts.shape[0]),
    )


def _pack_c(
    trace: ColumnarTrace,
    items: Optional[np.ndarray],
    origin: int,
    min_gap: float,
    chunk_rows: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`_pack_numpy` in C (``kernels/_prescan.c``), or ``None``.

    A stable counting sort by item id of the ``time``, ``server`` and
    ``item_id`` columns, read in place (the memmaps of an opened trace).
    Each kept row goes to ``off[k] + 1 +`` its rank within item ``k``.
    That equals the numpy path's stable time sort exactly when no kept
    item's times fall in row order: both then keep row order within an
    item, ties included, and items with a tie run the same min-gap sweep
    on their segment.  ``None`` sends the call to :func:`_pack_numpy`:
    on the Python backend, when a kept item's times fall (or hold a
    NaN), for a column that is not native-endian and contiguous, and for
    ``chunk_rows < 1``, which the numpy path refuses.  An id outside the
    item table raises the numpy path's error.  ``items`` is ``None`` or
    the boolean mask :func:`_trace_layout` checked.
    """
    from ..kernels.batch import (
        _FALL,
        _TIE,
        _addr,
        _count_rows,
        _load_sweep_lib,
        _resolve_backend,
        _starts,
    )

    if chunk_rows < 1 or _resolve_backend() != "c":
        return None
    rows, size = trace.rows, len(trace.item_table)
    if items is None:
        keep = np.ones(size, dtype=np.uint8)
    else:
        keep = np.ascontiguousarray(items).view(np.uint8)
    counted = _count_rows(trace, keep)
    if counted is None:
        return None
    (times, servers, ids), bad, counts, flags = counted
    if bad >= 0:
        raise _bad_item_id(bad, int(trace.item_ids[bad]), size)
    solved = np.flatnonzero(counts)
    flags, sizes = flags[solved], counts[solved]
    if (flags & _FALL).any():
        return None
    off = _starts(sizes + 1)
    total = int(sizes.sum()) + solved.shape[0]
    cursor = np.zeros(size, dtype=np.int64)
    cursor[solved] = off + 1
    end = cursor + counts
    t = np.empty(total, dtype=np.float64)
    srv = np.empty(total, dtype=np.int64)
    moved = _load_sweep_lib().repro_pack_rows(
        rows,
        times,
        servers,
        ids,
        _addr(keep, np.uint8, size),
        size,
        _addr(cursor, np.int64, size, out=True),
        _addr(end, np.int64, size),
        _addr(t, np.float64, total, out=True),
        _addr(srv, np.int64, total, out=True),
    )
    if moved >= 0:  # the columns changed since the count
        return None
    for k in np.flatnonzero(flags & _TIE).tolist():
        lo = int(off[k]) + 1
        _enforce_min_gap(t[lo : lo + int(sizes[k])], min_gap)
    start = t[off + 1] - max(min_gap, 1e-6)
    start[start > 0] = 0.0
    t[off] = start
    srv[off] = origin
    return solved, t, srv, off


def _solve_costs_by_id(
    trace: ColumnarTrace,
    items: Optional[np.ndarray],
    cost: Optional[CostModel],
    num_servers: Optional[int],
    origin: int,
    min_gap: float,
    chunk_rows: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal cost per selected item id: ``(ids, costs)`` id-ascending.

    Packs every selected item into ONE
    :class:`~repro.kernels.batch.BatchLayout` (:func:`_trace_layout`)
    and sweeps it with the batched kernel, so each per-item cost is
    bit-identical to ``mine_instance_columnar`` + ``solve_offline`` on
    the same rows.
    """
    from ..kernels.batch import solve_layout

    solved_ids, layout = _trace_layout(
        trace, items, cost, num_servers, origin, min_gap, chunk_rows
    )
    if layout is None:
        return solved_ids, np.empty(0, dtype=np.float64)
    results = solve_layout(layout)
    costs = np.array([res.optimal_cost for res in results], dtype=np.float64)
    return solved_ids, costs


def solve_trace_costs(
    trace: _Trace,
    items: Optional[np.ndarray] = None,
    cost: Optional[CostModel] = None,
    num_servers: Optional[int] = None,
    origin: int = 0,
    min_gap: float = 1e-9,
    chunk_rows: int = 1 << 20,
) -> Dict[str, float]:
    """Optimal per-item offline cost straight from the mapped columns.

    ``items`` is an optional boolean mask over item ids (``None`` = all;
    any other dtype or length raises ``ValueError``).
    ``num_servers`` defaults to the **full-trace** fleet size so masked
    solves stay comparable to the unmasked solve.  Costs are
    bit-identical to ``MultiItemInstance.from_columnar`` +
    ``solve_offline_batch`` on the same trace.
    """
    trace = _open(trace)
    ids, costs = _solve_costs_by_id(
        trace, items, cost, num_servers, origin, min_gap, chunk_rows
    )
    return {
        trace.item_table[int(i)]: float(c) for i, c in zip(ids, costs)
    }


def online_trace_costs(
    trace: _Trace,
    items: Optional[np.ndarray] = None,
    cost: Optional[CostModel] = None,
    num_servers: Optional[int] = None,
    origin: int = 0,
    min_gap: float = 1e-9,
    window_factor: float = 1.0,
    epoch_size: Optional[int] = None,
    chunk_rows: int = 1 << 20,
) -> Dict[str, float]:
    """Per-item SC/TTL(γ) *online* cost straight from the mapped columns.

    The online twin of :func:`solve_trace_costs`, with the same
    ``items`` mask and fleet-size default: every selected item is
    packed into ONE :class:`~repro.kernels.batch.BatchLayout` and served
    with a single batched online-kernel call — no per-item instance
    mining, no per-event hook dispatch.  Each cost is bit-identical to
    ``mine_instance_columnar`` + ``SpeculativeCaching(window_factor,
    epoch_size).run`` on the same rows, so a sampled columnar trace can
    report empirical online/OPT gaps at trace scale.
    """
    from ..kernels.online import run_online_layout

    trace = _open(trace)
    _, layout = _trace_layout(
        trace, items, cost, num_servers, origin, min_gap, chunk_rows
    )
    if layout is None:
        return {}
    runs = run_online_layout(layout, window_factor, epoch_size)
    return {name: run.cost for name, run in zip(layout.names, runs)}


def exact_offline_cost(
    trace: _Trace,
    cost: Optional[CostModel] = None,
    num_servers: Optional[int] = None,
    origin: int = 0,
    min_gap: float = 1e-9,
    chunk_rows: int = 1 << 20,
) -> float:
    """Exact full-trace offline cost (sum of per-item optima).

    Summation runs in item-id (= first appearance) order, matching
    ``MultiItemOfflineResult.total_cost`` bit for bit.
    """
    trace = _open(trace)
    _, costs = _solve_costs_by_id(
        trace, None, cost, num_servers, origin, min_gap, chunk_rows
    )
    return float(sum(float(c) for c in costs))


# ---------------------------------------------------------------------------
# Horvitz-Thompson estimation with a certainty stratum.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostEstimate:
    """Estimated full-trace offline cost with a bootstrap error bound.

    Iterating yields ``(estimate, ci_lo, ci_hi, solve_fraction)`` so the
    result unpacks like the tuple the API contract promises.
    """

    estimate: float
    ci_lo: float
    ci_hi: float
    solve_fraction: float
    rate: float
    seed: int
    confidence: float
    head_cost: float
    items_total: int
    items_solved: int
    rows_total: int
    rows_solved: int
    resamples: int
    #: Wall-time of the batch solve alone (gather + pack + DP sweep of
    #: the selected items) — the component that scales with
    #: ``solve_fraction``.  Excludes the O(rows) counting pass and the
    #: bootstrap, whose cost is fixed per call.
    solve_s: float = 0.0

    def __iter__(self) -> Iterator[float]:
        return iter(
            (self.estimate, self.ci_lo, self.ci_hi, self.solve_fraction)
        )

    def covers(self, value: float, rel_slack: float = 1e-12) -> bool:
        """True iff ``value`` lies inside the confidence interval."""
        slack = rel_slack * max(1.0, abs(value))
        return self.ci_lo - slack <= value <= self.ci_hi + slack


def estimate_offline_cost(
    trace: _Trace,
    rate: float,
    seed: int = 0,
    cost: Optional[CostModel] = None,
    num_servers: Optional[int] = None,
    origin: int = 0,
    confidence: float = 0.95,
    resamples: int = 2000,
    top_exact: int = 64,
    min_gap: float = 1e-9,
    chunk_rows: int = 1 << 20,
) -> CostEstimate:
    """Estimate the full-trace offline cost from a hash sample.

    Stratified Horvitz-Thompson (Hájek form) estimator:

    * the ``top_exact`` most-requested items (ties to the lower id) form
      a **certainty stratum** solved exactly — under Zipf popularity the
      head carries most of the cost, and excising it from the sampled
      stratum collapses the estimator variance;
    * every remaining ("tail") item is included iff
      ``item_hash(name, seed) < rate * 2**64`` — inclusion probability
      exactly ``rate`` per item — and the tail total is estimated as
      ``N_tail * mean(sampled tail costs)`` (the Hájek ratio form:
      same expectation as the raw ``sum / rate`` scale-up but it
      conditions on the realised sample size, removing the binomial
      size-variance term);
    * the tail total's confidence interval is the **union** of a
      percentile bootstrap and a studentized bootstrap-*t* interval
      over the sampled per-item costs (``repro.analysis.bootstrap``),
      scaled by ``N_tail`` and shifted by the exact head cost.  It is
      calibrated when the tail sample holds roughly ten or more items;
      below that the interval is still reported but coverage degrades —
      raise ``rate`` or ``top_exact`` instead.

    Only the sampled items are ever packed into the batch kernel, so
    solve work scales with ``solve_fraction`` (the returned fraction of
    rows actually solved), not with the trace.

    Raises
    ------
    ValueError
        If ``rate`` is not in ``(0, 1]``, or the hash sample selects no
        tail items (increase ``rate`` or ``top_exact``).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if top_exact < 0:
        raise ValueError(f"top_exact must be >= 0, got {top_exact}")
    trace = _open(trace)
    if trace.rows == 0:
        raise InvalidInstanceError("cannot estimate cost of an empty trace")
    n_items = len(trace.item_table)
    counts = _item_counts(trace, chunk_rows)
    # Head = top-K items by request count, ties broken toward the lower
    # id so the stratum split is deterministic.
    by_count = np.lexsort((np.arange(n_items), -counts))
    head_ids = by_count[: min(top_exact, n_items)]
    head_mask = np.zeros(n_items, dtype=bool)
    head_mask[head_ids] = True
    head_mask &= counts > 0
    tail_mask = ~head_mask & (counts > 0)
    sampled_tail = sampled_items(trace.item_table, rate, seed) & tail_mask
    solve_mask = head_mask | sampled_tail
    n_tail = int(tail_mask.sum())
    if n_tail > 0 and rate < 1.0 and not sampled_tail.any():
        raise ValueError(
            f"hash sample at rate {rate} selected none of the {n_tail} "
            f"tail items; increase rate or top_exact"
        )
    solve_t0 = time.perf_counter()
    ids, costs = _solve_costs_by_id(
        trace, solve_mask, cost, num_servers, origin, min_gap, chunk_rows
    )
    solve_s = time.perf_counter() - solve_t0
    in_head = head_mask[ids]
    head_cost = float(sum(float(c) for c in costs[in_head]))
    tail_costs = np.ascontiguousarray(costs[~in_head], dtype=np.float64)
    if n_tail == 0 or (rate >= 1.0):
        # Nothing sampled away — the "estimate" is the exact total.
        estimate = head_cost + float(sum(float(c) for c in tail_costs))
        ci_lo = ci_hi = estimate
    else:
        pci = bootstrap_ci(
            tail_costs,
            statistic=np.mean,
            confidence=confidence,
            resamples=resamples,
        )
        tci = bootstrap_t_ci(
            tail_costs, confidence=confidence, resamples=resamples
        )
        estimate = head_cost + n_tail * float(tail_costs.mean())
        ci_lo = head_cost + n_tail * min(pci.lo, tci.lo)
        ci_hi = head_cost + n_tail * max(pci.hi, tci.hi)
    rows_solved = int(counts[solve_mask].sum())
    return CostEstimate(
        estimate=float(estimate),
        ci_lo=float(ci_lo),
        ci_hi=float(ci_hi),
        solve_fraction=rows_solved / trace.rows,
        rate=float(rate),
        seed=int(seed),
        confidence=float(confidence),
        head_cost=head_cost,
        items_total=n_items,
        items_solved=int(solve_mask.sum()),
        rows_total=trace.rows,
        rows_solved=rows_solved,
        resamples=int(resamples),
        solve_s=solve_s,
    )
