"""Memmap-native workload profiler with bounded RSS.

:func:`profile_trace` sweeps a :class:`ColumnarTrace`'s mapped columns
and returns :class:`WorkloadStats` — the per-item quantities the
learning-augmented online policies need as their substrate:

* per-server request counts and the time range (chunked numpy), after
  every row's item id, server id and time are checked;
* per-item request counts and the interarrival distribution from one
  item-major pass: every per-item gap in time order, a log-spaced
  histogram over them and per-item gap moments;
* popularity skew: Zipf exponent (log-log rank/count fit) and
  top-1/top-10 share;
* burstiness ``B = (σ - μ) / (σ + μ)`` per item (≈0 Poisson, →1 bursty,
  →-1 periodic);
* predictability of the heaviest items' server sequences via the
  suffix-array :func:`~repro.workloads.predictability.lz_entropy_rate`
  and the Fano bound
  :func:`~repro.workloads.predictability.max_predictability`.

The item-major pass runs in C (``kernels/_profile.c``) when the compiled
kernels are in use (:func:`repro.kernels.batch.batch_sweep_backend`)
and no item's times fall in row order: a count pass and a gap scan over
the mapped columns write the gaps item-major, and a binning kernel
places each one with a log estimate fixed up exactly against the edges.
The numpy path (:func:`_scan_numpy`: one stable ``np.lexsort`` on a
:func:`~repro.kernels.prescan.sort_key`, a masked ``np.diff``,
``searchsorted`` binning and weighted bincounts) runs every other trace,
is the fallback without a compiler and is the oracle of
``tests/workloads/test_profile_kernel.py``.  Both hand the same arrays
to the same numpy code for the means and deviations, so every byte of
:class:`WorkloadStats` is the same on either path.

The sweep never materialises :class:`TraceRecord` lists — everything is
whole-array work over (chunked) memmap reads, so RSS is bounded by a
few flat arrays of ``rows`` scalars (~24 bytes/row), two orders of
magnitude below record materialisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, NoReturn, Optional, Tuple, Union

import numpy as np

from ..core.types import InvalidInstanceError
from ..kernels.prescan import MAX_SERVERS, sort_key
from .columnar import ColumnarTrace, _bad_item_id
from .predictability import (
    empirical_entropy,
    lz_entropy_rate,
    max_predictability,
)

__all__ = ["ItemStats", "WorkloadStats", "profile_trace"]


def _nan_to_none(x: float) -> Optional[float]:
    return None if x != x else float(x)


@dataclass(frozen=True)
class ItemStats:
    """Profile of a single (heavy) item."""

    name: str
    requests: int
    share: float
    mean_interarrival: float  # nan with < 2 requests
    burstiness: float  # nan with < 3 requests
    entropy_rate: Optional[float] = None  # bits/request, if profiled
    zeroth_order_entropy: Optional[float] = None
    max_predictability: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "requests": self.requests,
            "share": self.share,
            "mean_interarrival": _nan_to_none(self.mean_interarrival),
            "burstiness": _nan_to_none(self.burstiness),
            "entropy_rate": self.entropy_rate,
            "zeroth_order_entropy": self.zeroth_order_entropy,
            "max_predictability": self.max_predictability,
        }


@dataclass
class WorkloadStats:
    """Everything one profiler sweep learns about a trace."""

    rows: int
    num_items: int
    num_servers: int
    t_start: float
    t_end: float
    item_counts: np.ndarray  # int64 [num_items]
    server_counts: np.ndarray  # int64 [num_servers]
    interarrival_edges: np.ndarray  # float64 [bins + 1], log-spaced
    interarrival_hist: np.ndarray  # int64 [bins]
    interarrival_mean: float  # nan if no same-item pairs
    interarrival_cv: float  # coefficient of variation (nan likewise)
    burstiness: np.ndarray  # float64 [num_items], nan where undefined
    burstiness_mean: float  # mean over defined items (nan if none)
    zipf_exponent: float  # log-log rank/count slope (nan if < 2 ranks)
    top1_share: float
    top10_share: float
    mean_max_predictability: float  # over profiled top items (nan if none)
    top_items: List[ItemStats] = field(default_factory=list)
    item_table: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self, top: int = 10) -> Dict[str, object]:
        """JSON-safe summary (NaN → null, arrays → lists)."""
        return {
            "rows": self.rows,
            "num_items": self.num_items,
            "num_servers": self.num_servers,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "server_counts": [int(c) for c in self.server_counts],
            "interarrival": {
                "edges": [float(e) for e in self.interarrival_edges],
                "hist": [int(c) for c in self.interarrival_hist],
                "mean": _nan_to_none(self.interarrival_mean),
                "cv": _nan_to_none(self.interarrival_cv),
            },
            "burstiness_mean": _nan_to_none(self.burstiness_mean),
            "zipf_exponent": _nan_to_none(self.zipf_exponent),
            "top1_share": self.top1_share,
            "top10_share": self.top10_share,
            "mean_max_predictability": _nan_to_none(
                self.mean_max_predictability
            ),
            "top_items": [it.to_dict() for it in self.top_items[:top]],
        }

    def describe(self, top: int = 10) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"rows={self.rows}  items={self.num_items}  "
            f"servers={self.num_servers}  duration={self.duration:.6g}",
            f"interarrival: mean={self.interarrival_mean:.6g}  "
            f"cv={self.interarrival_cv:.4g}",
            f"popularity: zipf_exponent={self.zipf_exponent:.4g}  "
            f"top1={self.top1_share:.2%}  top10={self.top10_share:.2%}",
            f"burstiness(mean)={self.burstiness_mean:.4g}  "
            f"max_predictability(mean)={self.mean_max_predictability:.4g}",
            "",
            f"{'item':<20} {'requests':>9} {'share':>7} {'mean-gap':>10} "
            f"{'burst':>7} {'S':>7} {'Pi_max':>7}",
        ]
        for it in self.top_items[:top]:
            s = "-" if it.entropy_rate is None else f"{it.entropy_rate:.3f}"
            pi = (
                "-"
                if it.max_predictability is None
                else f"{it.max_predictability:.3f}"
            )
            gap = (
                "-"
                if it.mean_interarrival != it.mean_interarrival
                else f"{it.mean_interarrival:.4g}"
            )
            burst = (
                "-"
                if it.burstiness != it.burstiness
                else f"{it.burstiness:.3f}"
            )
            lines.append(
                f"{it.name[:20]:<20} {it.requests:>9} {it.share:>7.2%} "
                f"{gap:>10} {burst:>7} {s:>7} {pi:>7}"
            )
        return "\n".join(lines)


def _checked_counts(
    trace: ColumnarTrace, chunk_rows: int
) -> Tuple[np.ndarray, float, float]:
    """(server_counts, t_min, t_max) in one chunked pass over checked rows.

    Raises :class:`InvalidInstanceError` at the first row whose item id
    lies outside the item table, whose server id lies outside ``[0,``
    :data:`~repro.kernels.prescan.MAX_SERVERS` ``)`` or whose time is
    not finite, before anything is counted or sized by it.
    """
    size = len(trace.item_table)
    server_parts: List[np.ndarray] = []
    t_min, t_max = math.inf, -math.inf
    rows = trace.rows
    for lo in range(0, rows, chunk_rows):
        hi = min(lo + chunk_rows, rows)
        ids = np.asarray(trace.item_ids[lo:hi])
        servers = np.asarray(trace.servers[lo:hi])
        times = np.asarray(trace.times[lo:hi])
        first, last = float(times.min()), float(times.max())
        if (
            ids.min() < 0
            or ids.max() >= size
            or servers.min() < 0
            or servers.max() >= MAX_SERVERS
            or not (math.isfinite(first) and math.isfinite(last))
        ):
            _refuse_row(lo, ids, servers, times, size)
        server_parts.append(np.bincount(servers))
        t_min = min(t_min, first)
        t_max = max(t_max, last)
    width = max(p.shape[0] for p in server_parts)
    server_counts = np.zeros(width, dtype=np.int64)
    for p in server_parts:
        server_counts[: p.shape[0]] += p
    return server_counts, t_min, t_max


def _refuse_row(
    lo: int, ids: np.ndarray, servers: np.ndarray, times: np.ndarray, size: int
) -> NoReturn:
    """Raise for the first bad row of a chunk that starts at row ``lo``."""
    item_bad = (ids < 0) | (ids >= size)
    server_bad = (servers < 0) | (servers >= MAX_SERVERS)
    j = int(np.argmax(item_bad | server_bad | ~np.isfinite(times)))
    if item_bad[j]:
        raise _bad_item_id(lo + j, int(ids[j]), size)
    if server_bad[j]:
        raise InvalidInstanceError(
            f"trace row {lo + j} has server id {int(servers[j])}, outside "
            f"[0, {MAX_SERVERS})"
        )
    raise InvalidInstanceError(
        f"trace row {lo + j} has time {float(times[j])!r}; times must be finite"
    )


class _Scan(NamedTuple):
    """What the item-major pass hands the rest of the profile."""

    item_counts: np.ndarray  # int64 [num_items]
    gaps: np.ndarray  # float64: per item (ids ascending), its gaps in time order
    edges: np.ndarray  # float64 [bins + 1]
    hist: np.ndarray  # int64 [bins]
    gap_sum: np.ndarray  # float64 [num_items]
    gap_sq: np.ndarray  # float64 [num_items]
    sequences: Dict[int, np.ndarray]  # profiled item -> its first servers


def _heaviest(item_counts: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` heaviest item ids: count descending, then id ascending."""
    return np.lexsort((np.arange(item_counts.shape[0]), -item_counts))[:n]


def _profiled(item_counts: np.ndarray, predictability_items: int) -> List[int]:
    """Items that get a predictability estimate: the heaviest with >= 2 rows."""
    top = _heaviest(item_counts, max(int(predictability_items), 0))
    return [int(k) for k in top if item_counts[k] >= 2]


def _edges(smallest: float, largest: float, bins: int) -> np.ndarray:
    """Log-spaced histogram edges from the smallest positive gap to the
    largest; ``smallest = inf`` means no positive gap."""
    if smallest == math.inf:  # no gaps, or all zero (fully tied stamps)
        return np.geomspace(1e-9, 1.0, bins + 1)
    return np.geomspace(smallest, float(max(largest, smallest * (1 + 1e-9))), bins + 1)


def _scan_numpy(
    trace: ColumnarTrace,
    bins: int,
    predictability_items: int,
    predictability_cap: int,
    chunk_rows: int,
) -> _Scan:
    """The item-major pass in numpy.

    The fallback without a C compiler, the path for every trace
    :func:`_scan_c` does not take, and its test oracle.
    """
    n_items = len(trace.item_table)
    item_counts = np.zeros(n_items, dtype=np.int64)
    for lo in range(0, trace.rows, chunk_rows):
        ids = np.asarray(trace.item_ids[lo : lo + chunk_rows])
        item_counts += np.bincount(ids, minlength=n_items)

    # One stable lexsort groups rows item-major, time-ordered within the
    # item; every per-item interarrival gap is then a masked diff.
    ids = np.asarray(trace.item_ids).astype(np.int64, copy=False)
    times = np.asarray(trace.times).astype(np.float64, copy=False)
    order = np.lexsort((times, sort_key(ids)))
    ids_sorted = ids[order]
    times_sorted = times[order]
    same_item = ids_sorted[1:] == ids_sorted[:-1]
    diffs = np.diff(times_sorted)[same_item]
    diff_items = ids_sorted[1:][same_item]
    positive = diffs[diffs > 0]
    edges = _edges(
        float(positive.min()) if positive.size else math.inf,
        float(diffs.max()) if diffs.size else -math.inf,
        bins,
    )
    idx = np.clip(np.searchsorted(edges, diffs, side="right") - 1, 0, bins - 1)
    hist = np.bincount(idx, minlength=bins).astype(np.int64)
    # Per-item gap moments via weighted bincounts.
    gap_sum = np.bincount(diff_items, weights=diffs, minlength=n_items)
    gap_sq = np.bincount(diff_items, weights=diffs * diffs, minlength=n_items)

    profiled = _profiled(item_counts, predictability_items)
    servers_sorted = np.asarray(trace.servers)[order]
    item_lo = np.searchsorted(ids_sorted, profiled, side="left")
    item_hi = np.searchsorted(ids_sorted, profiled, side="right")
    sequences = {
        k: servers_sorted[a:b][:predictability_cap]
        for k, a, b in zip(profiled, item_lo.tolist(), item_hi.tolist())
    }
    return _Scan(item_counts, diffs, edges, hist, gap_sum, gap_sq, sequences)


def _scan_c(
    trace: ColumnarTrace,
    bins: int,
    predictability_items: int,
    predictability_cap: int,
) -> Optional[_Scan]:
    """:func:`_scan_numpy` in C (``kernels/_profile.c``), or ``None``.

    ``repro_pack_count`` counts each item's rows and flags the items
    whose times fall in row order.  When none falls, row order within an
    item is its stable time order, so ``repro_profile_gaps`` reads the
    numpy path's gaps, in its order, straight off the mapped columns;
    ``repro_profile_bins`` bins them exactly as ``searchsorted`` does.
    ``None`` sends the call to :func:`_scan_numpy`: on the Python
    backend, for a column that is not native-endian and contiguous,
    when an item's times fall, and when the edges are not finite and
    non-decreasing (a gap overflowed).
    """
    from ..kernels.batch import (
        _FALL,
        _addr,
        _count_rows,
        _load_sweep_lib,
        _resolve_backend,
        _starts,
    )

    if _resolve_backend() != "c":
        return None
    rows, size = trace.rows, len(trace.item_table)
    counted = _count_rows(trace, np.ones(size, dtype=np.uint8))
    if counted is None:
        return None
    (times, servers, ids), bad, counts, flags = counted
    if bad >= 0 or (flags & _FALL).any():
        return None

    profiled = _profiled(counts, predictability_items)
    scap = np.zeros(size, dtype=np.int64)
    scap[profiled] = [len(range(int(counts[k]))[:predictability_cap]) for k in profiled]
    per_item = np.maximum(counts - 1, 0)
    ngaps, nseq = int(per_item.sum()), int(scap.sum())
    goff, soff = _starts(per_item), _starts(scap)
    gaps = np.empty(ngaps, dtype=np.float64)
    gap_sum, gap_sq = np.zeros(size), np.zeros(size)
    seq = np.empty(nseq, dtype=np.int32)
    seen = np.zeros(size, dtype=np.int64)
    last = np.empty(size, dtype=np.float64)
    span = np.empty(2, dtype=np.float64)
    lib = _load_sweep_lib()
    moved = lib.repro_profile_gaps(
        rows,
        times,
        servers,
        ids,
        size,
        *[_addr(a, np.int64, size) for a in (counts, goff, soff, scap)],
        _addr(seen, np.int64, size, out=True),
        _addr(last, np.float64, size, out=True),
        _addr(gaps, np.float64, ngaps, out=True),
        _addr(gap_sum, np.float64, size, out=True),
        _addr(gap_sq, np.float64, size, out=True),
        _addr(seq, np.int32, nseq, out=True),
        _addr(span, np.float64, 2, out=True),
    )
    if moved >= 0:  # the columns changed since the count
        return None
    edges = _edges(float(span[0]), float(span[1]), bins)
    if not (np.isfinite(edges).all() and (edges[1:] >= edges[:-1]).all()):
        return None
    hist = np.zeros(bins, dtype=np.int64)
    lib.repro_profile_bins(
        ngaps,
        _addr(gaps, np.float64, ngaps),
        bins,
        _addr(edges, np.float64, bins + 1),
        _addr(hist, np.int64, bins, out=True),
    )
    sequences = {k: seq[soff[k] : soff[k] + scap[k]] for k in profiled}
    return _Scan(counts, gaps, edges, hist, gap_sum, gap_sq, sequences)


def profile_trace(
    trace: Union[ColumnarTrace, str, Path],
    bins: int = 48,
    predictability_items: int = 8,
    predictability_cap: int = 4000,
    top_items: int = 10,
    chunk_rows: int = 1 << 20,
) -> WorkloadStats:
    """Profile a columnar trace in one memmap-native sweep.

    Parameters
    ----------
    bins:
        Log-spaced interarrival histogram bins.
    predictability_items:
        How many of the heaviest items get an LZ entropy-rate /
        Fano-bound predictability estimate (their server sequences are
        capped at ``predictability_cap`` requests — the estimator
        converges long before that).
    top_items:
        How many :class:`ItemStats` rows to keep (at least
        ``predictability_items``).

    Raises :class:`InvalidInstanceError` for an empty trace and at the
    first row whose item id lies outside the item table, whose server
    id lies outside ``[0,`` :data:`~repro.kernels.prescan.MAX_SERVERS`
    ``)`` or whose time is not finite.  The item-major pass runs in C
    when it provably equals the numpy path (:func:`_scan_c`), which
    runs otherwise; the result is the same to the byte.
    """
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.open(trace)
    if trace.rows == 0:
        raise InvalidInstanceError("cannot profile an empty trace")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    n_items = len(trace.item_table)
    server_counts, t_min, t_max = _checked_counts(trace, chunk_rows)
    num_servers = server_counts.shape[0]
    scan = _scan_c(trace, bins, predictability_items, predictability_cap)
    if scan is None:
        scan = _scan_numpy(
            trace, bins, predictability_items, predictability_cap, chunk_rows
        )
    item_counts, diffs = scan.item_counts, scan.gaps

    if diffs.size:
        mean = float(diffs.mean())
        std = float(diffs.std())
        cv = std / mean if mean > 0 else math.nan
    else:
        mean = cv = math.nan

    # Per-item gap moments -> burstiness.
    gap_n = np.maximum(item_counts - 1, 0).astype(np.float64)
    gap_sum, gap_sq = scan.gap_sum, scan.gap_sq
    burst = np.full(n_items, math.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        defined = gap_n >= 2
        mu_i = np.where(gap_n > 0, gap_sum / np.maximum(gap_n, 1), math.nan)
        var_i = gap_sq / np.maximum(gap_n, 1) - mu_i * mu_i
        sigma_i = np.sqrt(np.maximum(var_i, 0.0))
        denom = sigma_i + mu_i
        ok = defined & (denom > 0)
        burst[ok] = ((sigma_i - mu_i) / denom)[ok]
    burst_mean = (
        float(np.nanmean(burst)) if np.isfinite(burst).any() else math.nan
    )

    # Popularity skew.
    counts_desc = np.sort(item_counts[item_counts > 0])[::-1]
    total = float(item_counts.sum())
    top1 = float(counts_desc[0]) / total if counts_desc.size else 0.0
    top10 = float(counts_desc[:10].sum()) / total if counts_desc.size else 0.0
    if counts_desc.size >= 2:
        ranks = np.arange(1, counts_desc.shape[0] + 1, dtype=np.float64)
        slope = np.polyfit(np.log(ranks), np.log(counts_desc), 1)[0]
        zipf = float(-slope)
    else:
        zipf = math.nan

    # Heaviest items: stats rows + predictability of server sequences.
    n_top = max(int(top_items), int(predictability_items))
    top_rows: List[ItemStats] = []
    pis: List[float] = []
    for j, item_id in enumerate(_heaviest(item_counts, n_top)):
        cnt = int(item_counts[item_id])
        if cnt == 0:
            continue
        entropy = h0 = pi = None
        if j < predictability_items and cnt >= 2:
            seq = scan.sequences[int(item_id)]
            entropy = lz_entropy_rate(seq)
            h0 = empirical_entropy(seq)
            pi = max_predictability(entropy, num_servers)
            pis.append(pi)
        top_rows.append(
            ItemStats(
                name=trace.item_table[int(item_id)],
                requests=cnt,
                share=cnt / total,
                mean_interarrival=float(mu_i[item_id])
                if gap_n[item_id] > 0
                else math.nan,
                burstiness=float(burst[item_id]),
                entropy_rate=entropy,
                zeroth_order_entropy=h0,
                max_predictability=pi,
            )
        )
    return WorkloadStats(
        rows=trace.rows,
        num_items=n_items,
        num_servers=num_servers,
        t_start=t_min,
        t_end=t_max,
        item_counts=item_counts,
        server_counts=server_counts,
        interarrival_edges=scan.edges,
        interarrival_hist=scan.hist,
        interarrival_mean=mean,
        interarrival_cv=cv,
        burstiness=burst,
        burstiness_mean=burst_mean,
        zipf_exponent=zipf,
        top1_share=top1,
        top10_share=top10,
        mean_max_predictability=float(np.mean(pis)) if pis else math.nan,
        top_items=top_rows,
        item_table=trace.item_table,
    )
