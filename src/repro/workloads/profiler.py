"""Single-pass memmap-native workload profiler with bounded RSS.

:func:`profile_trace` sweeps a :class:`ColumnarTrace`'s mapped columns
once and returns :class:`WorkloadStats` — the per-item quantities the
learning-augmented online policies need as their substrate:

* per-item and per-server request counts (chunked ``np.bincount``);
* the interarrival distribution: one stable ``np.lexsort`` (on a
  :func:`~repro.kernels.prescan.sort_key`, so the item ids radix-sort)
  groups rows item-major/time-ordered, ``np.diff`` masked to same-item
  pairs yields every per-item gap, and a log-spaced ``np.bincount``
  histogram plus per-item moment accumulators (weighted bincounts) come
  out of the same arrays;
* popularity skew: Zipf exponent (log-log rank/count fit) and
  top-1/top-10 share;
* burstiness ``B = (σ - μ) / (σ + μ)`` per item (≈0 Poisson, →1 bursty,
  →-1 periodic);
* predictability of the heaviest items' server sequences via the
  suffix-array :func:`~repro.workloads.predictability.lz_entropy_rate`
  and the Fano bound
  :func:`~repro.workloads.predictability.max_predictability`.

The sweep never materialises :class:`TraceRecord` lists — everything is
whole-array numpy over (chunked) memmap reads, so RSS is bounded by a
few flat arrays of ``rows`` scalars (~24 bytes/row), two orders of
magnitude below record materialisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.types import InvalidInstanceError
from ..kernels.prescan import sort_key
from .columnar import ColumnarTrace
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


def _chunked_counts(
    trace: ColumnarTrace, chunk_rows: int
) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """(item_counts, server_counts, t_min, t_max) in one chunked pass."""
    item_counts = np.zeros(len(trace.item_table), dtype=np.int64)
    server_parts: List[np.ndarray] = []
    t_min, t_max = math.inf, -math.inf
    rows = trace.rows
    for lo in range(0, rows, chunk_rows):
        hi = min(lo + chunk_rows, rows)
        ids = np.asarray(trace.item_ids[lo:hi])
        item_counts += np.bincount(ids, minlength=item_counts.shape[0])
        server_parts.append(np.bincount(np.asarray(trace.servers[lo:hi])))
        times = np.asarray(trace.times[lo:hi])
        t_min = min(t_min, float(times.min()))
        t_max = max(t_max, float(times.max()))
    width = max(p.shape[0] for p in server_parts)
    server_counts = np.zeros(width, dtype=np.int64)
    for p in server_parts:
        server_counts[: p.shape[0]] += p
    return item_counts, server_counts, t_min, t_max


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
    """
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.open(trace)
    if trace.rows == 0:
        raise InvalidInstanceError("cannot profile an empty trace")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    n_items = len(trace.item_table)
    item_counts, server_counts, t_min, t_max = _chunked_counts(
        trace, chunk_rows
    )
    num_servers = server_counts.shape[0]

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

    if diffs.size:
        mean = float(diffs.mean())
        std = float(diffs.std())
        cv = std / mean if mean > 0 else math.nan
        positive = diffs[diffs > 0]
        if positive.size:
            lo_edge = float(positive.min())
            hi_edge = float(max(diffs.max(), lo_edge * (1 + 1e-9)))
            edges = np.geomspace(lo_edge, hi_edge, bins + 1)
        else:  # all gaps zero (fully tied stamps)
            edges = np.geomspace(1e-9, 1.0, bins + 1)
        idx = np.clip(
            np.searchsorted(edges, diffs, side="right") - 1, 0, bins - 1
        )
        hist = np.bincount(idx, minlength=bins).astype(np.int64)
    else:
        mean = cv = math.nan
        edges = np.geomspace(1e-9, 1.0, bins + 1)
        hist = np.zeros(bins, dtype=np.int64)

    # Per-item gap moments via weighted bincounts -> burstiness.
    gap_n = np.bincount(diff_items, minlength=n_items).astype(np.float64)
    gap_sum = np.bincount(diff_items, weights=diffs, minlength=n_items)
    gap_sq = np.bincount(diff_items, weights=diffs * diffs, minlength=n_items)
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
    by_count = np.lexsort((np.arange(n_items), -item_counts))[:n_top]
    servers_sorted = np.asarray(trace.servers)[order]
    item_lo = np.searchsorted(ids_sorted, by_count, side="left")
    item_hi = np.searchsorted(ids_sorted, by_count, side="right")
    top_rows: List[ItemStats] = []
    pis: List[float] = []
    for j, item_id in enumerate(by_count):
        cnt = int(item_counts[item_id])
        if cnt == 0:
            continue
        entropy = h0 = pi = None
        if j < predictability_items and cnt >= 2:
            seq = servers_sorted[item_lo[j] : item_hi[j]][:predictability_cap]
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
        interarrival_edges=edges,
        interarrival_hist=hist,
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
