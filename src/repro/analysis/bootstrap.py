"""Bootstrap confidence intervals for benchmark statistics.

Ratio studies report means over a handful of seeds; without error bars
those means over-claim.  This module adds nonparametric bootstrap CIs
(percentile method) for any per-instance statistic, so benchmark tables
can print ``mean [lo, hi]`` instead of bare points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "BootstrapCI",
    "bootstrap_ci",
    "bootstrap_mean_ratio",
    "bootstrap_t_ci",
]


@dataclass(frozen=True)
class BootstrapCI:
    """A point estimate with its bootstrap interval.

    Attributes
    ----------
    estimate:
        The statistic on the full sample.
    lo, hi:
        Percentile-bootstrap confidence bounds.
    confidence:
        Nominal coverage (e.g. 0.95).
    resamples:
        Bootstrap iterations used.
    """

    estimate: float
    lo: float
    hi: float
    confidence: float
    resamples: int

    def __contains__(self, value: float) -> bool:
        return self.lo - 1e-12 <= value <= self.hi + 1e-12

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4g} "
            f"[{self.lo:.4g}, {self.hi:.4g}]@{self.confidence:.0%}"
        )


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapCI:
    """Percentile-bootstrap CI for ``statistic`` over ``sample``.

    Parameters
    ----------
    sample:
        Observations (at least one).
    statistic:
        Reducer applied to each resample (default: mean).
    confidence:
        Nominal two-sided coverage in ``(0, 1)``.
    resamples:
        Bootstrap iterations.
    rng:
        Generator (defaults to a fixed seed so tables are reproducible).
    """
    data = np.asarray(list(sample), dtype=np.float64)
    if data.size == 0:
        raise ValueError("need a non-empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    g = rng if rng is not None else np.random.default_rng(0)
    idx = g.integers(0, data.size, size=(resamples, data.size))
    stats = np.apply_along_axis(statistic, 1, data[idx])
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        estimate=float(statistic(data)),
        lo=float(np.quantile(stats, alpha)),
        hi=float(np.quantile(stats, 1.0 - alpha)),
        confidence=confidence,
        resamples=resamples,
    )


def bootstrap_t_ci(
    sample: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
) -> BootstrapCI:
    """Bootstrap-*t* (studentized) CI for the **mean** of ``sample``.

    Resamples the t-statistic ``(mean* - mean) / se*`` and inverts its
    empirical quantiles around the analytic standard error — second-order
    accurate, so it keeps closer-to-nominal coverage than the percentile
    method on small, skewed samples (Hall 1988).  The trace-sampling
    estimator leans on this: at a 1-5% item sample the tail often holds
    only 10-30 observations.

    Degenerate samples (fewer than two points, or zero variance) return
    a point interval.
    """
    data = np.asarray(list(sample), dtype=np.float64)
    if data.size == 0:
        raise ValueError("need a non-empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    n = data.size
    mean = float(data.mean())
    if n < 2 or float(data.std(ddof=1)) == 0.0:
        return BootstrapCI(mean, mean, mean, confidence, resamples)
    se = float(data.std(ddof=1)) / np.sqrt(n)
    g = rng if rng is not None else np.random.default_rng(0)
    idx = g.integers(0, n, size=(resamples, n))
    draws = data[idx]
    r_mean = draws.mean(axis=1)
    r_se = draws.std(axis=1, ddof=1) / np.sqrt(n)
    ok = r_se > 0
    if not ok.any():
        return BootstrapCI(mean, mean, mean, confidence, resamples)
    t = (r_mean[ok] - mean) / r_se[ok]
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        estimate=mean,
        lo=float(mean - np.quantile(t, 1.0 - alpha) * se),
        hi=float(mean - np.quantile(t, alpha) * se),
        confidence=confidence,
        resamples=resamples,
    )


def bootstrap_mean_ratio(
    workload_fn: Callable[[int], object],
    seeds: Sequence[int],
    algo_factory: Callable[[], object],
    confidence: float = 0.95,
) -> BootstrapCI:
    """CI for the mean ALG/OPT ratio over seeded workloads.

    Composes :func:`repro.analysis.competitive.ratio_statistics` over
    ``workload_fn(seed)`` for every seed with :func:`bootstrap_ci`.
    """
    from .competitive import ratio_statistics

    stats = ratio_statistics([workload_fn(int(s)) for s in seeds], algo_factory)
    return bootstrap_ci(stats.ratios, confidence=confidence)
