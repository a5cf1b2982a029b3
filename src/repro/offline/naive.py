"""Reference off-line solvers: the straightforward ``O(n²)`` sweep.

The paper notes (Section IV) that a direct implementation of Recurrences
(2) and (5) runs in ``O(n²)`` because computing ``D(i)`` may check up to
``O(n)`` previous requests.  This module implements exactly that — the
cover set ``π(i) = {k : p(k) < p(i) ≤ k < i}`` is found by scanning all
earlier indices — and serves two purposes:

* a correctness oracle for the fast ``O(mn)`` solver (both must produce
  identical ``C``/``D`` vectors on every instance), and
* the "previous algorithm" baseline in the speed-up benchmark that
  reproduces the paper's Contribution 1 comparison (the paper compares
  against Veeravalli's ``O(n m² log m)`` algorithm, which is not published
  in a reproducible form; the ``O(n²)`` sweep plus the binary-search
  variant below bracket it — see DESIGN.md §2, Substitutions).

``solve_offline_bisect`` is the intermediate variant: identical DP, but
pivot candidates located by per-server binary search (``O(n m log n)``
time, ``O(n + m)`` extra space).
"""

from __future__ import annotations

import numpy as np

from ..core.instance import PivotLookup, ProblemInstance
from .result import FROM_C, FROM_D, OfflineResult

__all__ = ["solve_offline_naive", "solve_offline_bisect"]


def solve_offline_naive(instance: ProblemInstance) -> OfflineResult:
    """Solve by the direct ``O(n²)`` implementation of the recurrences."""
    n = instance.n
    t = instance.t
    p, sigma, B = instance.p, instance.sigma, instance.B
    mu, lam = instance.cost.mu, instance.cost.lam

    C = np.zeros(n + 1, dtype=np.float64)
    D = np.full(n + 1, np.inf, dtype=np.float64)
    served_by_cache = np.zeros(n + 1, dtype=bool)
    choice_d_tag = np.full(n + 1, -1, dtype=np.int64)
    choice_d_k = np.full(n + 1, -1, dtype=np.int64)

    for i in range(1, n + 1):
        q = int(p[i])
        if q >= 0:
            best = C[q] - B[q]
            tag, arg = FROM_C, q
            # Direct scan for π(i): every k < i with p(k) < p(i) <= k.
            for k in range(1, i):
                if p[k] < q <= k:
                    v = D[k] - B[k]
                    if v < best:
                        best, tag, arg = v, FROM_D, k
            # r_0 qualifies when q == 0 (k = 0, p(0) = -1 < 0 <= 0); its
            # D is +inf so it never wins, matching the fast solver.
            D[i] = best + mu * sigma[i] + B[i - 1]
            choice_d_tag[i] = tag
            choice_d_k[i] = arg
        via_transfer = C[i - 1] + mu * (t[i] - t[i - 1]) + lam
        if D[i] <= via_transfer:
            C[i] = D[i]
            served_by_cache[i] = True
        else:
            C[i] = via_transfer

    return OfflineResult(
        instance=instance,
        C=C,
        D=D,
        served_by_cache=served_by_cache,
        choice_d_tag=choice_d_tag,
        choice_d_k=choice_d_k,
        solver="naive-dp",
    )


def solve_offline_bisect(instance: ProblemInstance) -> OfflineResult:
    """Solve with binary-search pivot lookup (``O(n m log n)``).

    Functionally identical to :func:`repro.offline.dp.solve_offline`; kept
    as a distinct entry point so the scaling benchmark can chart all three
    complexity classes side by side.
    """
    n = instance.n
    t = instance.t
    p, sigma, B = instance.p, instance.sigma, instance.B
    mu, lam = instance.cost.mu, instance.cost.lam
    lookup = PivotLookup(instance.srv, instance.num_servers)
    m = instance.num_servers

    C = np.zeros(n + 1, dtype=np.float64)
    D = np.full(n + 1, np.inf, dtype=np.float64)
    served_by_cache = np.zeros(n + 1, dtype=bool)
    choice_d_tag = np.full(n + 1, -1, dtype=np.int64)
    choice_d_k = np.full(n + 1, -1, dtype=np.int64)

    for i in range(1, n + 1):
        q = int(p[i])
        if q >= 0:
            best = C[q] - B[q]
            tag, arg = FROM_C, q
            for server_j in range(m):
                k = lookup.first_at_or_after(server_j, q)
                if 0 <= k < i:
                    v = D[k] - B[k]
                    if v < best:
                        best, tag, arg = v, FROM_D, k
            D[i] = best + mu * sigma[i] + B[i - 1]
            choice_d_tag[i] = tag
            choice_d_k[i] = arg
        via_transfer = C[i - 1] + mu * (t[i] - t[i - 1]) + lam
        if D[i] <= via_transfer:
            C[i] = D[i]
            served_by_cache[i] = True
        else:
            C[i] = via_transfer

    return OfflineResult(
        instance=instance,
        C=C,
        D=D,
        served_by_cache=served_by_cache,
        choice_d_tag=choice_d_tag,
        choice_d_k=choice_d_k,
        solver="bisect-dp",
    )
