"""Vectorized instance pre-scan — the ``p/σ/b/B`` arrays and pivot matrix.

:class:`~repro.core.instance.ProblemInstance` construction performs the
paper's pre-scan (proof of Theorem 2); the reference DP sweep builds the
pivot pointer matrix (Fig. 5).  The reference formulation loops:
per-server slices for ``p(i)``, and a backward per-row Python sweep for
the matrix — ``O(n)`` interpreter iterations that would dominate
end-to-end time once the DP sweep itself is fast.  This module computes
the very same arrays with whole-array numpy primitives (a stable
``argsort`` on a :func:`sort_key` plus ``searchsorted`` for grouping,
``minimum.accumulate`` for the suffix sweep), so construction costs a
handful of vector operations regardless of ``n``.

All functions are pure array-in/array-out (no instance types), keeping
the kernel import-free of :mod:`repro.core`; the instance constructor
calls them and the differential tests in ``tests/offline/test_kernels.py``
pin them element-identical to the reference loops (kept below as
``*_reference`` twins — they are the executable specification).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "sort_key",
    "per_server_lists",
    "prev_same_server",
    "prescan_arrays",
    "build_pivot_matrix",
]


def sort_key(values: np.ndarray) -> np.ndarray:
    """``values`` as the narrowest unsigned dtype that holds every value.

    numpy's stable sort is a radix sort for integer keys of 16 bits or
    less, several times faster than the merge/timsort that wider keys
    get.  A cast that keeps every value cannot change a stable
    permutation, so ``np.lexsort``/``argsort(kind="stable")`` on the key
    equal the same sort on ``values``.  The width comes from the array's
    actual maximum, never its dtype (ids read from a file are not
    range-checked), so no value wraps; an empty, non-integer or negative
    array, or one above ``2**32 - 1``, comes back unchanged.
    """
    if values.size == 0 or values.dtype.kind not in "iu" or values.min() < 0:
        return values
    top = int(values.max())
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return values.astype(dtype, copy=False)
    return values


def per_server_lists(servers: np.ndarray, num_servers: int) -> List[np.ndarray]:
    """Sorted request-index lists per server, via one stable argsort.

    ``servers`` is the length ``n+1`` array including ``r_0``; the
    returned list has one ascending index array per server id.
    """
    order = np.argsort(sort_key(servers), kind="stable")
    split = np.searchsorted(servers[order], np.arange(num_servers + 1))
    return [
        np.ascontiguousarray(order[split[j] : split[j + 1]])
        for j in range(num_servers)
    ]


def prev_same_server(servers: np.ndarray) -> np.ndarray:
    """``p[i]`` — index of the previous request on the same server.

    ``-1`` stands in for the dummy requests ``r_{-j}`` (first request on
    a server).  One stable argsort groups requests by server while
    preserving time order inside each group; consecutive entries of the
    same group are exactly the (predecessor, successor) pairs.
    """
    n1 = servers.shape[0]
    p = np.full(n1, -1, dtype=np.int64)
    if n1 < 2:
        return p
    order = np.argsort(sort_key(servers), kind="stable")
    same = servers[order[1:]] == servers[order[:-1]]
    p[order[1:][same]] = order[:-1][same]
    return p


def prescan_arrays(
    t: np.ndarray, servers: np.ndarray, mu: float, lam: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The full pre-scan: ``(p, sigma, b, B)`` for a request vector.

    ``t``/``servers`` are the length ``n+1`` arrays including ``r_0``;
    boundary entries follow the instance contract (``p[0] = -1``,
    ``sigma[0] = inf``, ``b[0] = B[0] = 0``).
    """
    p = prev_same_server(servers)
    with np.errstate(invalid="ignore"):
        sigma = np.where(p >= 0, t - t[np.maximum(p, 0)], np.inf)
    sigma[0] = np.inf
    b = np.minimum(lam, mu * sigma)
    b[0] = 0.0
    B = np.cumsum(b)
    return p, sigma, b, B


def build_pivot_matrix(servers: np.ndarray, num_servers: int) -> np.ndarray:
    """``F[q, j] = min{k >= q : srv[k] == j}`` (``-1`` = none) — Fig. 5.

    Scatter each request index into its server's column, then one
    reversed in-place ``minimum.accumulate`` turns the columns into
    suffix-minima; the extra all ``-1`` row ``F[n+1]`` matches the
    reference layout.  The matrix is ``int32`` (request indices stay
    below ``2**31``), halving the memory traffic of the build.  It costs
    ``O(mn)`` memory, so only the reference DP sweep builds it.
    """
    n1 = servers.shape[0]
    F = np.full((n1 + 1, num_servers), n1, dtype=np.int32)
    F[np.arange(n1), servers] = np.arange(n1, dtype=np.int32)
    rev = F[::-1]
    np.minimum.accumulate(rev, axis=0, out=rev)
    F[F == n1] = -1
    return F


# ---------------------------------------------------------------------------
# Reference twins — the original loop formulations, kept verbatim as the
# executable specification for the differential suite.  Not used on any
# hot path.
# ---------------------------------------------------------------------------


def prev_same_server_reference(
    per_server: List[np.ndarray], n1: int
) -> np.ndarray:
    """Loop twin of :func:`prev_same_server` (per-server slice writes)."""
    p = np.full(n1, -1, dtype=np.int64)
    for idx in per_server:
        if idx.shape[0] > 1:
            p[idx[1:]] = idx[:-1]
    return p


def build_pivot_matrix_reference(servers: np.ndarray, m: int) -> np.ndarray:
    """Loop twin of :func:`build_pivot_matrix` (backward row sweep)."""
    n1 = servers.shape[0]
    F = np.full((n1 + 1, m), -1, dtype=np.int32)
    for q in range(n1 - 1, -1, -1):
        F[q] = F[q + 1]
        F[q, servers[q]] = q
    return F
