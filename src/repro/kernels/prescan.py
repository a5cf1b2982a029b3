"""Vectorized pre-scan: request checks, ``p/σ/b/B`` arrays, pivot matrix.

:func:`check_columns` is the one check of packed request columns:
:meth:`~repro.kernels.batch.BatchLayout.from_columns` runs it on a
batch and :class:`~repro.core.instance.ProblemInstance` on its one
item, so both refuse the same inputs with the same messages.
:func:`_integer` is the one integer rule for the fleet sizes, origins
and server ids that constructors take, and :func:`_fleet` the check of
a solver's fleet and origin.  :func:`prescan_columns` is the
pre-scan (proof of Theorem 2) of one instance's checked columns: a
stable ``argsort`` on a :func:`sort_key` groups the rows by server and
one ``cumsum`` sums the bounds.  An instance runs it on the first read
of its ``p``/``σ``/``b``/``B`` arrays, which the reference DP sweep,
the bounds, the reductions and schedule reconstruction read; the
batched DP sweeps keep the same values in per-server registers and
read none of them.  The reference DP sweep's pivot pointer matrix
(Fig. 5) is built here too.  Everything here is whole-array numpy
(``minimum.accumulate`` for the matrix's suffix sweep).

Functions are array-in/array-out and import :mod:`repro.core` only to
raise its error; ``tests/offline/test_kernels.py`` pins them to the
``*_reference`` loop twins below, the executable specification.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, NoReturn, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_SERVERS",
    "sort_key",
    "per_server_lists",
    "check_columns",
    "prescan_columns",
    "build_pivot_matrix",
]

#: The largest fleet size ``m`` any instance, batch or profile takes.
#: Per-server arrays (the DP sweep's scratch, a profile's server counts)
#: are sized by ``m``, so one stray server id must not size them.
MAX_SERVERS = 1 << 20


def _integer(value, what: str):
    """``value`` as an ``int``, or an array of them as ``int64``.

    The one integer rule for fleet sizes, origins and server ids on
    every construction path: a Python or numpy integer, or an array of
    any integer dtype, passes; a bool, a float (``2.0`` too) or a string
    raises :class:`~repro.core.types.InvalidInstanceError` where
    ``int()`` would truncate or parse it.  An empty array passes
    whatever its dtype.  Ranges are the caller's check.
    """
    from ..core.types import InvalidInstanceError

    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu" or value.size == 0:
            return value.astype(np.int64, copy=False)
        raise InvalidInstanceError(f"{what} must be integers, got dtype {value.dtype}")
    if value.__class__ is not int and not isinstance(value, np.integer):
        raise InvalidInstanceError(f"{what} {value!r} is not an integer")
    return int(value)


def _fleet(num_servers, origin) -> Tuple[int, int]:
    """``(m, origin)`` of a solver's fleet, as ``int``.

    Raises :class:`~repro.core.types.InvalidInstanceError`, naming the
    argument, unless both are integers (:func:`_integer`) with
    ``1 <= m <=`` :data:`MAX_SERVERS` and ``0 <= origin < m``.
    """
    from ..core.types import InvalidInstanceError

    m, origin = _integer(num_servers, "num_servers"), _integer(origin, "origin")
    if not 1 <= m <= MAX_SERVERS:
        raise InvalidInstanceError(f"num_servers must be in [1, {MAX_SERVERS}], got {m}")
    if not 0 <= origin < m:
        raise InvalidInstanceError(f"origin {origin} outside [0, {m})")
    return m, origin


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


def check_columns(
    t: np.ndarray,
    srv: np.ndarray,
    off: np.ndarray,
    mserv: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
    names: Optional[Sequence[str]] = None,
) -> None:
    """The one check of packed request columns.

    ``t`` and ``srv`` hold the items back to back: item ``k`` starts at
    ``off[k]`` with its boundary request ``r_0``, so ``srv[off]`` are
    the origins; the ``mserv``, ``mu`` and ``lam`` arrays have one entry
    per item.  Raises :class:`~repro.core.types.InvalidInstanceError`,
    prefixed ``item 'name': `` when ``names`` is given, for columns not
    laid out this way, a ``mu`` or ``lam`` that is not finite and
    positive (with :class:`~repro.core.types.CostModel`'s message),
    ``m < 1`` or ``m >`` :data:`MAX_SERVERS`, an origin or server id
    outside ``[0, m)``, a non-finite time, or times that do not strictly
    increase within an item.
    """

    def fail(detail: str, k: Optional[int] = None) -> NoReturn:
        from ..core.types import InvalidInstanceError

        where = "" if names is None or k is None else f"item {names[k]!r}: "
        raise InvalidInstanceError(where + detail)

    if not (
        t.ndim == srv.ndim == off.ndim == 1
        and t.shape == srv.shape
        and mserv.shape == mu.shape == lam.shape == off.shape != (0,)
        and (names is None or (len(names),) == off.shape)
        and off[0] == 0
        and off[-1] < t.shape[0]
        and (off[1:] > off[:-1]).all()
    ):
        fail(
            f"packed columns need at least one item, equal-length 1-D times "
            f"and servers (shapes {t.shape}, {srv.shape}), offsets rising "
            f"from 0 below that length and one m, mu, lam (and name) per item"
        )
    # np.minimum and np.maximum propagate NaN, which fails both tests.
    priced = (np.minimum(mu, lam) > 0) & (np.maximum(mu, lam) < np.inf)
    if not priced.all():
        k = int(np.argmin(priced))
        name, cost = ("mu", mu[k]) if not 0 < mu[k] < np.inf else ("lam", lam[k])
        fail(f"{name} must be a finite positive float, got {float(cost)}", k)
    huge = mserv > MAX_SERVERS
    if huge.any():
        k = int(np.argmax(huge))
        fail(f"need at most {MAX_SERVERS} servers, got m={int(mserv[k])}", k)
    total, items = t.shape[0], off.shape[0]
    bounds = off.tolist() + [total]  # item k owns bounds[k]:bounds[k + 1]
    out = (
        (mserv < 1)
        | (np.minimum.reduceat(srv, off) < 0)
        | (np.maximum.reduceat(srv, off) >= mserv)
    )
    if out.any():
        k = int(np.argmax(out))
        m, ids = int(mserv[k]), srv[bounds[k] : bounds[k + 1]]
        if m < 1:
            fail(f"need at least one server, got m={m}", k)
        if not 0 <= ids[0] < m:
            fail(f"origin {int(ids[0])} outside [0, {m})", k)
        bad = int(ids[np.argmax((ids < 0) | (ids >= m))])
        fail(f"server ids must lie in [0, {m}); got {bad}", k)
    finite = np.isfinite(t)
    if not finite.all():
        j = int(np.argmin(finite))
        k = bisect_right(bounds, j) - 1
        fail(f"request times must be finite; got t={t[j]} at index {j - bounds[k]}", k)
    rising = t[1:] > t[:-1]
    if items > 1:
        rising[off[1:] - 1] = True  # item seams
    if not rising.all():
        j = int(np.argmin(rising))
        k = bisect_right(bounds, j) - 1
        fail(
            f"request times must be strictly increasing after t_0={t[bounds[k]]}; "
            f"violation at index {j + 1 - bounds[k]} (t={t[j + 1]})",
            k,
        )


def prescan_columns(
    t: np.ndarray, srv: np.ndarray, m: int, mu: float, lam: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pre-scan one instance's request columns: ``(p, sigma, b, B)``.

    ``t`` (float64) and ``srv`` (int64) start with the boundary request
    ``r_0`` and are columns :func:`check_columns` accepts as one item
    with fleet size ``m`` and costs ``mu``, ``lam``; nothing is checked
    again here.  Returns ``p`` (``-1`` for the dummy ``r_{-j}``),
    ``sigma`` (``inf`` there), ``b = min(λ, μσ)`` (``0`` at ``r_0``) and
    its running sum ``B`` — the proof of Theorem 2.
    """
    # Group by server: one stable argsort keeps time order inside each
    # group, so equal neighbours of the gathered key are exactly the
    # (predecessor, successor) pairs.
    key = sort_key(srv)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    same = ordered[1:] == ordered[:-1]
    del key, ordered
    succ, pred = order[1:][same], order[:-1][same]
    del order, same
    sigma = np.full(t.shape[0], np.inf)
    sigma[succ] = t[succ] - t[pred]
    p = np.full(t.shape[0], -1, dtype=np.int64)
    p[succ] = pred
    del succ, pred
    b = np.multiply(mu, sigma)
    np.minimum(lam, b, out=b)
    b[0] = 0.0
    return p, sigma, b, np.cumsum(b)


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
    """Loop twin of :func:`prescan_columns`' ``p`` (per-server slice writes)."""
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
