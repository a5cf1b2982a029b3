"""Vectorized pre-scan: request checks, ``p/σ/b/B`` arrays, pivot matrix.

:func:`prescan_columns` is the one check and pre-scan (proof of
Theorem 2) of request columns: :class:`~repro.core.instance.ProblemInstance`
calls it on one item and :meth:`~repro.kernels.batch.BatchLayout.from_columns`
on a packed batch, so both refuse the same inputs with the same messages
and hold the same bytes.  The reference DP sweep's pivot pointer matrix
(Fig. 5) is built here too.

The pre-scan runs in C (``_prescan.c``, one pass per item with a
per-server last-index scratch) when the compiled kernels are in use
(:func:`repro.kernels.batch.batch_sweep_backend`) and the columns are
ones whose result provably equals the numpy path's; see
:func:`_prescan_c` for what it declines.  The numpy path
(:func:`_prescan_numpy`: a stable ``argsort`` on a :func:`sort_key` to
group, ``B`` summed per item) is the fallback without a compiler, runs
every input the C code declines or refuses, raises every message, and
is the oracle of ``tests/offline/test_prescan_pack.py``.  Everything
else here is whole-array numpy (``minimum.accumulate`` for the matrix's
suffix sweep).

Functions are array-in/array-out and import :mod:`repro.core` only to
raise its error, and :mod:`repro.kernels.batch` only when they run (a
server start imports this module but not the compiled kernels);
``tests/offline/test_kernels.py`` pins them to the ``*_reference`` loop
twins below, the executable specification.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MAX_SERVERS",
    "sort_key",
    "per_server_lists",
    "prescan_columns",
    "build_pivot_matrix",
]

#: The largest fleet size ``m`` any instance, batch or profile takes.
#: Per-server arrays (the DP sweep's scratch, a profile's server counts)
#: are sized by ``m``, so one stray server id must not size them.
MAX_SERVERS = 1 << 20


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


def prescan_columns(
    t: np.ndarray,
    srv: np.ndarray,
    off: np.ndarray,
    mserv: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
    names: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check packed request columns and pre-scan them: ``(p, sigma, b, B)``.

    ``t`` (float64) and ``srv`` (int64) hold the items back to back:
    item ``k`` starts at ``off[k]`` with its boundary request ``r_0``, so
    ``srv[off]`` are the origins; the ``mserv``, ``mu`` and ``lam`` arrays
    have one entry per item.  Raises
    :class:`~repro.core.types.InvalidInstanceError`, prefixed ``item
    'name': `` when ``names`` is given, for ``m < 1`` or ``m >``
    :data:`MAX_SERVERS` (before anything is sized by ``m``), an origin
    or server id outside ``[0, m)``, a non-finite time, times that do
    not strictly increase within an item, or columns not laid out this
    way.  Returns
    item-local ``p`` (``-1`` for the dummy ``r_{-j}``), ``sigma``
    (``inf`` there), ``b = min(λ, μσ)`` (``0`` at each ``r_0``) and its
    running sum ``B``, restarted per item — the proof of Theorem 2.
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
    huge = mserv > MAX_SERVERS
    if huge.any():
        k = int(np.argmax(huge))
        fail(f"need at most {MAX_SERVERS} servers, got m={int(mserv[k])}", k)
    scanned = _prescan_c(t, srv, off, mserv, mu, lam)
    if scanned is None:
        scanned = _prescan_numpy(t, srv, off, mserv, mu, lam, fail)
    return scanned


def _prescan_c(
    t: np.ndarray,
    srv: np.ndarray,
    off: np.ndarray,
    mserv: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`prescan_columns` in C (``_prescan.c``), or ``None``.

    ``None`` sends the call to :func:`_prescan_numpy`: on the Python
    backend, for columns the C code does not take (dtypes other than
    ``float64``/``int64``, non-contiguous arrays), for ``max(m)`` above
    the column length (the per-server scratch never outgrows the
    output, so one huge server id costs no ``O(m)`` memory), and when
    the C code refuses: at a failed check, so that the numpy body
    raises the message, and at a ``mu`` or ``lam`` that is NaN or
    carries a sign bit, where ``np.minimum``'s pick between equal or
    NaN operands is not pinned.
    """
    from . import batch

    if batch._resolve_backend() != "c":
        return None
    total, items = t.shape[0], off.shape[0]
    columns = ((off, np.int64), (mserv, np.int64), (mu, np.float64), (lam, np.float64))
    rows = ((t, np.float64), (srv, np.int64))
    if not all(a.dtype == dt and a.flags.c_contiguous for a, dt in columns + rows):
        return None
    nlast = max(int(mserv.max()), 0)
    if nlast > total:
        return None
    p = np.empty(total, dtype=np.int64)
    sigma, b, B = (np.empty(total, dtype=np.float64) for _ in range(3))
    last = np.empty(nlast, dtype=np.int64)
    refused = batch._load_sweep_lib().repro_prescan(
        items,
        total,
        *[batch._addr(a, dt, items) for a, dt in columns],
        *[batch._addr(a, dt, total) for a, dt in rows],
        batch._addr(p, np.int64, total, out=True),
        *[batch._addr(a, np.float64, total, out=True) for a in (sigma, b, B)],
        batch._addr(last, np.int64, nlast, out=True),
        nlast,
    )
    return None if refused else (p, sigma, b, B)


def _prescan_numpy(
    t: np.ndarray,
    srv: np.ndarray,
    off: np.ndarray,
    mserv: np.ndarray,
    mu: np.ndarray,
    lam: np.ndarray,
    fail: Callable[..., NoReturn],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`prescan_columns` in numpy, after its layout check.

    The fallback without a C compiler, the path for every input
    :func:`_prescan_c` does not take, and its test oracle.
    """
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

    # Group by (item, server): one stable argsort of ``item * M + srv``
    # keeps time order inside each group (servers are below M now), so
    # equal neighbours of the gathered key are exactly the
    # (predecessor, successor) pairs.
    key = srv
    if items > 1:
        sizes = np.diff(bounds)
        key = np.repeat(np.arange(items, dtype=np.int64) * int(mserv.max()), sizes)
        key += srv
    key = sort_key(key)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    same = ordered[1:] == ordered[:-1]
    del key, ordered
    succ, pred = order[1:][same], order[:-1][same]
    del order
    sigma = np.full(total, np.inf)
    sigma[succ] = t[succ] - t[pred]
    if items > 1:
        # Sorted positions cover each item's rows in place, so the item
        # start of a sorted position is that of its row: item-local p.
        pred -= np.repeat(off, sizes)[1:][same]
    p = np.full(total, -1, dtype=np.int64)
    p[succ] = pred
    del succ, pred, same
    if items == 1 or ((mu == mu[0]).all() and (lam == lam[0]).all()):
        mu, lam = mu[0], lam[0]
    else:
        mu, lam = np.repeat(mu, sizes), np.repeat(lam, sizes)
    b = np.multiply(mu, sigma)
    np.minimum(lam, b, out=b)
    b[off] = 0.0
    # Per-item cumsum, not a segmented global scan: the summation order
    # of a one-item call, hence the same B bytes in any batch.
    B = np.empty(total, dtype=np.float64)
    for lo, hi in zip(bounds, bounds[1:]):
        np.cumsum(b[lo:hi], out=B[lo:hi])
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
