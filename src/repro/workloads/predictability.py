"""Trajectory predictability — the Song et al. motivation, quantified.

Section I cites the finding that "more than 93% of human behavior is
predictable" (Song, Qu, Blumm, Barabási, *Science* 2010 [2]) to argue
that off-line (trajectory-informed) caching is realistic.  This module
implements the two ingredients of that measurement so the workload
generators' predictability can be reported alongside benchmark results:

* :func:`lz_entropy_rate` — the Lempel-Ziv estimator of the entropy rate
  of a symbol sequence, ``S ≈ (n · log2 n) / Σ_i Λ_i``, where ``Λ_i`` is
  the length of the shortest substring starting at ``i`` that never
  appeared before ``i``.  Every ``Λ_i`` comes off one suffix array of
  the sequence, built in C (``kernels/_profile.c``, :func:`_lpnf_c`)
  when the compiled kernels are in use and otherwise in ``O(n log n)``
  array operations (:func:`_lpnf`, also the oracle), so one of the
  profiler's 4,000-symbol sequences costs about a millisecond in C and
  a few in numpy, not the ``O(n²)`` of a scan over every lag.
* :func:`max_predictability` — the Fano-bound maximum predictability
  ``Π_max`` solving ``H(Π) + (1 - Π) log2(N - 1) = S``.

High-locality Markov trajectories land at ``Π_max ≈ 0.9+`` — matching
the paper's premise — while uniform random workloads sit near ``1/N``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["lz_entropy_rate", "max_predictability", "empirical_entropy"]


def lz_entropy_rate(symbols: Sequence[int]) -> float:
    """Lempel-Ziv entropy-rate estimate in bits per symbol.

    ``Λ_i`` is the length of the shortest prefix of ``symbols[i:]``
    absent from ``symbols[:i]``; the estimator is consistent for
    stationary ergodic sources (Kontoyiannis et al. 1998).  Degenerate
    inputs (length < 2, single symbol value) return 0.

    Equivalently ``Λ_i = L_i + 1`` with ``L_i`` the longest previous
    non-overlapping factor at ``i`` — the longest match of the suffix at
    ``i`` fully contained in the history — which :func:`_lpnf` computes
    for every ``i`` at once from a suffix array (:func:`_lpnf_c`, in C,
    when the compiled kernels are in use).  Every ``Λ_i`` is an integer,
    so the result equals the scalar scan's bit for bit
    (regression-tested).
    """
    seq = _int64_symbols(symbols)
    n = int(seq.shape[0])
    if n < 2 or int(seq.min()) == int(seq.max()):
        return 0.0
    lpnf = _lpnf_c(seq)
    if lpnf is None:
        lpnf = _lpnf(seq)
    return float(n * math.log2(n) / (int(lpnf.sum()) + n))


def _int64_symbols(symbols: Sequence[int]) -> np.ndarray:
    """``symbols`` as an int64 vector, each value read through ``int``.

    A 1-D array of a signed, or narrower than 64-bit unsigned, integer
    dtype holds only values int64 keeps, so a cast reads the same values
    without a Python loop.
    """
    if isinstance(symbols, np.ndarray) and symbols.ndim == 1:
        kind, width = symbols.dtype.kind, symbols.dtype.itemsize
        if kind == "i" or (kind == "u" and width < 8):
            return symbols.astype(np.int64)
    return np.asarray([int(x) for x in symbols], dtype=np.int64)


def _lpnf_c(seq: np.ndarray) -> Optional[np.ndarray]:
    """:func:`_lpnf` in C (``kernels/_profile.c``), or ``None``.

    ``None`` on the Python backend
    (:func:`repro.kernels.batch.batch_sweep_backend`), where
    :func:`_lpnf` runs.  The symbols go in as their ranks among the
    distinct values, the alphabet the C code's counting sorts need; a
    suffix array is unique, so both paths read every ``L_i`` off the
    same one.
    """
    from ..kernels import batch

    if batch._resolve_backend() != "c":
        return None
    n = int(seq.shape[0])
    lib = batch._load_sweep_lib()
    ranks = np.unique(seq, return_inverse=True)[1].astype(np.int64)
    out = np.empty(n, dtype=np.int64)
    words = int(lib.repro_lpnf_work(n))
    work = np.empty(words, dtype=np.int64)
    total = lib.repro_lpnf(
        n,
        batch._addr(ranks, np.int64, n),
        batch._addr(out, np.int64, n, out=True),
        batch._addr(work, np.int64, words, out=True),
    )
    return out if total >= 0 else None


def _lpnf(seq: np.ndarray) -> np.ndarray:
    """``L_i = max_{j<i} min(lcp(i, j), i - j)`` for every ``i``.

    The longest previous non-overlapping factor (Crochemore & Tischler,
    IPL 2011), read off the suffix array.  For the suffix ``i`` at rank
    ``r``, only two chains of earlier suffixes can hold the best ``j``:
    the nearest smaller text position left of ``r`` in suffix-array
    order, its own nearest smaller one, and so on — and the same to the
    right.  Every other ``j < i`` sits between two chain nodes and is
    beaten by the one nearer ``r``: that node's match is no shorter and
    starts farther back.  Along a chain ``lcp`` never grows and
    ``i - j`` strictly grows, so the best node is where they cross: the
    last one with ``lcp > i - j`` (worth ``i - j``) or the next (worth
    its ``lcp``).  Binary lifting over the chain pointers finds that
    crossing for every rank at once, reading each ``lcp`` as a
    sparse-table range minimum over the LCP array.

    Every stage is ``O(log n)`` whole-array steps: ``O(n log n)`` time
    and memory words, except the doubling rounds' sorts, which make
    ``O(n log² n)`` comparisons at worst.
    """
    n = int(seq.shape[0])
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    levels = _doubling_ranks(seq)
    sa = np.empty(n, dtype=np.int64)
    sa[levels[-1]] = np.arange(n)
    # lcp[r] = lcp(sa[r - 1], sa[r]), by binary descent over the
    # doubling levels: equal length-2**k ranks mean 2**k equal symbols
    # (a padded prefix equals only itself).  lcp[0] and the sentinel
    # lcp[n] stay 0, so a range that reaches rank n reads "no match".
    lcp = np.zeros(n + 1, dtype=np.int64)
    h, a, b = lcp[1:n], sa[:-1], sa[1:]
    for k in range(len(levels) - 2, -1, -1):
        rk = np.append(levels[k], -1)
        h += (rk[a + h] == rk[b + h]).astype(np.int64) << k
    lcp_min = _sparse_min(lcp)
    ranks = np.arange(n)

    def lcp_to(other: np.ndarray) -> np.ndarray:
        lo, hi = np.minimum(ranks, other), np.maximum(ranks, other)
        return _range_min(lcp_min, lo + 1, hi + 1)

    # Text position per rank.  The "no node" rank n sits at -1 and reads
    # lcp 0, so the lifting never steps onto it (0 > i + 1 is false) and
    # as a chain's next node it is worth 0.
    pos = np.append(sa, -1)
    best = np.zeros(n, dtype=np.int64)
    for chain in _nearest_smaller(sa):
        up = [np.append(chain, n)]
        while len(up) < n.bit_length():
            up.append(up[-1][up[-1]])
        cur = ranks
        for step in reversed(up):
            nxt = step[cur]
            cur = np.where(lcp_to(nxt) > sa - pos[nxt], nxt, cur)
        np.maximum(best, sa - pos[cur], out=best)
        np.maximum(best, lcp_to(up[0][cur]), out=best)
    out = np.empty(n, dtype=np.int64)
    out[sa] = best
    return out


def _doubling_ranks(seq: np.ndarray) -> List[np.ndarray]:
    """Ranks of every length-``2**k`` padded prefix, until all differ.

    Prefix doubling: level ``k + 1`` ranks the pairs (level ``k`` at
    ``i``, level ``k`` at ``i + 2**k``), with ``0`` as the pad past the
    end; at most ``ceil(log2 n)`` rounds.  The last level's ranks are
    the suffix ranks.
    """
    n = seq.shape[0]
    rank = np.unique(seq, return_inverse=True)[1].astype(np.int64)
    levels = [rank]
    width = 1
    while int(rank.max()) < n - 1:
        after = np.zeros(n, dtype=np.int64)
        after[: n - width] = rank[width:] + 1
        pair = rank * (n + 1) + after
        rank = np.unique(pair, return_inverse=True)[1].astype(np.int64)
        levels.append(rank)
        width *= 2
    return levels


def _sparse_min(a: np.ndarray) -> np.ndarray:
    """``T[k, x] = min(a[x : x + 2**k])`` wherever that window fits."""
    n = a.shape[0]
    T = np.zeros((n.bit_length(), n), dtype=a.dtype)
    T[0] = a
    for k in range(1, T.shape[0]):
        half = 1 << (k - 1)
        fit = n - 2 * half + 1
        np.minimum(T[k - 1, :fit], T[k - 1, half : half + fit], out=T[k, :fit])
    return T


def _range_min(T: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise ``min(a[lo:hi])`` for ``lo < hi``: two overlapping windows."""
    k = np.frexp((hi - lo).astype(np.float64))[1] - 1  # floor(log2(hi - lo))
    return np.minimum(T[k, lo], T[k, hi - (1 << k)])


def _nearest_smaller(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per index: the nearest index left / right holding a smaller value.

    ``len(a)`` when there is none.  Binary descent over a sparse table
    of minima: the span left (right) of each index grows by ``2**k``
    while it holds only larger values.
    """
    n = a.shape[0]
    T = _sparse_min(a)
    left = np.arange(n)  # a[left:r] > a[r]
    right = np.arange(n)  # a[r + 1 : right + 1] > a[r]
    for k in range(T.shape[0] - 1, -1, -1):
        w = 1 << k
        ok = left >= w
        ok[ok] = T[k, left[ok] - w] > a[ok]
        left[ok] -= w
        ok = right + w < n
        ok[ok] = T[k, right[ok] + 1] > a[ok]
        right[ok] += w
    return np.where(left > 0, left - 1, n), right + 1


def _lz_entropy_rate_reference(symbols: Sequence[int]) -> float:
    """Scalar-scan twin of :func:`lz_entropy_rate` (regression oracle)."""
    seq = [int(x) for x in symbols]
    n = len(seq)
    if n < 2 or len(set(seq)) < 2:
        return 0.0
    lambdas = np.empty(n)
    for i in range(n):
        history = seq[:i]
        k = 1
        while i + k <= n:
            needle = seq[i : i + k]
            found = any(
                history[j : j + k] == needle for j in range(max(0, i - k + 1))
            )
            if not found:
                break
            k += 1
        # Λ_i = shortest unseen length; when the whole suffix appeared
        # before, use n - i + 1 (standard convention).
        lambdas[i] = k if i + k <= n else (n - i + 1)
    return float(n * math.log2(n) / lambdas.sum())


def empirical_entropy(symbols: Sequence[int]) -> float:
    """Zeroth-order (frequency) entropy in bits — an upper reference.

    One ``np.bincount`` over shifted values instead of a full
    ``np.unique`` sort; the surviving counts come out in ascending value
    order — exactly ``np.unique``'s order — so the probability vector,
    and therefore the result, is bit-identical to the reference.
    """
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size == 0:
        return 0.0
    spread = int(arr.max()) - int(arr.min())
    if spread > max(1 << 20, 16 * arr.size):
        # Values too sparse for a dense bincount — sort instead.  Both
        # branches produce counts in ascending value order, so they are
        # bit-identical.
        _, counts = np.unique(arr, return_counts=True)
    else:
        counts = np.bincount(arr - arr.min())
        counts = counts[counts > 0]
    if counts.shape[0] < 2:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _empirical_entropy_reference(symbols: Sequence[int]) -> float:
    """``np.unique``-based twin of :func:`empirical_entropy` (oracle)."""
    vals, counts = np.unique(
        np.asarray(symbols, dtype=np.int64), return_counts=True
    )
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum()) if vals.size > 1 else 0.0


def max_predictability(entropy_rate: float, num_symbols: int) -> float:
    """Fano-bound maximum predictability ``Π_max``.

    Solves ``H(Π) + (1 - Π) log2(N - 1) = S`` for ``Π ∈ [1/N, 1]`` by
    bisection; ``S`` above the uniform entropy clamps to ``1/N`` and
    ``S <= 0`` to ``1``.
    """
    N = int(num_symbols)
    if N < 2:
        return 1.0
    S = float(entropy_rate)
    if S <= 0:
        return 1.0
    if S >= math.log2(N):
        return 1.0 / N

    def fano(pi: float) -> float:
        h = 0.0
        for p in (pi, 1.0 - pi):
            if p > 0:
                h -= p * math.log2(p)
        return h + (1.0 - pi) * math.log2(N - 1)

    lo, hi = 1.0 / N, 1.0 - 1e-12
    # fano is decreasing on [1/N, 1]: fano(1/N) = log2 N >= S, fano(1) = 0.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fano(mid) > S:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
