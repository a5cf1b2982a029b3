"""Incremental (streaming) form of the off-line DP.

The recurrences of Section IV sweep requests left to right and only ever
look backward, so they support *online arrival of the off-line problem*:
requests are appended one at a time and the optimal cost of the prefix
is maintained.  :meth:`StreamingSolver.extend` is the DP's one Python
frontier loop (per-server running minima over a move-to-front recency
list; the algorithm notes are on :class:`StreamingSolver`): the live
server calls it for every event, and the batched sweep's Python backend
(:func:`repro.kernels.batch._sweep_python`) runs one solver per item.
An append costs amortised ``O(1 + |π(i)|)``, the stream
``O(n + m + P)``, and the working state is ``O(m)``.  Every prefix is
bit-identical to ``solve_offline(kernel="reference")`` on the same
requests.

This powers two things the batch solver cannot do:

* **receding-horizon planning** — the :class:`~repro.online.lookahead`
  algorithms re-plan on a sliding window of known-future requests;
* **regret tracking** — an online service can maintain "what would the
  optimum have paid so far" next to its own meter, in real time.

The streaming state converts to a standard
:class:`~repro.offline.result.OfflineResult` at any point
(:meth:`StreamingSolver.result`), from which schedules reconstruct as
usual; equality with the batch solver is property-tested.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel, InvalidInstanceError
from ..kernels.prescan import _fleet, _integer
from .result import FROM_C, FROM_D, OfflineResult

__all__ = ["StreamingSolver"]

_INF = math.inf


class StreamingSolver:
    """Maintain the optimal prefix cost ``C(i)`` under appended requests.

    The reference sweep (:mod:`repro.offline.dp`) enumerates the cover
    set ``π(i)`` of Definition 8 afresh for every request: ``m`` pivot
    probes per request, ``O(mn)`` in all.  :meth:`extend` computes the
    same recurrences without ever *searching* for a pivot, from two
    monotonicity facts:

    1. For a fixed server ``s``, the queries it issues are monotone: the
       ``i``-th request on ``s`` asks for pivots at ``q = p(i)``, which
       is exactly where its previous request sat.  So each server
       *accumulates* its pivot candidates between its own consecutive
       requests instead of looking them back up.
    2. Request ``k`` is a pivot candidate for server ``s`` iff ``s``'s
       most recent request lies in ``(p(k), k]``.  Servers ordered by
       recency of their last request form a move-to-front list, and the
       candidates of ``k`` are exactly a prefix of it.

    So the working state is ``O(m)``: per server, the index, time and
    ``C − B`` of its latest request, the running minimum of
    ``D(k) − B_k`` over the candidates offered since then, with its
    argmin and that candidate's server, and the recency links.  Request
    ``k`` offers ``D(k) − B_k`` to the list head-first, stopping at the
    first server whose latest request is at or before ``p(k)``; each
    visit is one real pivot relationship, so the walks cost ``P = Σ_i
    |π(i)|`` (``≈ n`` for Poisson/Zipf workloads, ``O(mn)`` only for
    perfect round-robin) and the rest is ``O(1)`` per request.  Then
    ``k``'s server reopens its window at ``k`` and moves to the front.
    Per request only results are kept: ``t``, ``srv``, ``C``, ``D``,
    ``served`` and the backtracking choices.

    Bit-identity with the reference and compiled sweeps
    (``tests/offline/test_kernels.py``, ``test_streaming.py``,
    ``benchmarks/bench_dp_kernels.py``):

    * ``σ_i = t_i − t_{p(i)}``, ``b_i = min(λ, μσ_i)`` (``λ`` for a
      server's first request) and ``B_i = B_{i−1} + b_i`` are the
      pre-scan's expressions and its sequential ``np.cumsum``, so the
      registers hold the bytes of the columns the compiled sweep reads;
    * minima are order-independent, and ``D(i)``/``C(i)`` use the
      reference's expressions in the same operand order (a tie of
      ``D(i)`` with the transfer branch goes to the cache), so ``C``,
      ``D`` and ``served_by_cache`` are byte-identical;
    * the reference scans servers ``0..m−1`` taking strict improvements,
      so its argmin is the lexicographic minimum of ``(value, server)``;
      the accumulator breaks value ties toward the smaller server id, so
      ``choice_d_tag``/``choice_d_k`` and reconstructed schedules match.

    Parameters
    ----------
    num_servers:
        Fleet size ``m``, an integer in ``[1, MAX_SERVERS]``.
    cost:
        Homogeneous cost model.
    origin:
        Server initially holding the item.
    start_time:
        ``t_0``.
    """

    def __init__(
        self,
        num_servers: int,
        cost: Optional[CostModel] = None,
        origin: int = 0,
        start_time: float = 0.0,
    ):
        m, origin = _fleet(num_servers, origin)
        self.m = m
        self.cost = cost if cost is not None else CostModel()
        self.origin = origin
        start_time = float(start_time)
        # Results, one entry per request; index 0 is the boundary r_0.
        self.t: List[float] = [start_time]
        self.srv: List[int] = [origin]
        self.C: List[float] = [0.0]
        self.D: List[float] = [_INF]
        self.served: List[bool] = [False]
        self._tag: List[int] = [-1]
        self._arg: List[int] = [-1]
        # Working state (see the class notes; -1 = none): B of the
        # prefix and the per-server registers.  r_0 opens the origin's
        # window; D(0) = +inf never wins, but keeps the accumulator
        # total (π may contain r_0).
        self._B = 0.0
        self._last = [-1] * m
        self._last_t = [0.0] * m
        self._last_cb = [0.0] * m
        self._run_min = [_INF] * m
        self._run_arg = [-1] * m
        self._run_srv = [m] * m
        self._fwd = [-1] * m
        self._bwd = [-1] * m
        self._head = origin
        self._last[origin] = 0
        self._last_t[origin] = start_time
        self._run_arg[origin] = 0
        self._run_srv[origin] = origin

    # -- core ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of appended requests (excluding ``r_0``)."""
        return len(self.t) - 1

    @property
    def optimal_cost(self) -> float:
        """``C(n)`` of the current prefix."""
        return self.C[-1]

    def append(self, time: float, server: int) -> float:
        """Append request ``(time, server)``; returns the new ``C(n)``."""
        return self.extend(((time, server),))

    def extend(self, requests) -> float:
        """Append many ``(time, server)`` pairs; returns the final ``C(n)``.

        Times must be finite and strictly increasing, and servers
        integers (numpy integers included, bools not) in ``[0, m)``.
        A refused request raises :class:`InvalidInstanceError` and
        leaves the solver at the prefix before it.
        """
        m = self.m
        mu, lam = self.cost.mu, self.cost.lam
        t_out, C_out, D_out = self.t, self.C, self.D
        srv_out, served_out = self.srv, self.served
        tag_out, arg_out = self._tag, self._arg
        last, last_t, last_cb = self._last, self._last_t, self._last_cb
        run_min, run_arg, run_srv = self._run_min, self._run_arg, self._run_srv
        fwd, bwd = self._fwd, self._bwd
        head = self._head
        B_prev = self._B
        t_prev = t_out[-1]
        c_prev = C_out[-1]
        i = len(t_out)
        try:
            for time, server in requests:
                time = float(time)
                if not t_prev < time < _INF:  # NaN fails both comparisons
                    raise InvalidInstanceError(
                        f"append time {time} not after current horizon {t_prev}"
                        if math.isfinite(time)
                        else f"append time must be finite, got {time}"
                    )
                if server.__class__ is not int:
                    server = _integer(server, "server")
                if not 0 <= server < m:
                    raise InvalidInstanceError(f"server {server} outside [0, {m})")
                q = last[server]
                if q >= 0:
                    mu_sigma = mu * (time - last_t[server])
                    B_i = B_prev + (lam if lam <= mu_sigma else mu_sigma)
                    best = last_cb[server]
                    acc = run_min[server]
                    # The accumulated running minimum IS the pivot
                    # minimum (value ties already broken toward the
                    # smaller server id, as in the reference sweep).
                    if acc < best:
                        d_i = acc + mu_sigma + B_prev
                        tag, arg = FROM_D, run_arg[server]
                    else:
                        d_i = best + mu_sigma + B_prev
                        tag, arg = FROM_C, q
                    via_transfer = c_prev + mu * (time - t_prev) + lam
                    cached = d_i <= via_transfer
                    c_prev = d_i if cached else via_transfer
                else:
                    B_i = B_prev + lam
                    d_i, tag, arg, cached = _INF, -1, -1, False
                    c_prev = c_prev + mu * (time - t_prev) + lam
                t_out.append(time)
                srv_out.append(server)
                C_out.append(c_prev)
                D_out.append(d_i)
                served_out.append(cached)
                tag_out.append(tag)
                arg_out.append(arg)
                value = d_i - B_i
                # Offer D(i) - B_i to every server whose window covers i
                # (latest request newer than p(i)): a prefix of the
                # recency list.
                j = head
                while j >= 0 and last[j] > q:
                    cur = run_min[j]
                    if value < cur or (value == cur and server < run_srv[j]):
                        run_min[j] = value
                        run_arg[j] = i
                        run_srv[j] = server
                    j = fwd[j]
                # Reopen the server's window at i (its own candidate seeds
                # the minimum) and move it to the front of the list.
                last[server] = i
                last_t[server] = time
                last_cb[server] = c_prev - B_i
                run_min[server] = value
                run_arg[server] = i
                run_srv[server] = server
                if head != server:
                    if q >= 0:  # already listed: unlink
                        nxt, prv = fwd[server], bwd[server]
                        fwd[prv] = nxt
                        if nxt >= 0:
                            bwd[nxt] = prv
                    fwd[server] = head
                    bwd[head] = server
                    bwd[server] = -1
                    head = server
                t_prev = time
                B_prev = B_i
                i += 1
        finally:
            self._head = head
            self._B = B_prev
        return c_prev

    # -- snapshots --------------------------------------------------------------

    def instance(self) -> ProblemInstance:
        """The current prefix as a regular :class:`ProblemInstance`."""
        return ProblemInstance.from_arrays(
            np.asarray(self.t[1:]),
            np.asarray(self.srv[1:], dtype=np.int64),
            num_servers=self.m,
            cost=self.cost,
            origin=self.origin,
            start_time=self.t[0],
        )

    def result(self) -> OfflineResult:
        """Snapshot as an :class:`OfflineResult` (reconstructible)."""
        return OfflineResult(
            instance=self.instance(),
            C=np.asarray(self.C),
            D=np.asarray(self.D),
            served_by_cache=np.asarray(self.served, dtype=bool),
            choice_d_tag=np.asarray(self._tag, dtype=np.int64),
            choice_d_k=np.asarray(self._arg, dtype=np.int64),
            solver="streaming-dp",
        )

    def __repr__(self) -> str:
        return (
            f"StreamingSolver(n={self.n}, m={self.m}, "
            f"C(n)={self.optimal_cost:.6g})"
        )
