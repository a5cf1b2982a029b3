"""Incremental (streaming) form of the off-line DP.

The recurrences of Section IV sweep requests left to right and only ever
look backward, so they support *online arrival of the off-line problem*:
requests are appended one at a time and the optimal cost of the prefix
is maintained.  Each append is one step of the whole-sequence sweep's
pivot accumulator (per-server running minima over a move-to-front
recency list; see :func:`repro.kernels.batch._sweep_python`) —
amortised ``O(1 + |π(i)|)`` per append, ``O(n + m + P)`` for the
stream.  Every prefix is bit-identical to
``solve_offline(kernel="reference")`` on the same requests.

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
from .result import FROM_C, FROM_D, OfflineResult

__all__ = ["StreamingSolver"]


class StreamingSolver:
    """Maintain the optimal prefix cost ``C(i)`` under appended requests.

    Parameters
    ----------
    num_servers:
        Fleet size ``m``.
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
        if num_servers <= 0:
            raise InvalidInstanceError(f"need m >= 1, got {num_servers}")
        if not 0 <= origin < num_servers:
            raise InvalidInstanceError(
                f"origin {origin} outside [0, {num_servers})"
            )
        self.m = num_servers
        self.cost = cost if cost is not None else CostModel()
        self.origin = origin
        # Index 0 is the boundary request r_0.
        self.t: List[float] = [float(start_time)]
        self.srv: List[int] = [origin]
        self.p: List[int] = [-1]
        self.sigma: List[float] = [math.inf]
        self.b: List[float] = [0.0]
        self.B: List[float] = [0.0]
        self.C: List[float] = [0.0]
        self.D: List[float] = [math.inf]
        self._tag: List[int] = [-1]
        self._arg: List[int] = [-1]
        # Pivot accumulator.  Per server s: _last[s], the index of its
        # latest request (-1 = none yet; its next request's p(i)), and
        # the running minimum of D(k) - B_k over the candidates k seen
        # since then, with its argmin and that candidate's server (the
        # value-tie breaker).  Servers with a request sit on a
        # move-to-front list, newest first (_fwd/_bwd links, -1 = end).
        m = num_servers
        self._last: List[int] = [-1] * m
        self._run_min: List[float] = [math.inf] * m
        self._run_arg: List[int] = [-1] * m
        self._run_srv: List[int] = [m] * m
        self._fwd: List[int] = [-1] * m
        self._bwd: List[int] = [-1] * m
        self._head = origin
        # r_0 opens the origin's window.  D(0) = +inf never wins, but
        # keeps the accumulator total (π may contain r_0).
        self._last[origin] = 0
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
        """Append request ``(time, server)``; returns the new ``C(n)``.

        Times must be finite and strictly increasing, and servers in
        range.
        """
        time = float(time)
        server = int(server)
        if not self.t[-1] < time < math.inf:  # NaN fails both comparisons
            if not math.isfinite(time):
                raise InvalidInstanceError(
                    f"append time must be finite, got {time}"
                )
            raise InvalidInstanceError(
                f"append time {time} not after current horizon {self.t[-1]}"
            )
        if not 0 <= server < self.m:
            raise InvalidInstanceError(
                f"server {server} outside [0, {self.m})"
            )
        mu, lam = self.cost.mu, self.cost.lam
        i = len(self.t)
        q = self._last[server]

        self.t.append(time)
        self.srv.append(server)
        self.p.append(q)
        sigma = time - self.t[q] if q >= 0 else math.inf
        self.sigma.append(sigma)
        b_i = min(lam, mu * sigma)
        self.b.append(b_i)
        self.B.append(self.B[-1] + b_i)

        D_i, tag, arg = math.inf, -1, -1
        run_min, run_arg, run_srv = self._run_min, self._run_arg, self._run_srv
        if q >= 0:
            best = self.C[q] - self.B[q]
            tag, arg = FROM_C, q
            # The accumulated running minimum IS the pivot minimum
            # (value ties already broken toward the smaller server id,
            # as in the reference sweep).
            acc = run_min[server]
            if acc < best:
                best, tag, arg = acc, FROM_D, run_arg[server]
            D_i = best + mu * sigma + self.B[i - 1]
        self.D.append(D_i)
        self._tag.append(tag)
        self._arg.append(arg)

        via_transfer = self.C[i - 1] + mu * (time - self.t[i - 1]) + lam
        self.C.append(min(D_i, via_transfer))
        value = D_i - self.B[i]
        # Offer D(i) - B_i to every server whose window covers i (latest
        # request newer than p(i)): a prefix of the recency list.
        last, fwd = self._last, self._fwd
        j = self._head
        while j >= 0 and last[j] > q:
            cur = run_min[j]
            if value < cur or (value == cur and server < run_srv[j]):
                run_min[j] = value
                run_arg[j] = i
                run_srv[j] = server
            j = fwd[j]
        # Reopen the server's window at i (its own candidate seeds the
        # minimum) and move it to the front of the recency list.
        last[server] = i
        run_min[server] = value
        run_arg[server] = i
        run_srv[server] = server
        head = self._head
        if head != server:
            bwd = self._bwd
            if q >= 0:  # already listed: unlink
                nxt, prv = fwd[server], bwd[server]
                fwd[prv] = nxt
                if nxt >= 0:
                    bwd[nxt] = prv
            fwd[server] = head
            bwd[head] = server
            bwd[server] = -1
            self._head = server
        return self.C[-1]

    def extend(self, requests) -> float:
        """Append many ``(time, server)`` pairs; returns the final ``C(n)``."""
        for time, server in requests:
            self.append(time, server)
        return self.optimal_cost

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
        n1 = len(self.t)
        served_by_cache = np.zeros(n1, dtype=bool)
        for i in range(1, n1):
            served_by_cache[i] = self.D[i] <= (
                self.C[i - 1]
                + self.cost.mu * (self.t[i] - self.t[i - 1])
                + self.cost.lam
            )
        return OfflineResult(
            instance=self.instance(),
            C=np.asarray(self.C),
            D=np.asarray(self.D),
            served_by_cache=served_by_cache,
            choice_d_tag=np.asarray(self._tag, dtype=np.int64),
            choice_d_k=np.asarray(self._arg, dtype=np.int64),
            solver="streaming-dp",
        )

    def __repr__(self) -> str:
        return (
            f"StreamingSolver(n={self.n}, m={self.m}, "
            f"C(n)={self.optimal_cost:.6g})"
        )
