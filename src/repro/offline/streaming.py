"""Incremental (streaming) form of the off-line DP.

The recurrences of Section IV sweep requests left to right and only ever
look backward, so they support *online arrival of the off-line problem*:
requests are appended one at a time and the optimal cost of the prefix
is maintained.  Each append advances the same incremental pivot
accumulator as the batch frontier kernel
(:class:`repro.kernels.frontier.FrontierState`) — amortised ``O(1 +
|π(i)|)`` per append, ``O(n + m + P)`` for the stream.  Every prefix is
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
from ..kernels.frontier import FrontierState
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
        #: Index of each server's latest request (-1 = none yet).
        self._last: List[int] = [-1] * num_servers
        self._last[origin] = 0
        self._frontier = FrontierState(num_servers, origin)

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
        fr = self._frontier
        if q >= 0:
            best = self.C[q] - self.B[q]
            tag, arg = FROM_C, q
            # The accumulated running minimum IS the pivot minimum
            # (value ties already broken toward the smaller server id,
            # as in the reference sweep).
            acc = fr.run_min[server]
            if acc < best:
                best, tag, arg = acc, FROM_D, fr.run_arg[server]
            D_i = best + mu * sigma + self.B[i - 1]
        self.D.append(D_i)
        self._tag.append(tag)
        self._arg.append(arg)

        via_transfer = self.C[i - 1] + mu * (time - self.t[i - 1]) + lam
        self.C.append(min(D_i, via_transfer))
        self._last[server] = i
        value = D_i - self.B[i]
        fr.push(i, q, value, server)
        fr.reopen(server, i, value)
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
