"""Problem instances and the O(mn) pre-scan of the paper's Section IV.

A :class:`ProblemInstance` bundles the strictly time-ordered request vector
``R = <r_1..r_n>``, the boundary request ``r_0 = (origin, t_0)``, and the
homogeneous :class:`~repro.core.types.CostModel`.  Construction checks the
request columns (:func:`repro.kernels.prescan.check_columns`, the check a
packed batch runs) and keeps only ``t`` and ``srv``.  The paper's
*pre-scan* (proof of Theorem 2) runs on the first read of any of its
arrays, one :func:`~repro.kernels.prescan.prescan_columns` call for all
four, cached and read-only:

* ``p[i]``   — index of the previous request on the same server (``p(i)``),
  with ``-1`` standing in for the dummy requests ``r_{-j} = (s^j, -inf)``;
* ``sigma[i]`` — the server interval ``σ_i = t_i - t_{p(i)}`` (``inf`` for
  the first request on a server);
* ``b[i]``   — the marginal cost bound ``b_i = min(λ, μσ_i)`` (Definition 4);
* ``B[i]``   — the running bound ``B_i = Σ_{j<=i} b_j`` (Definition 5);

The reference DP sweep, the bounds, the reductions and schedule
reconstruction read these arrays; the batched sweeps compute the same
values in per-server registers from ``t`` and ``srv``, so an instance
they solve is never pre-scanned.  :meth:`ProblemInstance.cover_set`
answers the cover index set ``π(i)`` of Definition 8 — for every server
``s^j``, the request ``k`` on ``s^j`` whose server interval
``(t_{p(k)}, t_k]`` contains ``t_{p(i)}`` — through a :class:`PivotLookup`
(per-server sorted index lists probed by binary search), built on first
use.  The reference DP sweep reads the same sets from the paper's pointer
matrix (Fig. 5, :func:`repro.kernels.prescan.build_pivot_matrix`); the
test suite asserts both agree with a brute-force scan.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..kernels.prescan import (
    _integer,
    check_columns,
    per_server_lists,
    prescan_columns,
)
from .types import CostModel, InvalidInstanceError, Request

__all__ = ["ProblemInstance", "PivotLookup"]


class PivotLookup:
    """Cover-index (``π(i)``) lookup over a request sequence.

    Given the arrays of a :class:`ProblemInstance`, answers *"which request
    on server j has its server interval spanning request index q?"* — the
    primitive needed to enumerate ``π(i)`` in ``O(m log n)``.  Per-server
    sorted index lists probed by binary search: ``O(n + m)`` extra space.

    Parameters
    ----------
    servers:
        ``srv[0..n]`` array (index 0 is the boundary request ``r_0``).
    num_servers:
        ``m``.
    """

    def __init__(self, servers: np.ndarray, num_servers: int):
        self._m = num_servers
        self._per_server: List[np.ndarray] = per_server_lists(
            servers, num_servers
        )

    def requests_on(self, server: int) -> np.ndarray:
        """Sorted request indices made on ``server`` (including ``r_0``)."""
        return self._per_server[server]

    def first_at_or_after(self, server: int, q: int) -> int:
        """Smallest request index ``k >= q`` on ``server``, or ``-1``."""
        idx = self._per_server[server]
        pos = int(np.searchsorted(idx, q, side="left"))
        return int(idx[pos]) if pos < idx.shape[0] else -1

    def cover_set(self, i: int, p_i: int) -> List[int]:
        """The cover index set ``π(i) = {k : p(k) < p(i) <= k < i}``.

        ``p_i`` must be the caller's precomputed ``p(i)`` (index of the
        previous request on ``s_i``); callers pass it to avoid recomputing.
        At most one ``k`` per server qualifies: the first request on that
        server at or after index ``p(i)`` automatically has ``p(k) < p(i)``.

        Returns an unordered list of candidate indices (possibly empty).
        """
        if p_i < 0:
            return []
        out: List[int] = []
        for j in range(self._m):
            k = self.first_at_or_after(j, p_i)
            if 0 <= k < i:
                out.append(k)
        return out


class ProblemInstance:
    """An immutable data-caching problem instance.

    Parameters
    ----------
    requests:
        The request vector ``<r_1..r_n>`` — an iterable of
        :class:`~repro.core.types.Request` or ``(time, server)`` pairs,
        strictly increasing in time.  Must not include the boundary request
        ``r_0``; it is synthesised from ``origin``/``start_time``.
    num_servers:
        ``m``.  Defaults to ``max(server id) + 1``.  Servers with no
        requests are permitted (they simply never enter any schedule),
        although the paper ignores them.
    cost:
        The homogeneous :class:`~repro.core.types.CostModel`.
    origin:
        Server initially holding the data item (paper: ``s^1``; here 0).
    start_time:
        ``t_0`` of the boundary request ``r_0``; defaults to ``0.0`` and
        must precede ``t_1``.

    Fleet sizes, origins and server ids must be integers (numpy
    integers included; bools, floats and strings are refused, never
    truncated or parsed).

    Attributes
    ----------
    t, srv:
        Arrays of length ``n+1``; index 0 is ``r_0``.
    p, sigma, b, B:
        Pre-scan arrays (see module docstring), length ``n+1``, computed
        on first read; entry 0 is a boundary value (``p[0] = -1``,
        ``b[0] = B[0] = 0``).
    """

    def __init__(
        self,
        requests: Iterable[Union[Request, Sequence[float]]],
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
        start_time: float = 0.0,
    ):
        reqs = [
            r
            if isinstance(r, Request)
            else Request(float(r[0]), _integer(r[1], "server id"))
            for r in requests
        ]
        n = len(reqs)
        t = np.empty(n + 1, dtype=np.float64)
        srv = np.empty(n + 1, dtype=np.int64)
        t[0], srv[0] = float(start_time), _integer(origin, "origin")
        for i, r in enumerate(reqs, start=1):  # a Request takes any server
            t[i], srv[i] = r.time, _integer(r.server, "server id")
        self._init_arrays(t, srv, num_servers, cost)

    def _init_arrays(
        self,
        t: np.ndarray,
        srv: np.ndarray,
        num_servers: Optional[int],
        cost: Optional[CostModel],
    ) -> None:
        """Shared tail of construction: check and freeze.

        ``t``/``srv`` are the full length ``n+1`` arrays including the
        boundary request ``r_0`` at index 0 (``srv[0]`` is the origin);
        both are owned by the instance from here on (callers must pass
        fresh copies).  The check is
        :func:`~repro.kernels.prescan.check_columns` on one item, the
        check a packed batch runs, so both refuse the same inputs with
        the same messages.  Nothing is pre-scanned here.
        """
        self.cost = cost if cost is not None else CostModel()
        if num_servers is None:
            m = int(srv.max()) + 1
        else:
            m = _integer(num_servers, "num_servers")
        check_columns(
            t,
            srv,
            np.zeros(1, dtype=np.int64),
            np.array([m]),
            np.array([self.cost.mu]),
            np.array([self.cost.lam]),
        )
        self.num_servers = m
        self.origin = int(srv[0])
        self.t = t
        self.srv = srv
        self.n = t.shape[0] - 1
        t.setflags(write=False)
        srv.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        times: Sequence[float],
        servers: Sequence[int],
        num_servers: Optional[int] = None,
        cost: Optional[CostModel] = None,
        origin: int = 0,
        start_time: float = 0.0,
    ) -> "ProblemInstance":
        """Build an instance from parallel ``times``/``servers`` arrays.

        This is the array-native construction path: the inputs are copied
        straight into the instance's ``t``/``srv`` arrays (read-only views
        such as shared-memory or memory-mapped columns are fine) and the
        per-request Python loop of ``__init__`` is skipped entirely.
        Values, validation, and the pre-scan are identical to the
        request-object path — only the construction cost differs.
        """
        times = np.asarray(times, dtype=np.float64)
        raw = servers
        servers = _integer(np.asarray(servers), "server ids")
        if not isinstance(raw, np.ndarray) and servers.size:
            # numpy promotes a bool among ints to an int: refuse it as the
            # integer rule refuses a lone bool.
            if not {bool, np.bool_}.isdisjoint(map(type, raw)):
                first = next(v for v in raw if isinstance(v, (bool, np.bool_)))
                _integer(first, "server id")
        if times.shape != servers.shape:
            raise InvalidInstanceError(
                f"times and servers must have equal length, got "
                f"{times.shape} vs {servers.shape}"
            )
        if times.ndim != 1:
            raise InvalidInstanceError(
                f"times and servers must be 1-D, got shape {times.shape}"
            )
        n = times.shape[0]
        t = np.empty(n + 1, dtype=np.float64)
        srv = np.empty(n + 1, dtype=np.int64)
        t[0], srv[0] = float(start_time), _integer(origin, "origin")
        t[1:] = times
        srv[1:] = servers
        self = cls.__new__(cls)
        self._init_arrays(t, srv, num_servers, cost)
        return self

    def __setstate__(self, state: dict) -> None:
        """Unpickle read-only, as constructed (the cached pre-scan too)."""
        self.__dict__.update(state)
        for arr in (self.t, self.srv, *state.get("_prescan", ())):
            arr.setflags(write=False)

    # -- accessors -----------------------------------------------------------

    @cached_property
    def _pivots(self) -> PivotLookup:
        return PivotLookup(self.srv, self.num_servers)

    @cached_property
    def _prescan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        scanned = prescan_columns(
            self.t, self.srv, self.num_servers, self.cost.mu, self.cost.lam
        )
        for arr in scanned:
            arr.setflags(write=False)
        return scanned

    p = property(lambda self: self._prescan[0], doc="``p(i)`` (``-1``: none).")
    sigma = property(lambda self: self._prescan[1], doc="``σ_i`` (``inf``: no p(i)).")
    b = property(lambda self: self._prescan[2], doc="``b_i = min(λ, μσ_i)``.")
    B = property(lambda self: self._prescan[3], doc="``B_i = Σ_{j<=i} b_j``.")

    @property
    def horizon(self) -> float:
        """Service horizon length ``t_n - t_0``."""
        return float(self.t[-1] - self.t[0]) if self.n else 0.0

    @property
    def requests(self) -> List[Request]:
        """The request vector as :class:`Request` objects (excludes r_0)."""
        return [Request(float(self.t[i]), int(self.srv[i])) for i in range(1, self.n + 1)]

    def delta_t(self, i: int, j: int) -> float:
        """Time difference ``δt_{i,j} = t_j - t_i`` between request indices."""
        return float(self.t[j] - self.t[i])

    def requests_on(self, server: int) -> np.ndarray:
        """Sorted request indices on ``server`` (index 0 = r_0 included)."""
        return self._pivots.requests_on(server)

    def cover_set(self, i: int) -> List[int]:
        """Cover index set ``π(i)`` (Definition 8) for request ``i``."""
        return self._pivots.cover_set(i, int(self.p[i]))

    def running_bound(self) -> float:
        """The paper's lower bound ``B_n`` on the optimal cost."""
        return float(self.B[-1])

    def slice_requests(self, lo: int, hi: int) -> List[Request]:
        """Requests with indices in ``[lo, hi]`` (1-based, inclusive)."""
        lo, hi = max(lo, 1), min(hi, self.n)
        return [Request(float(self.t[i]), int(self.srv[i])) for i in range(lo, hi + 1)]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.n}, m={self.num_servers}, "
            f"mu={self.cost.mu}, lam={self.cost.lam}, origin={self.origin}, "
            f"horizon={self.horizon:.4g})"
        )

    # -- equality (for cache keys in analysis sweeps) -------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemInstance):
            return NotImplemented
        return (
            self.num_servers == other.num_servers
            and self.origin == other.origin
            and self.cost == other.cost
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.srv, other.srv)
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.num_servers,
                self.origin,
                self.cost,
                self.t.tobytes(),
                self.srv.tobytes(),
            )
        )


def _check_boundary_consistency(inst: ProblemInstance) -> None:
    """Internal sanity checks used by the test-suite (kept importable)."""
    assert inst.p[0] == -1
    assert inst.b[0] == 0.0
    assert math.isinf(inst.sigma[0])
    first_seen = set()
    for i in range(1, inst.n + 1):
        s = int(inst.srv[i])
        if s not in first_seen and s != inst.origin:
            assert inst.p[i] == -1, f"first request on server {s} must have p=-1"
        first_seen.add(s)
