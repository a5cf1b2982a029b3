"""Array-native online SC/TTL(γ) kernel — resumable state, block step, finish.

:class:`~repro.online.speculative.SpeculativeCaching` is the paper's
per-epoch state machine transliterated hook by hook: every request costs
an ``advance`` + ``serve`` dispatch, a heap push, recorder method calls
and a couple of small-object allocations.  That is the right shape for
an *executable specification*, but competitive-ratio sweeps and trace
analyses run it over millions of requests, and the interpreter overhead
— not the state machine — dominates.

This module is the fast path, in three parts that replay the *identical*
state machine and produce bit-identical results, including
floating-point expression order:

* :class:`SCState` — one item's whole state as numpy arrays and Python
  scalars: per-server expiry and refresh cause, the expiration queue,
  live-copy and epoch counters, the lifetimes ledger and the five
  counters.  It holds nothing else, so ``copy.deepcopy`` snapshots a run
  between blocks;
* :func:`step_block` — advances a state over one block of requests and
  returns the block's per-request decisions (:class:`SCBlock`).  Any
  split of a sequence into blocks leaves the same state as one block;
* :func:`finish` — the end-of-sequence accounting, returning an
  :class:`OnlineKernelRun`.

The step has two backends.  :func:`repro.kernels.batch.batch_sweep_backend`
picks one for both compiled kernels, this step and the batched DP sweep,
and ``REPRO_BATCH_SWEEP`` is the one switch that pins it:

``"c"``
    ``_sc_step.c``, compiled into the same cached library as the DP
    sweep and called through :mod:`ctypes` on the state's arrays in
    place.  When the expiration queue or the ledger runs out of room the
    C step returns the requests it consumed; :func:`step_block` drops
    the consumed queue prefix or doubles the arrays and calls it again.
``"python"``
    :func:`_step_python`, the executable specification of the C step and
    the fallback when no compiler exists.

What both backends replay, rule for rule:

* the expiration queue is a flat ``(time, server)`` array consumed by a
  head index.  SC's pushes are monotone non-decreasing in time (a
  refresh at ``t`` grants ``t + W``, never earlier than any pending
  entry; a lone-copy extension at ``e`` grants ``e + W`` after every
  pending valid entry has fired), so appends keep the array in exactly
  the heap's ``(time, seq)`` pop order; an ordered insert covers any
  out-of-order push so the replication is exact by construction, not by
  conjecture.  Lazy invalidation is the same time-match rule as
  :meth:`EventQueue.pop_group` (``expiry[s] == entry time``), stale
  entries are consumed on the way, and same-time entries are gathered
  into one group deduplicated in first-occurrence order;
* expiration groups replay paper step 4 verbatim: delete all when the
  floor holds, otherwise pick survivors by the transfer-target tie rule
  (first ``"dst"`` cause in group order, else the latest cause) and
  re-arm them flat at ``e + W`` — the lone-copy extension chain is the
  same repeated addition ``e, e+W, (e+W)+W, ...`` as the per-event code,
  never the algebraically equal ``e + k·W``;
* request handling replays step 3: the window test ``expiry[s] >= t``,
  the previous requester as transfer source (with the same freshest-
  copy fallback, counted identically), source refresh, and the
  ``epoch_size`` reset that only the requester's copy survives;
* :func:`finish` replays :meth:`RunRecorder.finalize` + ``Schedule``
  canonicalisation on plain tuples, in Python: truncate open lifetimes
  at ``t_n``, sort intervals by ``(server, start, end)``, merge with the
  exact touch-merges-too rule, and charge ``μ · Σ durations + Σ λ`` with
  Python's ``sum`` like the recorder (compensated summation on 3.12+, so
  a C fold would not be bit-identical there).

The eligibility test is deliberately ``type(...) is SpeculativeCaching``
— subclasses (randomised TTL windows, predictive windows, the resilient
replica floor) override the window/floor hooks this kernel hard-codes,
so they stay on the per-event path.

Batch entry points (:func:`run_online_layout`, :func:`run_online_batch`)
run "new state, one block, finish" per item over
:class:`~repro.kernels.batch.BatchLayout`'s ragged columns, so a whole
multi-item service or instance block is one call; a TTL γ-grid is one
:func:`run_online_layout` call per γ over the same layout.

Import discipline: like the rest of :mod:`repro.kernels`, no module-level
imports of :mod:`repro.core` / :mod:`repro.online` / :mod:`repro.sim`
(the instance constructor imports the kernels package) — result
materialisation imports lazily.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from .batch import BatchLayout, _addr, _load_sweep_lib, _resolve_backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.instance import ProblemInstance
    from ..online.base import OnlineAlgorithm
    from ..sim.recorder import OnlineRunResult

__all__ = [
    "ONLINE_KERNELS",
    "OnlineKernelRun",
    "SCState",
    "SCBlock",
    "step_block",
    "finish",
    "validate_sc_params",
    "vector_policy_config",
    "run_online_vector",
    "run_online_layout",
    "run_online_batch",
    "decision_digest",
    "sc_name",
]

#: Valid ``kernel=`` selectors for online runs.  ``"auto"`` picks the
#: vector kernel when :func:`vector_policy_config` accepts the policy and
#: the per-event path otherwise; ``"event"`` pins the per-event path.
#: Results are bit-identical either way.
ONLINE_KERNELS = ("auto", "event")

_NEG_INF = -math.inf

#: Refresh-cause codes of :attr:`SCState.cause_kind`, the per-event
#: ``_cause`` kinds (``_sc_step.c`` repeats them).  Only ``CAUSE_NONE``
#: and ``CAUSE_DST`` steer a decision, through the survivor tie rule.
CAUSE_NONE, CAUSE_INITIAL, CAUSE_LOCAL, CAUSE_DST, CAUSE_SRC = range(5)
#: Lifetime end codes of the ledger column ``lt_ended``; an ``END_OPEN``
#: copy is still held, and :func:`finish` reports it truncated at ``t_n``.
END_OPEN, END_EXPIRE, END_EPOCH_RESET, END_TRUNCATE = range(4)
_END_NAMES = (None, "expire", "epoch-reset", "truncate")

#: The ledger columns of :class:`SCState`, one row per copy lifetime.
_LEDGER = (
    "lt_srv",
    "lt_src",
    "lt_req",
    "lt_start",
    "lt_end",
    "lt_last",
    "lt_ended",
    "lt_reset",
)
_LEDGER_DTYPES = (np.int64,) * 3 + (np.float64,) * 3 + (np.int64,) * 2
#: Scalars the C step reads and writes through its ``iv`` array, in slot
#: order (``_sc_step.c``'s ``IV_*`` enum).
_IV_FIELDS = (
    "n",
    "head",
    "qlen",
    "c",
    "r",
    "last",
    "nlife",
    "hits",
    "expirations",
    "extensions",
    "epochs",
    "fallbacks",
)
_INITIAL_CAP = 16
#: Epoch sizes past this never fire (``r`` counts transfers, fewer than
#: 2**62), so the C step's int64 sees them clamped without changing a
#: decision.
_EPOCH_CAP = 1 << 62
#: The C step's error returns, and the messages both backends raise.
_ERR_NO_LIVE_COPY = -1
_NO_LIVE_COPY = (
    "no live copy anywhere at t={}; the never-drop-the-last-copy rule is broken"
)
_ALREADY_HOLDS = "server {} already holds a copy"

_digest_value = None


def _get_digest_value():
    global _digest_value
    if _digest_value is None:
        from ..runtime.digest import digest_value

        _digest_value = digest_value
    return _digest_value


def validate_sc_params(
    window_factor: float, epoch_size: Optional[int]
) -> Tuple[float, Optional[int]]:
    """Checked ``(window_factor, epoch_size)`` of SC/TTL(γ).

    The one parameter check of both SC paths
    (:class:`~repro.online.speculative.SpeculativeCaching` and
    :class:`SCState`): ``window_factor`` must be a finite real number
    ``> 0``, ``epoch_size`` ``None`` or an integer ``>= 1`` (``bool`` is
    not an epoch size).  Anything else raises ``ValueError``.  Returns
    them as a Python ``float`` and ``int``, so every path computes the
    window in the same (double) precision.
    """
    try:
        ok = math.isfinite(window_factor) and window_factor > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(
            f"window_factor must be a finite number > 0, got {window_factor!r}"
        )
    window_factor = float(window_factor)
    if epoch_size is None:
        return window_factor, None
    try:
        size = None if isinstance(epoch_size, bool) else operator.index(epoch_size)
    except TypeError:
        size = None
    if size is None or size < 1:
        raise ValueError(
            f"epoch_size must be None or an integer >= 1, got {epoch_size!r}"
        )
    return window_factor, size


def sc_name(window_factor: float) -> str:
    """The policy name ``SpeculativeCaching(window_factor=γ)`` reports."""
    if window_factor != 1.0:
        return f"ttl({window_factor:g}x)"
    return "speculative-caching"


def vector_policy_config(
    algorithm: "OnlineAlgorithm",
) -> Optional[Tuple[float, Optional[int], str]]:
    """``(window_factor, epoch_size, name)`` when ``algorithm`` runs on the
    vector kernel bit-identically, else ``None``.

    The single eligibility decision of every online path.  The check is
    an exact type match: subclasses override the window / source / floor
    hooks whose SC behaviour this kernel hard-codes (``RandomizedTTL``
    redraws its window per refresh, ``Predictive`` shrinks it,
    ``Resilient`` raises the copy floor), so any subclass — even one that
    changes nothing — stays on the per-event path.
    """
    from ..online.speculative import SpeculativeCaching

    if type(algorithm) is not SpeculativeCaching:
        return None
    return (algorithm.window_factor, algorithm.epoch_size, algorithm.name)


# ---------------------------------------------------------------------------
# Kernel result.
# ---------------------------------------------------------------------------


@dataclass
class OnlineKernelRun:
    """Raw outcome of one kernel run over one item (what :func:`finish`
    returns).

    Everything is plain data (native scalars, tuples, numpy arrays) so a
    sweep over thousands of instances allocates no recorder/schedule
    machinery; :meth:`to_result` materialises the full
    :class:`~repro.sim.recorder.OnlineRunResult` — bit-identical to the
    per-event run — only when a caller wants the rich object.

    Attributes
    ----------
    name:
        Item name (batch entry points) — ``""`` for single runs.
    algorithm:
        Policy name (``"speculative-caching"`` / ``"ttl(γx)"``).
    cost:
        ``Π`` of the run, same float the per-event recorder computes.
    caching_cost / transfer_cost / copy_seconds:
        Cost split; ``copy_seconds`` is the merged copy-time the caching
        charge rents (``caching_cost = μ · copy_seconds``).
    counters:
        Same keys/values as the per-event recorder.
    hit:
        Per-request local-hit flags, index-aligned with the instance
        (``hit[0]`` covers the boundary request ``r_0`` and is always
        True — the initial copy serves it).
    src:
        Per-request transfer source (``-1`` where no transfer happened).
    epoch_resets:
        Request indices whose transfer closed an epoch.
    transfers:
        ``(time, src, dst)`` in creation order.
    intervals:
        Canonical merged ``(server, start, end)`` cache intervals.
    lifetimes:
        Raw 7-tuples in :class:`CopyLifetime` field order.
    digest:
        The decision digest (see :func:`decision_digest`).
    """

    name: str
    algorithm: str
    window_factor: float
    epoch_size: Optional[int]
    cost: float
    caching_cost: float
    transfer_cost: float
    copy_seconds: float
    counters: Dict[str, int]
    hit: np.ndarray
    src: np.ndarray
    epoch_resets: np.ndarray
    transfers: List[Tuple[float, int, int]]
    intervals: List[Tuple[int, float, float]]
    lifetimes: List[tuple] = field(repr=False)
    _digest: Optional[str] = field(default=None, repr=False)

    @property
    def digest(self) -> str:
        """Decision digest, computed on first access and cached."""
        if self._digest is None:
            self._digest = _get_digest_value()(
                _digest_payload(
                    self.algorithm,
                    self.cost,
                    self.counters,
                    self.transfers,
                    self.intervals,
                )
            )
        return self._digest

    @property
    def num_transfers(self) -> int:
        return len(self.transfers)

    def to_result(self) -> "OnlineRunResult":
        """Materialise the bit-identical :class:`OnlineRunResult`.

        Only ``1 + num_transfers`` lifetime objects and the canonical
        interval/transfer atoms are allocated — cheap next to the run.
        """
        from ..core.types import CacheInterval, Transfer
        from ..schedule.schedule import Schedule
        from ..sim.recorder import CopyLifetime, OnlineRunResult

        schedule = Schedule(
            intervals=[CacheInterval(s, a, b) for s, a, b in self.intervals],
            transfers=[Transfer(t, s, d) for t, s, d in sorted(self.transfers)],
        )
        return OnlineRunResult(
            schedule=schedule,
            cost=self.cost,
            counters=dict(self.counters),
            lifetimes=[CopyLifetime(*row) for row in self.lifetimes],
            algorithm=self.algorithm,
            transfers=list(self.transfers),
        )


def decision_digest(run: Union[OnlineKernelRun, "OnlineRunResult"]) -> str:
    """Canonical digest of a run's decisions and cost.

    Covers the algorithm name, total cost, counters, creation-order
    transfers and canonical merged intervals — everything the per-epoch
    state machine decided.  Computable from either representation, and
    equal exactly when the runs are bit-identical, so the differential
    suite and the benchmark identity gates compare one short string.
    """
    if isinstance(run, OnlineKernelRun):
        return run.digest
    payload = _digest_payload(
        run.algorithm,
        run.cost,
        run.counters,
        [(t, s, d) for t, s, d in run.transfers],
        [(iv.server, iv.start, iv.end) for iv in run.schedule.intervals],
    )
    return _get_digest_value()(payload)


def _digest_payload(algorithm, cost, counters, transfers, intervals) -> dict:
    return {
        "algorithm": algorithm,
        "cost": float(cost),
        "counters": {k: int(v) for k, v in counters.items()},
        "transfers": [[float(t), int(s), int(d)] for t, s, d in transfers],
        "intervals": [[int(s), float(a), float(b)] for s, a, b in intervals],
    }


# ---------------------------------------------------------------------------
# The kernel: per-item state, block step (C or Python), finish.
# ---------------------------------------------------------------------------


class SCState:
    """Resumable state of one SC/TTL(γ) run over one item.

    Everything the per-event
    :class:`~repro.online.speculative.SpeculativeCaching` keeps between
    requests, held as numpy arrays and Python scalars only, so
    ``copy.deepcopy`` snapshots a run and the copy resumes
    bit-identically:

    * per server ``s``: ``expiry[s]`` (``-inf`` when ``s`` holds no
      copy), the refresh cause ``cause_kind[s]`` (a ``CAUSE_*`` code) and
      ``cause_time[s]``, and ``open_life[s]`` — the ledger row of its
      open lifetime, or ``-1``;
    * the expiration queue ``qt``/``qs[head:qlen]``, in heap pop order
      with stale entries included;
    * ``c`` live copies, ``r`` transfers in the current epoch, ``last``
      (the previous request's server), ``n`` requests consumed and
      ``last_t`` (the last request's time; ``t0`` before any);
    * the lifetimes ledger ``lt_*[:nlife]``: row 0 is the initial copy,
      row ``k >= 1`` the copy transfer ``k - 1`` created — its server,
      source, request index, start, end (NaN while held), last useful
      instant, ``END_*`` code, and whether its transfer closed an epoch;
    * the counters ``hits``, ``expirations``, ``extensions``, ``epochs``
      and ``fallbacks``;
    * the constants ``m``, ``mu``, ``lam``, ``W = window_factor·(λ/μ)``,
      ``window_factor``, ``epoch_size``, and the ``name`` / ``algorithm``
      labels :func:`finish` reports.

    Construction replays ``r_0``: the origin holds the initial copy,
    armed at ``t0 + W``.  Parameters are checked by
    :func:`validate_sc_params`; ``origin`` must lie in
    ``[0, num_servers)``.
    """

    def __init__(
        self,
        num_servers: int,
        mu: float,
        lam: float,
        origin: int,
        t0: float,
        window_factor: float = 1.0,
        epoch_size: Optional[int] = None,
        name: str = "",
        algorithm: Optional[str] = None,
    ):
        window_factor, epoch_size = validate_sc_params(window_factor, epoch_size)
        m = operator.index(num_servers)
        origin = operator.index(origin)
        if m < 1 or not 0 <= origin < m:
            raise ValueError(f"need origin in [0, m) with m >= 1, got {origin}, {m}")
        mu, lam, t0 = float(mu), float(lam), float(t0)
        # Same expression as SpeculativeCaching._window.
        W = window_factor * (lam / mu)
        self.name = name
        self.algorithm = sc_name(window_factor) if algorithm is None else algorithm
        self.window_factor = window_factor
        self.epoch_size = epoch_size
        self.m, self.mu, self.lam, self.W = m, mu, lam, W

        self.expiry = np.full(m, _NEG_INF)
        # The per-event _cause dict keeps stale causes across deletions,
        # so these are never cleared either.
        self.cause_kind = np.full(m, CAUSE_NONE, dtype=np.int64)
        self.cause_time = np.zeros(m)
        self.open_life = np.full(m, -1, dtype=np.int64)
        self.expiry[origin] = t0 + W
        self.cause_kind[origin] = CAUSE_INITIAL
        self.cause_time[origin] = t0
        self.open_life[origin] = 0

        self.qt = np.empty(_INITIAL_CAP)
        self.qs = np.empty(_INITIAL_CAP, dtype=np.int64)
        self.qt[0] = t0 + W
        self.qs[0] = origin
        self.head = 0
        self.qlen = 1

        for col, dtype in zip(_LEDGER, _LEDGER_DTYPES):
            setattr(self, col, np.empty(_INITIAL_CAP, dtype=dtype))
        for col, value in zip(_LEDGER, (origin, -1, 0, t0, math.nan, t0, END_OPEN, 0)):
            getattr(self, col)[0] = value
        self.nlife = 1

        self.n = 0
        self.c = 1
        self.r = 0
        self.last = origin
        self.last_t = t0
        self.hits = 0
        self.expirations = 0
        self.extensions = 0
        self.epochs = 0
        self.fallbacks = 0


class SCBlock(NamedTuple):
    """One :func:`step_block` call's decisions, aligned with its block.

    ``hit[j]`` is True when the block's ``j``-th request was served by
    the copy on its own server; otherwise ``src[j]`` is the transfer
    source (``-1`` on hits).  ``epoch_resets`` holds the block positions
    whose transfer closed an epoch.
    """

    hit: np.ndarray
    src: np.ndarray
    epoch_resets: np.ndarray


def step_block(state: SCState, t, srv) -> SCBlock:
    """Advance ``state`` over the requests ``(t[j], srv[j])``.

    Times must be non-decreasing from the last request seen and servers
    must lie in ``[0, m)``; otherwise ``ValueError`` is raised before the
    state changes.  The backend is the one
    :func:`~repro.kernels.batch.batch_sweep_backend` names; both leave
    the same state, and any split of a sequence into blocks leaves the
    same state as one block.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    srv = np.ascontiguousarray(srv, dtype=np.int64)
    _check_block(state, t, srv)
    n0, l0 = state.n, state.nlife
    if _resolve_backend() == "c":
        _step_c(_load_sweep_lib(), state, t, srv)
    else:
        _step_python(state, t.tolist(), srv.tolist())
    if t.shape[0]:
        state.last_t = float(t[-1])
    return _decisions(state, n0, l0)


def _check_block(state: SCState, t: np.ndarray, srv: np.ndarray) -> None:
    if t.ndim != 1 or t.shape != srv.shape:
        raise ValueError(
            f"a block is two equal-length 1-D columns, got shapes "
            f"{t.shape} and {srv.shape}"
        )
    if not t.shape[0]:
        return
    if int(srv.min()) < 0 or int(srv.max()) >= state.m:
        bad = int(np.flatnonzero((srv < 0) | (srv >= state.m))[0])
        raise ValueError(
            f"server ids must lie in [0, {state.m}), got {int(srv[bad])}"
        )
    if t[0] < state.last_t or bool(np.any(t[1:] < t[:-1])):
        raise ValueError(
            "request times must be non-decreasing from the last request "
            f"seen (t={state.last_t}); refusing an out-of-order block"
        )


def _decisions(state: SCState, n0: int, l0: int) -> SCBlock:
    """Decisions of requests ``n0+1 .. state.n``, read off ledger rows
    ``l0..`` (each transfer created one row; every other request hit)."""
    rows = slice(l0, state.nlife)
    at = state.lt_req[rows] - (n0 + 1)
    hit = np.ones(state.n - n0, dtype=bool)
    hit[at] = False
    src = np.full(state.n - n0, -1, dtype=np.int64)
    src[at] = state.lt_src[rows]
    return SCBlock(hit, src, at[state.lt_reset[rows] != 0])


def _grow(arr: np.ndarray, size: int, keep: int) -> np.ndarray:
    """``arr`` if it holds ``size`` entries, else a doubled copy of its
    first ``keep``."""
    if arr.shape[0] >= size:
        return arr
    out = np.empty(max(2 * arr.shape[0], size), dtype=arr.dtype)
    out[:keep] = arr[:keep]
    return out


def _reserve(state: SCState, requests: int) -> None:
    """Room for ``requests`` more requests: two queue pushes and one ledger
    row each, plus one expiration group (at most ``m`` re-arms).

    Drops the consumed queue prefix first and doubles only when that is
    not enough.  Extensions push without bound, so the C step can still
    run out of room; it then returns and :func:`_step_c` calls this again.
    """
    room = 2 * requests + state.m + 2
    if state.qt.shape[0] - state.qlen < room:
        live = state.qlen - state.head
        state.qt[:live] = state.qt[state.head : state.qlen]
        state.qs[:live] = state.qs[state.head : state.qlen]
        state.head, state.qlen = 0, live
        state.qt = _grow(state.qt, live + room, live)
        state.qs = _grow(state.qs, live + room, live)
    need = state.nlife + requests
    for col in _LEDGER:
        setattr(state, col, _grow(getattr(state, col), need, state.nlife))


def _step_c(lib, state: SCState, t: np.ndarray, srv: np.ndarray) -> None:
    """Run ``repro_sc_step`` over the block, resuming after every early
    return for room."""
    m = state.m
    k = t.shape[0]
    epoch = 0 if state.epoch_size is None else min(state.epoch_size, _EPOCH_CAP)
    scratch = np.empty(3 * m, dtype=np.int64)
    iv = np.empty(len(_IV_FIELDS), dtype=np.int64)
    # Per-server arrays are never reallocated; the queue and the ledger
    # may be, by _reserve, so their addresses are taken per call.
    fixed = (
        _addr(t, np.float64, k),
        _addr(srv, np.int64, k),
        iv.ctypes.data,
        _addr(state.expiry, np.float64, m, out=True),
        _addr(state.cause_kind, np.int64, m, out=True),
        _addr(state.cause_time, np.float64, m, out=True),
        _addr(state.open_life, np.int64, m, out=True),
        scratch.ctypes.data,
    )
    j = 0
    while j < k:
        _reserve(state, k - j)
        qcap = state.qt.shape[0]
        lcap = state.lt_srv.shape[0]
        if not (
            0 <= state.head <= state.qlen <= qcap
            and 1 <= state.nlife <= lcap
            and 0 <= state.last < m
        ):
            raise ValueError("SCState scalars are out of range")
        iv[:] = [getattr(state, f) for f in _IV_FIELDS]
        n0 = state.n
        got = lib.repro_sc_step(
            m,
            state.W,
            epoch,
            j,
            k,
            *fixed,
            _addr(state.qt, np.float64, qcap, out=True),
            _addr(state.qs, np.int64, qcap, out=True),
            qcap,
            *[
                _addr(getattr(state, col), dtype, lcap, out=True)
                for col, dtype in zip(_LEDGER, _LEDGER_DTYPES)
            ],
            lcap,
        )
        for f, value in zip(_IV_FIELDS, iv.tolist()):
            setattr(state, f, value)
        if got < 0:
            at = j + state.n - n0
            if got == _ERR_NO_LIVE_COPY:
                raise RuntimeError(_NO_LIVE_COPY.format(float(t[at])))
            raise RuntimeError(_ALREADY_HOLDS.format(int(srv[at])))
        j = got


def _step_python(
    state: SCState,
    ts: List[float],
    ss: List[int],
    drain_to: Optional[float] = None,
) -> None:
    """Advance ``state`` over ``(ts[j], ss[j])`` — the C step's spec.

    Works on native lists copied out of the state and stores them back at
    the end (so a raise leaves the state as it was).  ``drain_to`` runs
    one more ``advance(drain_to)`` after the block: :func:`finish`'s
    end-of-sequence drain.  Every arithmetic expression mirrors its
    per-event twin character for character — ``t + W`` like ``_arm``,
    ``e + W`` like the flat re-arm — so results agree bitwise, not just
    to tolerance.
    """
    m = state.m
    W = state.W
    epoch_size = state.epoch_size
    expiry = state.expiry.tolist()
    cause_kind = state.cause_kind.tolist()
    cause_time = state.cause_time.tolist()
    open_life = state.open_life.tolist()
    # Expiration queue: (time, server) in heap pop order, head-consumed.
    qt: List[float] = state.qt[state.head : state.qlen].tolist()
    qs: List[int] = state.qs[state.head : state.qlen].tolist()
    head = 0
    ledger = [getattr(state, col)[: state.nlife].tolist() for col in _LEDGER]
    l_srv, l_src, l_req, l_start, l_end, l_last, l_ended, l_reset = ledger
    n, c, r, last = state.n, state.c, state.r, state.last
    hits, expirations = state.hits, state.expirations
    extensions, epochs, fallbacks = state.extensions, state.epochs, state.fallbacks

    def push_slow(time: float, server: int) -> None:  # pragma: no cover
        # SC pushes monotonically non-decreasing, so the hot paths just
        # append; this insert is the exact-order safety net replicating
        # heap (time, seq) placement for any out-of-order push.
        pos = bisect_right(qt, time, head)
        qt.insert(pos, time)
        qs.insert(pos, server)

    def advance(t: float) -> None:
        nonlocal head, c, expirations, extensions
        qlen = len(qt)
        while True:
            # pop_group(t, _valid): discard stale, deliver the earliest
            # valid entry plus all same-time entries (validity-filtered).
            e = 0.0
            s = -1
            while head < qlen and qt[head] < t:
                e = qt[head]
                s = qs[head]
                head += 1
                if expiry[s] == e:
                    break
            else:
                return
            group = [s]
            while head < qlen and qt[head] == e:
                s2 = qs[head]
                head += 1
                if expiry[s2] == e:
                    group.append(s2)
            # Dedupe by server, order preserved (dict.fromkeys twin).
            if len(group) > 1:
                group = list(dict.fromkeys(group))
            deletable = c - 1
            if deletable >= len(group):
                for s2 in group:
                    expiry[s2] = _NEG_INF
                    c -= 1
                    expirations += 1
                    li = open_life[s2]
                    open_life[s2] = -1
                    l_end[li] = e
                    l_ended[li] = END_EXPIRE
            else:
                count = len(group) - deletable
                if count >= len(group):
                    keep = group
                else:
                    # _extension_survivors: repeated tie rule; count is
                    # provably 1 here (the group is every live copy) but
                    # the general loop is kept for exactness.
                    remaining = list(group)
                    keep = []
                    for _ in range(count):
                        winner = -1
                        for s2 in remaining:
                            if cause_kind[s2] == CAUSE_DST:
                                winner = s2
                                break
                        if winner < 0:
                            winner = max(
                                remaining,
                                key=lambda s3: cause_time[s3]
                                if cause_kind[s3] != CAUSE_NONE
                                else _NEG_INF,
                            )
                        keep.append(winner)
                        remaining.remove(winner)
                for s2 in group:
                    if s2 not in keep:
                        expiry[s2] = _NEG_INF
                        c -= 1
                        expirations += 1
                        li = open_life[s2]
                        open_life[s2] = -1
                        l_end[li] = e
                        l_ended[li] = END_EXPIRE
                extensions += 1
                for s2 in keep:
                    e2 = e + W
                    expiry[s2] = e2
                    if head >= qlen or e2 >= qt[-1]:
                        qt.append(e2)
                        qs.append(s2)
                    else:  # pragma: no cover - unreachable for SC
                        push_slow(e2, s2)
                    qlen = len(qt)

    for i, (t, server) in enumerate(zip(ts, ss), n + 1):
        # pop_group pops nothing unless an entry sits strictly before t,
        # so the guard is an exact (and much cheaper) no-op detector.
        if head < len(qt) and qt[head] < t:
            advance(t)
        if expiry[server] >= t:
            hits += 1
            l_last[open_life[server]] = t
            cause_kind[server] = CAUSE_LOCAL
            cause_time[server] = t
            e2 = t + W
            expiry[server] = e2
            if head >= len(qt) or e2 >= qt[-1]:
                qt.append(e2)
                qs.append(server)
            else:  # pragma: no cover - unreachable for SC
                push_slow(e2, server)
        else:
            src = last
            if not (expiry[src] >= t and src != server):
                fallbacks += 1
                alive = [
                    s2 for s2 in range(m) if s2 != server and expiry[s2] >= t
                ]
                if not alive:  # pragma: no cover - extension rule forbids
                    raise RuntimeError(_NO_LIVE_COPY.format(t))
                src = max(alive, key=expiry.__getitem__)
            if open_life[server] >= 0:  # pragma: no cover - defensive twin
                raise RuntimeError(_ALREADY_HOLDS.format(server))
            li = len(l_srv)
            open_life[server] = li
            l_srv.append(server)
            l_src.append(src)
            l_req.append(i)
            l_start.append(t)
            l_end.append(math.nan)
            l_last.append(t)
            l_ended.append(END_OPEN)
            l_reset.append(0)
            c += 1
            cause_kind[server] = CAUSE_DST
            cause_time[server] = t
            e2 = t + W
            expiry[server] = e2
            if head >= len(qt) or e2 >= qt[-1]:
                qt.append(e2)
                qs.append(server)
            else:  # pragma: no cover - unreachable for SC
                push_slow(e2, server)
            l_last[open_life[src]] = t
            cause_kind[src] = CAUSE_SRC
            cause_time[src] = t
            expiry[src] = e2
            if head >= len(qt) or e2 >= qt[-1]:
                qt.append(e2)
                qs.append(src)
            else:  # pragma: no cover - unreachable for SC
                push_slow(e2, src)
            r += 1
            if epoch_size is not None and r >= epoch_size:
                for s2 in range(m):
                    if s2 != server and expiry[s2] > _NEG_INF:
                        expiry[s2] = _NEG_INF
                        c -= 1
                        lj = open_life[s2]
                        open_life[s2] = -1
                        l_end[lj] = t
                        l_ended[lj] = END_EPOCH_RESET
                r = 0
                epochs += 1
                l_reset[li] = 1
        last = server
    n += len(ts)
    if drain_to is not None and head < len(qt) and qt[head] < drain_to:
        advance(drain_to)

    state.expiry[:] = expiry
    state.cause_kind[:] = cause_kind
    state.cause_time[:] = cause_time
    state.open_life[:] = open_life
    live = len(qt) - head
    state.qt = _grow(state.qt, live, 0)
    state.qs = _grow(state.qs, live, 0)
    state.qt[:live] = qt[head:]
    state.qs[:live] = qs[head:]
    state.head, state.qlen = 0, live
    nlife = len(l_srv)
    for col, values in zip(_LEDGER, ledger):
        arr = _grow(getattr(state, col), nlife, 0)
        arr[:nlife] = values
        setattr(state, col, arr)
    state.nlife = nlife
    state.n, state.c, state.r, state.last = n, c, r, last
    state.hits, state.expirations = hits, expirations
    state.extensions, state.epochs, state.fallbacks = extensions, epochs, fallbacks


def finish(state: SCState) -> OnlineKernelRun:
    """End-of-sequence accounting: the run's :class:`OnlineKernelRun`.

    Replays the per-event ``end(t_n)`` + :meth:`RunRecorder.finalize` +
    ``Schedule`` canonicalisation at ``t_n = state.last_t``.  Open
    lifetimes are truncated in the result only, so the state can keep
    stepping afterwards.
    """
    t_end = state.last_t
    # end(t_n): drain timers strictly before the horizon.  advance(t_n)
    # already ran for the last request and every refresh since grants
    # t + W >= t, so nothing is due; kept as the per-event twin.
    if state.head < state.qlen and state.qt[state.head] < t_end:  # pragma: no cover
        _step_python(state, [], [], drain_to=t_end)
    nl = state.nlife
    held = state.lt_ended[:nl] == END_OPEN
    srv = state.lt_srv[:nl].tolist()
    src = state.lt_src[:nl].tolist()
    start = state.lt_start[:nl].tolist()
    end = np.where(held, t_end, state.lt_end[:nl]).tolist()
    last_use = state.lt_last[:nl].tolist()
    ended = np.where(held, END_TRUNCATE, state.lt_ended[:nl]).tolist()

    # finalize + canonical + total_cost on plain tuples, same expressions.
    # finalize clamps ends with min(end, t_end); every close time above
    # is already <= t_end, so the clamp returns the same float and can
    # be skipped without touching the value.
    merged: List[Tuple[int, float, float]] = []
    for s, a, b in sorted(zip(srv, start, end)):
        if merged and merged[-1][0] == s and a <= merged[-1][2]:
            if b > merged[-1][2]:
                merged[-1] = (s, merged[-1][1], b)
        else:
            merged.append((s, a, b))
    copy_seconds = sum(b - a for _, a, b in merged)
    caching_cost = state.mu * copy_seconds
    transfers = list(zip(start[1:], src[1:], srv[1:]))
    transfer_cost = sum(state.lam for _ in transfers)
    cost = caching_cost + transfer_cost

    counters = {
        "transfers": len(transfers),
        "local_hits": state.hits,
        "expirations": state.expirations,
        "extensions": state.extensions,
        "epochs": state.epochs,
    }
    if state.fallbacks:
        counters["source_fallbacks"] = state.fallbacks

    # r_0 is request 0 and the initial copy is ledger row 0.
    decisions = _decisions(state, -1, 1)
    return OnlineKernelRun(
        name=state.name,
        algorithm=state.algorithm,
        window_factor=state.window_factor,
        epoch_size=state.epoch_size,
        cost=cost,
        caching_cost=caching_cost,
        transfer_cost=transfer_cost,
        copy_seconds=copy_seconds,
        counters=counters,
        hit=decisions.hit,
        src=decisions.src,
        epoch_resets=decisions.epoch_resets,
        transfers=transfers,
        intervals=merged,
        lifetimes=[
            (s, a, b, u, "transfer" if k else "initial", k - 1, _END_NAMES[x])
            for k, (s, a, b, u, x) in enumerate(
                zip(srv, start, end, last_use, ended)
            )
        ],
    )


# ---------------------------------------------------------------------------
# Public entry points: single instance, packed layout, item batch.
# ---------------------------------------------------------------------------


def _run_item(
    name: str,
    t: np.ndarray,
    srv: np.ndarray,
    m: int,
    mu: float,
    lam: float,
    origin: int,
    window_factor: float,
    epoch_size: Optional[int],
    algorithm: Optional[str] = None,
) -> OnlineKernelRun:
    """New state, one block, finish: one item's columns (incl. ``r_0``)."""
    state = SCState(
        m, mu, lam, origin, t[0], window_factor, epoch_size, name, algorithm
    )
    step_block(state, t[1:], srv[1:])
    return finish(state)


def run_online_vector(
    instance: "ProblemInstance",
    window_factor: float = 1.0,
    epoch_size: Optional[int] = None,
    materialize: bool = True,
    algorithm_name: Optional[str] = None,
) -> Union["OnlineRunResult", OnlineKernelRun]:
    """Run SC/TTL(γ) over one instance on the vector kernel.

    Bit-identical to
    ``run_online(SpeculativeCaching(window_factor, epoch_size), instance)``
    on every result field.  ``materialize=False`` returns the raw
    :class:`OnlineKernelRun` (no recorder/schedule objects) for sweeps.
    ``algorithm_name`` overrides the reported policy name (the engine
    passes the policy's own ``name`` so a renamed instance round-trips).
    """
    run = _run_item(
        "",
        np.asarray(instance.t, dtype=np.float64),
        np.asarray(instance.srv, dtype=np.int64),
        instance.num_servers,
        instance.cost.mu,
        instance.cost.lam,
        instance.origin,
        window_factor,
        epoch_size,
        algorithm_name,
    )
    return run.to_result() if materialize else run


def run_online_layout(
    layout: BatchLayout,
    window_factor: float = 1.0,
    epoch_size: Optional[int] = None,
    algorithm_name: Optional[str] = None,
) -> List[OnlineKernelRun]:
    """Run the kernel over every item of a packed batch layout.

    One call serves a whole service / instance block; results are in
    layout order, each bit-identical to the per-item per-event run.
    """
    return [
        _run_item(
            layout.names[k],
            layout.t[sl],
            layout.srv[sl],
            int(layout.mserv[k]),
            float(layout.mu[k]),
            float(layout.lam[k]),
            int(layout.origin[k]),
            window_factor,
            epoch_size,
            algorithm_name,
        )
        for k, sl in enumerate(map(layout.item_slice, range(layout.num_items)))
    ]


def run_online_batch(
    items: Union[
        Dict[str, "ProblemInstance"], Iterable[Tuple[str, "ProblemInstance"]]
    ],
    window_factor: float = 1.0,
    epoch_size: Optional[int] = None,
    algorithm_name: Optional[str] = None,
) -> Dict[str, "OnlineRunResult"]:
    """Serve a whole item batch with ONE kernel call.

    The online twin of :func:`repro.kernels.batch.solve_offline_batch`:
    items are packed into a :class:`BatchLayout` and every run is
    materialised bit-identical to the serial per-item
    ``SpeculativeCaching(...).run(inst)`` loop — same key order, same
    costs, same counters, same schedules.
    """
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        return {}
    layout = BatchLayout.from_instances(pairs)
    runs = run_online_layout(
        layout, window_factor, epoch_size, algorithm_name=algorithm_name
    )
    return {name: run.to_result() for (name, _), run in zip(pairs, runs)}
