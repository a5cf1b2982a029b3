"""Array-native online SC/TTL(γ) kernel — whole runs without hook dispatch.

:class:`~repro.online.speculative.SpeculativeCaching` is the paper's
per-epoch state machine transliterated hook by hook: every request costs
an ``advance`` + ``serve`` dispatch, a heap push, recorder method calls
and a couple of small-object allocations.  That is the right shape for
an *executable specification*, but competitive-ratio sweeps run it
millions of times, and the interpreter overhead — not the state machine
— dominates.

This module is the fast path: one tight loop over native scalar columns
that replays the *identical* state machine and produces bit-identical
results, including floating-point expression order:

* the expiration queue is a flat ``(time, server)`` list consumed by a
  head pointer.  SC's pushes are monotone non-decreasing in time (a
  refresh at ``t`` grants ``t + W``, never earlier than any pending
  entry; a lone-copy extension at ``e`` grants ``e + W`` after every
  pending valid entry has fired), so appends keep the list in exactly
  the heap's ``(time, seq)`` pop order; a ``bisect`` insert covers any
  out-of-order push so the replication is exact by construction, not by
  conjecture.  Lazy invalidation is the same time-match rule as
  :meth:`EventQueue.pop_group` (``expiry[s] == entry time``), stale
  entries are consumed on the way, and same-time entries are gathered
  into one deduplicated group;
* expiration groups replay paper step 4 verbatim: delete all when the
  floor holds, otherwise pick survivors by the transfer-target tie rule
  (first ``"dst"`` cause in group order, else most recent cause) and
  re-arm them flat at ``e + W`` — the lone-copy extension chain is the
  same repeated addition ``e, e+W, (e+W)+W, ...`` as the per-event code,
  never the algebraically equal ``e + k·W``;
* request handling replays step 3: the window test ``expiry[s] >= t``,
  the previous requester as transfer source (with the same freshest-
  copy fallback, counted identically), source refresh, and the
  ``epoch_size`` reset that only the requester's copy survives;
* finalisation replays :meth:`RunRecorder.finalize` + ``Schedule``
  canonicalisation on plain tuples: truncate open lifetimes at ``t_n``,
  sort intervals by ``(server, start, end)``, merge with the exact
  touch-merges-too rule, and charge ``μ · Σ durations + Σ λ`` with the
  same left-fold summation order.

The eligibility test is deliberately ``type(...) is SpeculativeCaching``
— subclasses (randomised TTL windows, predictive windows, the resilient
replica floor) override the window/floor hooks this kernel hard-codes,
so they stay on the per-event path.

Batch entry points (:func:`run_online_layout`, :func:`run_online_batch`,
:func:`sweep_layout`) reuse :class:`~repro.kernels.batch.BatchLayout`'s
ragged columns so a whole multi-item service or a TTL γ-grid is one kernel
call with the per-item column prep hoisted out of the γ loop.

Import discipline: like the rest of :mod:`repro.kernels`, no module-level
imports of :mod:`repro.core` / :mod:`repro.online` / :mod:`repro.sim`
(the instance constructor imports the kernels package) — result
materialisation imports lazily.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .batch import BatchLayout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.instance import ProblemInstance
    from ..online.base import OnlineAlgorithm
    from ..sim.recorder import OnlineRunResult

__all__ = [
    "ONLINE_KERNELS",
    "OnlineKernelRun",
    "vector_policy_config",
    "run_online_vector",
    "run_online_layout",
    "run_online_batch",
    "sweep_layout",
    "decision_digest",
    "sc_name",
]

#: Valid ``kernel=`` selectors for online runs.  ``"auto"`` picks the
#: vector kernel when :func:`vector_policy_config` accepts the policy and
#: the per-event path otherwise; ``"event"`` pins the per-event path.
#: Results are bit-identical either way.
ONLINE_KERNELS = ("auto", "event")

_NEG_INF = -math.inf

_digest_value = None


def _get_digest_value():
    global _digest_value
    if _digest_value is None:
        from ..runtime.digest import digest_value

        _digest_value = digest_value
    return _digest_value


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
    """Raw outcome of one vector-kernel run over one item.

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
# The kernel core: one item, native scalar columns.
# ---------------------------------------------------------------------------


def _kernel_run(
    name: str,
    ts: List[float],
    ss: List[int],
    m: int,
    mu: float,
    lam: float,
    origin: int,
    window_factor: float,
    epoch_size: Optional[int],
    algo_name: Optional[str] = None,
) -> OnlineKernelRun:
    """Replay SC/TTL(γ) over one item's native columns (incl. ``r_0``).

    Every arithmetic expression below mirrors its per-event twin
    character for character — ``window_factor * (lam / mu)`` like
    ``_window``, ``t + W`` like ``_arm``, ``e + W`` like the flat
    re-arm — so results agree bitwise, not just to tolerance.
    """
    if window_factor <= 0:
        raise ValueError(f"window_factor must be positive, got {window_factor}")
    if epoch_size is not None and epoch_size < 1:
        raise ValueError(f"epoch_size must be >= 1, got {epoch_size}")
    W = window_factor * (lam / mu)
    t0 = ts[0]
    n = len(ts) - 1

    expiry = [_NEG_INF] * m
    # _cause replica: kind None == absent; the per-event dict keeps stale
    # causes across deletions, so these are never cleared either.
    cause_kind: List[Optional[str]] = [None] * m
    cause_time = [0.0] * m
    cause_kind[origin] = "initial"
    cause_time[origin] = t0

    # Expiration queue: (time, server) in heap pop order, head-consumed.
    qt: List[float] = [t0 + W]
    qs: List[int] = [origin]
    head = 0
    expiry[origin] = t0 + W

    c = 1
    r = 0
    last = origin

    # Lifetime ledger: rows in CopyLifetime field order, mutated in place.
    lifetimes: List[list] = [[origin, t0, None, t0, "initial", -1, None]]
    open_life = [-1] * m
    open_life[origin] = 0

    transfers: List[Tuple[float, int, int]] = []
    hits = 0
    expirations = 0
    extensions = 0
    epochs = 0
    fallbacks = 0

    miss_idx: List[int] = []
    miss_src: List[int] = []
    resets: List[int] = []

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
                    row = lifetimes[li]
                    row[2] = e
                    row[6] = "expire"
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
                            if cause_kind[s2] == "dst":
                                winner = s2
                                break
                        if winner < 0:
                            best = _NEG_INF
                            for s2 in remaining:
                                ct = (
                                    cause_time[s2]
                                    if cause_kind[s2] is not None
                                    else _NEG_INF
                                )
                                if ct > best:
                                    best = ct
                                    winner = s2
                        keep.append(winner)
                        remaining.remove(winner)
                for s2 in group:
                    if s2 not in keep:
                        expiry[s2] = _NEG_INF
                        c -= 1
                        expirations += 1
                        li = open_life[s2]
                        open_life[s2] = -1
                        row = lifetimes[li]
                        row[2] = e
                        row[6] = "expire"
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

    has_epoch = epoch_size is not None
    for i in range(1, n + 1):
        t = ts[i]
        # pop_group pops nothing unless an entry sits strictly before t,
        # so the guard is an exact (and much cheaper) no-op detector.
        if head < len(qt) and qt[head] < t:
            advance(t)
        server = ss[i]
        if expiry[server] >= t:
            hits += 1
            lifetimes[open_life[server]][3] = t
            cause_kind[server] = "local"
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
                    raise RuntimeError(
                        f"no live copy anywhere at t={t}; the never-drop-"
                        f"the-last-copy rule is broken"
                    )
                src = max(alive, key=expiry.__getitem__)
            miss_idx.append(i)
            miss_src.append(src)
            transfers.append((t, src, server))
            if open_life[server] >= 0:  # pragma: no cover - defensive twin
                raise RuntimeError(f"server {server} already holds a copy")
            open_life[server] = len(lifetimes)
            lifetimes.append(
                [server, t, None, t, "transfer", len(transfers) - 1, None]
            )
            c += 1
            cause_kind[server] = "dst"
            cause_time[server] = t
            e2 = t + W
            expiry[server] = e2
            if head >= len(qt) or e2 >= qt[-1]:
                qt.append(e2)
                qs.append(server)
            else:  # pragma: no cover - unreachable for SC
                push_slow(e2, server)
            lifetimes[open_life[src]][3] = t
            cause_kind[src] = "src"
            cause_time[src] = t
            expiry[src] = e2
            if head >= len(qt) or e2 >= qt[-1]:
                qt.append(e2)
                qs.append(src)
            else:  # pragma: no cover - unreachable for SC
                push_slow(e2, src)
            r += 1
            if has_epoch and r >= epoch_size:
                for s2 in range(m):
                    if s2 != server and expiry[s2] > _NEG_INF:
                        expiry[s2] = _NEG_INF
                        c -= 1
                        li = open_life[s2]
                        open_life[s2] = -1
                        row = lifetimes[li]
                        row[2] = t
                        row[6] = "epoch-reset"
                r = 0
                epochs += 1
                resets.append(i)
        last = server

    # end(t_n): drain timers strictly before the horizon, then truncate.
    t_end = ts[-1]
    if head < len(qt) and qt[head] < t_end:
        advance(t_end)
    for row in lifetimes:
        if row[2] is None:
            row[2] = t_end
            row[6] = "truncate"

    # finalize + canonical + total_cost on plain tuples, same expressions.
    # finalize clamps ends with min(end, t_end); every close time above
    # is already <= t_end, so the clamp returns the same float and can
    # be skipped without touching the value.
    merged: List[Tuple[int, float, float]] = []
    for s, a, b in sorted((row[0], row[1], row[2]) for row in lifetimes):
        if merged and merged[-1][0] == s and a <= merged[-1][2]:
            if b > merged[-1][2]:
                merged[-1] = (s, merged[-1][1], b)
        else:
            merged.append((s, a, b))
    copy_seconds = sum(b - a for _, a, b in merged)
    caching_cost = mu * copy_seconds
    transfer_cost = sum(lam for _ in transfers)
    cost = caching_cost + transfer_cost

    counters = {
        "transfers": len(transfers),
        "local_hits": hits,
        "expirations": expirations,
        "extensions": extensions,
        "epochs": epochs,
    }
    if fallbacks:
        counters["source_fallbacks"] = fallbacks

    hit_flags = np.ones(n + 1, dtype=bool)
    src_arr = np.full(n + 1, -1, dtype=np.int64)
    if miss_idx:
        idx = np.asarray(miss_idx, dtype=np.int64)
        hit_flags[idx] = False
        src_arr[idx] = np.asarray(miss_src, dtype=np.int64)

    algorithm = sc_name(window_factor) if algo_name is None else algo_name
    run = OnlineKernelRun(
        name=name,
        algorithm=algorithm,
        window_factor=window_factor,
        epoch_size=epoch_size,
        cost=cost,
        caching_cost=caching_cost,
        transfer_cost=transfer_cost,
        copy_seconds=copy_seconds,
        counters=counters,
        hit=hit_flags,
        src=src_arr,
        epoch_resets=np.asarray(resets, dtype=np.int64),
        transfers=transfers,
        intervals=merged,
        lifetimes=[tuple(row) for row in lifetimes],
    )
    return run


# ---------------------------------------------------------------------------
# Public entry points: single instance, packed layout, item batch, γ-grid.
# ---------------------------------------------------------------------------


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
    ts = np.asarray(instance.t, dtype=np.float64).tolist()
    ss = np.asarray(instance.srv, dtype=np.int64).tolist()
    run = _kernel_run(
        "",
        ts,
        ss,
        int(instance.num_servers),
        float(instance.cost.mu),
        float(instance.cost.lam),
        int(instance.origin),
        window_factor,
        epoch_size,
        algo_name=algorithm_name,
    )
    return run.to_result() if materialize else run


def _layout_columns(
    layout: BatchLayout,
) -> List[Tuple[str, List[float], List[int], int, float, float, int]]:
    """Hoist a layout's per-item columns to native scalars once."""
    cols = []
    for k in range(layout.num_items):
        sl = layout.item_slice(k)
        cols.append(
            (
                layout.names[k],
                layout.t[sl].tolist(),
                layout.srv[sl].tolist(),
                int(layout.mserv[k]),
                float(layout.mu[k]),
                float(layout.lam[k]),
                int(layout.origin[k]),
            )
        )
    return cols


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
        _kernel_run(
            name,
            ts,
            ss,
            m,
            mu,
            lam,
            origin,
            window_factor,
            epoch_size,
            algo_name=algorithm_name,
        )
        for name, ts, ss, m, mu, lam, origin in _layout_columns(layout)
    ]


def sweep_layout(
    layout: BatchLayout,
    window_factors: Sequence[float],
    epoch_size: Optional[int] = None,
) -> List[List[OnlineKernelRun]]:
    """TTL γ-grid over a packed batch: one row of runs per γ.

    The per-item column prep (numpy → native scalars) is hoisted out of
    the γ loop, so widening the grid costs only the state-machine replay
    — the broadcast the per-γ ``run_online`` loop cannot do.
    """
    cols = _layout_columns(layout)
    return [
        [
            _kernel_run(name, ts, ss, m, mu, lam, origin, float(wf), epoch_size)
            for name, ts, ss, m, mu, lam, origin in cols
        ]
        for wf in window_factors
    ]


def run_online_batch(
    items: Union[
        Dict[str, "ProblemInstance"], Iterable[Tuple[str, "ProblemInstance"]]
    ],
    window_factor: float = 1.0,
    epoch_size: Optional[int] = None,
    layout: Optional[BatchLayout] = None,
    algorithm_name: Optional[str] = None,
) -> Dict[str, "OnlineRunResult"]:
    """Serve a whole item batch with ONE kernel call per item block.

    The online twin of :func:`repro.kernels.batch.solve_offline_batch`:
    items are packed into a :class:`BatchLayout` (pass ``layout`` to
    reuse one already built for the offline solve) and every run is
    materialised bit-identical to the serial per-item
    ``SpeculativeCaching(...).run(inst)`` loop — same key order, same
    costs, same counters, same schedules.
    """
    pairs = list(items.items()) if isinstance(items, dict) else list(items)
    if not pairs:
        return {}
    if layout is None:
        layout = BatchLayout.from_instances(pairs)
    runs = run_online_layout(
        layout, window_factor, epoch_size, algorithm_name=algorithm_name
    )
    return {name: run.to_result() for (name, _), run in zip(pairs, runs)}
