"""Zero-copy shared-memory data plane for the multi-item service layer.

Shipping shards to workers by pickling their request arrays into a fresh
process pool on every call (pool spawn, pickle out, instance rebuild,
result pickle back) costs more than the solve itself.  This module is the
service layer's only parallel path, and it removes that data movement:

* :class:`ServiceArena` — the packed raw request arrays of one
  :class:`~repro.service.multi.MultiItemInstance` living in a single
  :class:`multiprocessing.shared_memory.SharedMemory` block.  Workers
  attach **once** per (worker, service) pair and read the columns as
  numpy views — no per-call pickling, no copies.
* :class:`ResultRegion` — a preallocated shared block sized for the
  service's per-item DP result arrays (``C``/``D``/``served_by_cache``/
  ``choice_d_tag``/``choice_d_k``).  Workers write their slices in
  place; the merge step copies them out with plain ``memcpy`` instead of
  un-pickling megabytes of arrays.
* :class:`ServicePool` — a persistent, lazily spawned process pool that
  owns both regions, caches worker-side instance builds across calls,
  survives worker crashes under a configurable :class:`RetryPolicy`
  (broken pools are respawned and the unfinished shards retried with
  jittered, capped exponential backoff — the same discipline as SC-R's
  transfer retries — behind a circuit breaker that fails fast once the
  workload keeps killing workers; the arenas outlive the workers), and
  **guarantees unlink** of every segment it created on ``close()``,
  garbage collection of the service object, interpreter exit, and error
  paths.  ``close()`` is idempotent, thread-safe under concurrent
  double-close, and bounds its worker join so interpreter shutdown can
  never hang on a wedged worker.

Segment lifetime rules (also documented in ``docs/API.md``):

* Only the parent process ever calls ``unlink()``; workers attach
  untracked and never close (their mappings die with the process).
* Every segment name carries the :data:`SEGMENT_PREFIX` prefix so tests
  and CI can scan ``/dev/shm`` for leaks, and every live segment is
  recorded in a module-level registry (:func:`active_segments`).
* An ``atexit`` hook releases anything still live at interpreter exit.

Determinism: the arena stores the instances' own ``t``/``srv`` bytes and
workers rebuild instances with the same deterministic constructor used
serially, so results through the pool are bit-identical to serial solves.
"""

from __future__ import annotations

import atexit
import os
import random
import threading
import time
import uuid
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instance import ProblemInstance
from ..core.types import CostModel
from ..offline.dp import solve_offline
from ..offline.result import OfflineResult
from ..online.base import OnlineAlgorithm
from ..sim.recorder import OnlineRunResult
from .sharding import plan_shards

__all__ = [
    "CircuitOpenError",
    "RetryPolicy",
    "ServicePool",
    "ServiceArena",
    "ResultRegion",
    "active_segments",
    "SEGMENT_PREFIX",
]

#: Prefix of every shared-memory segment this module creates.  CI and the
#: leak tests scan ``/dev/shm`` for this prefix after runs.
SEGMENT_PREFIX = "reprosvc"

#: Byte alignment of every array inside a segment (cache-line friendly,
#: and keeps float64 views aligned regardless of neighbouring columns).
_ALIGN = 64

#: Parent-side registry of live segments: name -> SharedMemory.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def active_segments() -> Tuple[str, ...]:
    """Names of the shared-memory segments this process currently owns.

    Empty after every ``ServicePool.close()`` / context exit — the leak
    tests and the CI job assert exactly that.
    """
    return tuple(sorted(_LIVE_SEGMENTS))


def _new_segment(nbytes: int) -> shared_memory.SharedMemory:
    name = f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
    _LIVE_SEGMENTS[shm.name] = shm
    return shm


def _release_segment(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Close + unlink a parent-owned segment; idempotent and non-raising."""
    if shm is None:
        return
    _LIVE_SEGMENTS.pop(shm.name, None)
    for op in (shm.close, shm.unlink):
        try:
            op()
        except (FileNotFoundError, BufferError):  # already gone / view alive
            pass


@atexit.register
def _release_all_segments() -> None:  # pragma: no cover - exit hook
    for shm in list(_LIVE_SEGMENTS.values()):
        _release_segment(shm)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Worker-side attach that leaves unlink ownership with the parent.

    ``SharedMemory(name=...)`` registers the segment with the process's
    resource tracker even when merely attaching; on worker exit the
    tracker would then unlink (or warn about) a segment the parent still
    owns.  Python 3.13 grew ``track=False`` for exactly this; on older
    interpreters we suppress the registration call for the duration of
    the attach.  (Unregistering *after* the attach would be wrong there:
    fork-started workers share the parent's tracker process, whose cache
    is one set per resource type, so a worker-side unregister would
    erase the parent's own registration and break its unlink.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# Arena: the service's raw request columns, packed once, attached per worker.
# ---------------------------------------------------------------------------

#: Per-item arena entry: (name, n, t_offset, srv_offset, origin, start_time).
#: Travels to workers as a plain tuple — a few dozen bytes per item instead
#: of the item's request arrays.
ArenaEntry = Tuple[str, int, int, int, int, float]


class ServiceArena:
    """A service's packed ``t``/``srv`` columns in one shared block."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        entries: Dict[str, ArenaEntry],
        num_servers: int,
        cost: CostModel,
    ):
        self.shm = shm
        self.entries = entries
        self.num_servers = num_servers
        self.cost = cost

    @classmethod
    def pack(cls, service) -> "ServiceArena":
        """Copy every item's request columns into a fresh segment."""
        offset = 0
        slots: List[Tuple[str, ProblemInstance, int, int]] = []
        for name, inst in service.items.items():
            t_off = _aligned(offset)
            srv_off = _aligned(t_off + inst.n * 8)
            offset = srv_off + inst.n * 8
            slots.append((name, inst, t_off, srv_off))
        shm = _new_segment(offset)
        try:
            entries: Dict[str, ArenaEntry] = {}
            for name, inst, t_off, srv_off in slots:
                n = inst.n
                t_view = np.frombuffer(shm.buf, np.float64, n, t_off)
                s_view = np.frombuffer(shm.buf, np.int64, n, srv_off)
                t_view[:] = inst.t[1:]
                s_view[:] = inst.srv[1:]
                entries[name] = (
                    name,
                    n,
                    t_off,
                    srv_off,
                    inst.origin,
                    float(inst.t[0]),
                )
            return cls(shm, entries, service.num_servers, service.cost)
        except BaseException:
            _release_segment(shm)
            raise

    def release(self) -> None:
        """Unlink the segment (parent-side; idempotent)."""
        _release_segment(self.shm)
        self.shm = None


# ---------------------------------------------------------------------------
# Result region: per-item DP output arrays at precomputed offsets.
# ---------------------------------------------------------------------------

#: Per-item result entry: (C_off, D_off, served_off, tag_off, k_off, n).
ResultEntry = Tuple[int, int, int, int, int, int]

#: (dtype, bytes-per-element) of the five OfflineResult arrays, in order.
_RESULT_FIELDS = (
    (np.float64, 8),  # C
    (np.float64, 8),  # D
    (np.bool_, 1),  # served_by_cache
    (np.int64, 8),  # choice_d_tag
    (np.int64, 8),  # choice_d_k
)


def _result_views(
    buf, entry: ResultEntry
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n1 = entry[5] + 1
    return tuple(  # type: ignore[return-value]
        np.frombuffer(buf, dtype, n1, off)
        for (dtype, _), off in zip(_RESULT_FIELDS, entry[:5])
    )


class ResultRegion:
    """Preallocated shared block for every item's solve output."""

    def __init__(self, shm: shared_memory.SharedMemory, entries: Dict[str, ResultEntry]):
        self.shm = shm
        self.entries = entries

    @classmethod
    def allocate(cls, service) -> "ResultRegion":
        offset = 0
        entries: Dict[str, ResultEntry] = {}
        for name, inst in service.items.items():
            n1 = inst.n + 1
            offs = []
            for _, width in _RESULT_FIELDS:
                offset = _aligned(offset)
                offs.append(offset)
                offset += n1 * width
            entries[name] = (*offs, inst.n)  # type: ignore[assignment]
        return cls(_new_segment(offset), entries)

    def read_item(self, name: str) -> Tuple[np.ndarray, ...]:
        """Copy one item's arrays out of the region (plain memcpy)."""
        return tuple(
            np.array(v, copy=True) for v in _result_views(self.shm.buf, self.entries[name])
        )

    def release(self) -> None:
        _release_segment(self.shm)
        self.shm = None


# ---------------------------------------------------------------------------
# Worker side.  Workers cache attached segments and built instances across
# calls — the whole point of the persistent pool: attach once, rebuild once,
# then every subsequent call is pure solve.
# ---------------------------------------------------------------------------

#: arena segment name -> (SharedMemory, {item name: ProblemInstance}).
_WORKER_ARENAS: "OrderedDict[str, Tuple[shared_memory.SharedMemory, Dict[str, ProblemInstance]]]" = OrderedDict()
#: result segment name -> SharedMemory.
_WORKER_RESULTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
#: Worker-side cache caps (per segment kind).  Old entries just drop their
#: *references* — unlink stays with the parent.
_WORKER_CACHE_CAP = 8


def _worker_cache_put(cache: OrderedDict, key: str, value) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > _WORKER_CACHE_CAP:
        cache.popitem(last=False)


def _worker_arena(arena_name: str):
    hit = _WORKER_ARENAS.get(arena_name)
    if hit is None:
        hit = (_attach_untracked(arena_name), {})
        _worker_cache_put(_WORKER_ARENAS, arena_name, hit)
    return hit


def _worker_instance(
    arena_name: str, meta: Tuple[int, float, float], entry: ArenaEntry
) -> ProblemInstance:
    shm, instances = _worker_arena(arena_name)
    name, n, t_off, srv_off, origin, start = entry
    inst = instances.get(name)
    if inst is None:
        m, mu, lam = meta
        inst = ProblemInstance.from_arrays(
            np.frombuffer(shm.buf, np.float64, n, t_off),
            np.frombuffer(shm.buf, np.int64, n, srv_off),
            num_servers=m,
            cost=CostModel(mu=mu, lam=lam),
            origin=origin,
            start_time=start,
        )
        instances[name] = inst
    return inst


def _worker_solve_shard(
    arena_name: str,
    meta: Tuple[int, float, float],
    entries: Sequence[ArenaEntry],
    kernel: str,
    result_name: str,
    result_entries: Sequence[ResultEntry],
) -> List[Tuple[str, str]]:
    """Solve one shard, writing result arrays into the shared region.

    Returns only ``(item name, solver tag)`` pairs — the arrays never
    cross the pipe.  With ``kernel="auto"`` the whole shard is solved by
    ONE call to the batched instance-major kernel, packed straight from
    the arena's zero-copy column views — no instance construction in the
    worker at all.  ``"frontier"``/``"reference"`` keep the per-item path
    with its cached instance builds.
    """
    from ..kernels.batch import BatchLayout, solve_layout

    res_shm = _WORKER_RESULTS.get(result_name)
    if res_shm is None:
        res_shm = _attach_untracked(result_name)
        _worker_cache_put(_WORKER_RESULTS, result_name, res_shm)
    out: List[Tuple[str, str]] = []
    if kernel == "auto":
        shm, _ = _worker_arena(arena_name)
        m, mu, lam = meta
        layout = BatchLayout.from_columns(
            [
                (
                    name,
                    np.frombuffer(shm.buf, np.float64, n, t_off),
                    np.frombuffer(shm.buf, np.int64, n, srv_off),
                    m,
                    mu,
                    lam,
                    origin,
                    start,
                )
                for name, n, t_off, srv_off, origin, start in entries
            ]
        )
        results = solve_layout(layout)
        for entry, res_entry, res in zip(entries, result_entries, results):
            views = _result_views(res_shm.buf, res_entry)
            for view, src in zip(
                views,
                (
                    res.C,
                    res.D,
                    res.served_by_cache,
                    res.choice_d_tag,
                    res.choice_d_k,
                ),
            ):
                view[:] = src  # copy out of the batch's shared arrays
            out.append((entry[0], res.solver))
        return out
    for entry, res_entry in zip(entries, result_entries):
        inst = _worker_instance(arena_name, meta, entry)
        res = solve_offline(inst, kernel=kernel)
        views = _result_views(res_shm.buf, res_entry)
        for view, src in zip(
            views,
            (res.C, res.D, res.served_by_cache, res.choice_d_tag, res.choice_d_k),
        ):
            view[:] = src
        out.append((entry[0], res.solver))
    return out


def _worker_run_shard(
    arena_name: str,
    meta: Tuple[int, float, float],
    entries: Sequence[ArenaEntry],
    policy_factory: Callable[[], OnlineAlgorithm],
    kernel: str = "auto",
) -> List[Tuple[str, OnlineRunResult]]:
    """Serve one shard online.  Inputs arrive zero-copy via the arena;
    results (schedules, counters — policy artefacts, not fixed-size
    arrays) return through the pipe.

    With a vector-eligible policy (plain ``SpeculativeCaching``) and
    ``kernel="auto"``, the whole shard is served by ONE batched
    online-kernel call packed straight from the arena's zero-copy column
    views — no instance construction in the worker at all —
    bit-identical to the per-item loop."""
    from ..kernels.batch import BatchLayout
    from ..kernels.online import run_online_layout, vector_policy_config

    config = vector_policy_config(policy_factory()) if kernel == "auto" else None
    if config is not None:
        if not entries:
            return []
        window_factor, epoch_size, algo_name = config
        shm, _ = _worker_arena(arena_name)
        m, mu, lam = meta
        layout = BatchLayout.from_columns(
            [
                (
                    name,
                    np.frombuffer(shm.buf, np.float64, n, t_off),
                    np.frombuffer(shm.buf, np.int64, n, srv_off),
                    m,
                    mu,
                    lam,
                    origin,
                    start,
                )
                for name, n, t_off, srv_off, origin, start in entries
            ]
        )
        runs = run_online_layout(
            layout, window_factor, epoch_size, algorithm_name=algo_name
        )
        return [(name, run.to_result()) for name, run in zip(layout.names, runs)]
    out: List[Tuple[str, OnlineRunResult]] = []
    for entry in entries:
        inst = _worker_instance(arena_name, meta, entry)
        out.append((entry[0], policy_factory().run(inst, kernel=kernel)))
    return out


# ---------------------------------------------------------------------------
# Crash-recovery policy: retry/backoff + circuit breaker.
# ---------------------------------------------------------------------------


class CircuitOpenError(RuntimeError):
    """The pool's circuit breaker is open: calls fail fast until cooldown."""


@dataclass(frozen=True)
class RetryPolicy:
    """Crash-recovery discipline for :class:`ServicePool` submissions.

    A worker crash (``BrokenProcessPool``) breaks only the in-flight
    call: the executor is respawned and the *unfinished* shards are
    retried — completed shards keep their results — up to ``retries``
    times, sleeping a jittered, capped exponential backoff between
    attempts (``min(max_delay, base_delay · 2^attempt)`` scaled by a
    uniform ``[1 - jitter, 1]`` draw, the same shape as SC-R's transfer
    retries).  Jitter affects only *when* a retry runs, never any
    result: solves are pure, so retried calls stay bit-identical.

    Calls that exhaust their retries charge the pool's circuit breaker;
    after ``breaker_threshold`` consecutive failed *calls* the breaker
    opens and subsequent calls raise :class:`CircuitOpenError`
    immediately — shedding instead of burning CPU respawning a pool the
    workload keeps killing — until ``breaker_cooldown`` seconds pass,
    when one half-open probe call is let through (success closes the
    breaker, failure re-opens it).
    """

    retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        return base * (1.0 - self.jitter * random.random())


class _PoolBreaker:
    """Consecutive-call-failure breaker (see :class:`RetryPolicy`)."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self.failures = 0
        self.opened_until = 0.0
        self.trips = 0

    def check(self) -> None:
        if (
            self.failures >= self.policy.breaker_threshold
            and time.monotonic() < self.opened_until
        ):
            raise CircuitOpenError(
                f"service pool circuit open after {self.failures} "
                f"consecutive failed calls; retry after "
                f"{self.opened_until - time.monotonic():.2f}s"
            )

    def record_success(self) -> None:
        self.failures = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.policy.breaker_threshold:
            self.opened_until = time.monotonic() + self.policy.breaker_cooldown
            self.trips += 1

    @property
    def state(self) -> str:
        return (
            "open"
            if self.failures >= self.policy.breaker_threshold
            and time.monotonic() < self.opened_until
            else "closed"
        )


# ---------------------------------------------------------------------------
# The persistent pool.
# ---------------------------------------------------------------------------


def _close_pool_state(state: dict, join_timeout: Optional[float] = 5.0) -> None:
    """Release a pool's executor and segments; idempotent and race-safe.

    Operates on the pool's ``__dict__`` so ``weakref.finalize`` can fire
    it without keeping the pool alive.  Explicit ``close()``, garbage
    collection, and interpreter exit (finalize's atexit leg) may all
    call this concurrently; the lock plus the pop-then-release dance
    makes every ordering safe.  The executor join is bounded: workers
    that outlive ``join_timeout`` are terminated, then killed, so
    shutdown can never hang on a wedged worker.
    """
    lock = state.get("_close_lock")
    if lock is None:  # pragma: no cover - partially constructed pool
        return
    with lock:
        if state.get("_closed"):
            return
        state["_closed"] = True
        executor = state.get("_executor")
        state["_executor"] = None
        services = dict(state.get("_services") or {})
        if state.get("_services") is not None:
            state["_services"].clear()
    if executor is not None:
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = (
            time.monotonic() + join_timeout if join_timeout is not None else None
        )
        for proc in list((getattr(executor, "_processes", None) or {}).values()):
            remaining = (
                max(0.0, deadline - time.monotonic())
                if deadline is not None
                else None
            )
            proc.join(remaining)
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
            if proc.is_alive():  # pragma: no cover - hard-wedged worker
                proc.kill()
                proc.join(0.5)
    for entry in services.values():
        _, arena, region, finalizer = entry
        finalizer.detach()
        arena.release()
        region.release()


class ServicePool:
    """Persistent zero-copy process pool for the multi-item service layer.

    Parameters
    ----------
    processes:
        Worker count (``>= 1``).  Workers spawn lazily on the first
        :meth:`solve`/:meth:`serve` call and are reused across calls and
        across services until :meth:`close`.
    retry:
        Crash-recovery :class:`RetryPolicy` (respawn + jittered capped
        backoff + circuit breaker).  The default retries three times;
        ``RetryPolicy(retries=0)`` fails a call on the first break.
    join_timeout:
        Upper bound (seconds) on waiting for workers during
        :meth:`close`; survivors are terminated, then killed.  ``None``
        waits forever (the pre-hardening behaviour).

    Usage::

        with ServicePool(processes=4) as pool:
            off = pool.solve(service)           # packs + attaches once
            off2 = pool.solve(service)          # pure solve: arrays cached
            runs = pool.serve(service, SpeculativeCaching)

    Every shared segment the pool creates is unlinked on ``close()`` (the
    context manager calls it), when the owning service object is garbage
    collected, and at interpreter exit.  A crashed worker breaks only the
    in-flight call: the pool respawns its executor and retries the
    unfinished shards under ``retry`` — the arenas are parent-owned and
    survive.  ``close()`` is idempotent and safe to race from explicit
    calls, ``__del__``, ``weakref.finalize``, and atexit simultaneously.
    """

    def __init__(
        self,
        processes: int,
        retry: Optional[RetryPolicy] = None,
        join_timeout: Optional[float] = 5.0,
    ):
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.retry = retry if retry is not None else RetryPolicy()
        self.join_timeout = join_timeout
        self._breaker = _PoolBreaker(self.retry)
        self._executor: Optional[ProcessPoolExecutor] = None
        #: id(service) -> (weakref, ServiceArena, ResultRegion, finalizer)
        self._services: Dict[int, Tuple] = {}
        self._closed = False
        self._close_lock = threading.Lock()
        # The finalizer operates on __dict__, never self, so it cannot
        # keep the pool alive; finalize's own atexit hook gives the
        # interpreter-exit leg.
        self._finalizer = weakref.finalize(
            self, _close_pool_state, self.__dict__, join_timeout
        )

    # -- lifecycle -----------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ServicePool is closed")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def _respawn_executor(self) -> ProcessPoolExecutor:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        return self._ensure_executor()

    def close(self) -> None:
        """Shut workers down and unlink every segment.

        Idempotent and race-safe: explicit calls, ``__del__``,
        ``weakref.finalize`` and atexit may all fire concurrently and
        each segment is still released exactly once.  The worker join is
        bounded by ``join_timeout`` (wedged workers are terminated, then
        killed), so interpreter shutdown can never hang here.
        """
        _close_pool_state(self.__dict__, self.join_timeout)

    def __enter__(self) -> "ServicePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc safety net
        try:
            self.close()
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    # -- region management ---------------------------------------------------

    @staticmethod
    def _release_service_entry(arena: ServiceArena, region: ResultRegion) -> None:
        arena.release()
        region.release()

    def _regions_for(self, service) -> Tuple[ServiceArena, ResultRegion]:
        """Pack (or look up) the arena + result region of a service.

        Keyed by object identity with a weakref guard: when the service
        is garbage collected its segments are unlinked immediately, so a
        long-lived pool serving many workloads cannot accumulate
        segments for dead services.
        """
        key = id(service)
        entry = self._services.get(key)
        if entry is not None and entry[0]() is service:
            return entry[1], entry[2]
        arena = ServiceArena.pack(service)
        try:
            region = ResultRegion.allocate(service)
        except BaseException:
            arena.release()
            raise
        finalizer = weakref.finalize(
            service, self._release_service_entry, arena, region
        )
        self._services[key] = (weakref.ref(service), arena, region, finalizer)
        return arena, region

    # -- submission with crash recovery --------------------------------------

    def _run_tasks(self, fn, tasks: List[tuple]) -> List[list]:
        """Submit one task per shard, recovering crashes under ``retry``.

        Completed shards keep their results across respawns; only the
        unfinished ones are resubmitted, after a jittered backoff.  A
        call that exhausts its retries charges the circuit breaker;
        with the breaker open, calls raise :class:`CircuitOpenError`
        immediately (the half-open probe after cooldown closes it again
        on success).  Results are position-stable, so recovery never
        affects merge order or values.
        """
        self._breaker.check()
        policy = self.retry
        results: List[Optional[list]] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        last_error: Optional[BaseException] = None
        for attempt in range(policy.retries + 1):
            executor = (
                self._ensure_executor() if last_error is None else self._respawn_executor()
            )
            try:
                # A pool that already noticed its dead workers raises
                # from submit() itself, not just from result().
                futures = {i: executor.submit(fn, *tasks[i]) for i in pending}
            except BrokenProcessPool as exc:
                last_error = exc
                if attempt < policy.retries:
                    time.sleep(policy.delay(attempt))
                continue
            broken = False
            still_pending = []
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except BrokenProcessPool as exc:
                    last_error = exc
                    broken = True
                    still_pending.append(i)
            pending = still_pending
            if not pending:
                self._breaker.record_success()
                return results  # type: ignore[return-value]
            if broken and attempt < policy.retries:
                time.sleep(policy.delay(attempt))
        # Leave no broken executor behind: the next call (if the breaker
        # lets it through) starts from a fresh spawn.
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._breaker.record_failure()
        raise RuntimeError(
            f"service pool broke {policy.retries + 1} attempts in a row "
            f"({len(pending)}/{len(tasks)} shards unfinished — workers "
            f"crashing on this workload?)"
        ) from last_error

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        service,
        shards: Optional[int] = None,
        shard_strategy: str = "size",
        kernel: str = "auto",
    ):
        """Zero-copy parallel twin of :func:`repro.service.multi.solve_offline_multi`.

        Bit-identical to the serial solve: same ``per_item`` key order,
        same arrays, same totals.
        """
        from .multi import MultiItemOfflineResult

        arena, region = self._regions_for(service)
        plan = plan_shards(service.items, shards or self.processes, shard_strategy)
        meta = (service.num_servers, service.cost.mu, service.cost.lam)
        tasks = [
            (
                arena.shm.name,
                meta,
                [arena.entries[name] for name in shard],
                kernel,
                region.shm.name,
                [region.entries[name] for name in shard],
            )
            for shard in plan
        ]
        acks = self._run_tasks(_worker_solve_shard, tasks)
        solver_by_item = {name: solver for chunk in acks for name, solver in chunk}
        missing = set(service.items) - set(solver_by_item)
        if missing:  # pragma: no cover - would indicate a sharding bug
            raise RuntimeError(f"shard merge lost items: {sorted(missing)}")
        per_item: Dict[str, OfflineResult] = {}
        for name, inst in service.items.items():
            C, D, served, tag, k = region.read_item(name)
            per_item[name] = OfflineResult(
                instance=inst,
                C=C,
                D=D,
                served_by_cache=served,
                choice_d_tag=tag,
                choice_d_k=k,
                solver=solver_by_item[name],
            )
        return MultiItemOfflineResult(per_item=per_item)

    def serve(
        self,
        service,
        policy_factory: Callable[[], OnlineAlgorithm],
        shards: Optional[int] = None,
        shard_strategy: str = "size",
        kernel: str = "auto",
    ) -> Dict[str, OnlineRunResult]:
        """Zero-copy-input parallel online serve; returns item -> run.

        ``kernel`` selects the workers' online execution path
        (``"auto"`` / ``"event"``, see
        :func:`repro.sim.engine.run_online`); with an eligible policy
        each worker serves its whole shard with one batched kernel call.
        """
        from ..analysis.parallel import _check_picklable_callable

        _check_picklable_callable(policy_factory)
        arena, _ = self._regions_for(service)
        plan = plan_shards(service.items, shards or self.processes, shard_strategy)
        meta = (service.num_servers, service.cost.mu, service.cost.lam)
        tasks = [
            (
                arena.shm.name,
                meta,
                [arena.entries[name] for name in shard],
                policy_factory,
                kernel,
            )
            for shard in plan
        ]
        results = self._run_tasks(_worker_run_shard, tasks)
        merged = {name: run for chunk in results for name, run in chunk}
        missing = set(service.items) - set(merged)
        if missing:  # pragma: no cover - would indicate a sharding bug
            raise RuntimeError(f"shard merge lost items: {sorted(missing)}")
        return {name: merged[name] for name in service.items}
