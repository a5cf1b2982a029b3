"""Generic drivers for online caching algorithms.

The engine replays an instance's requests in time order against any
:class:`~repro.online.base.OnlineAlgorithm`: before each request it lets
the algorithm process its internal timers strictly up to the request
instant (copy expirations), then delivers the request; at the end it
truncates the run at the service horizon ``t_n`` and collects the
:class:`~repro.sim.recorder.OnlineRunResult`.

Online algorithms see requests one at a time and nothing else — the
engine enforces the information model of Section V (no lookahead).

:func:`run_online_faulty` extends the replay with a
:class:`~repro.faults.plan.FaultPlan`: crash/recover events are delivered
to the algorithm interleaved with requests in time order, a crashed
server's cached copy is lost, and *blackout* (no live copy anywhere) is a
first-class observed outcome rather than a crash of the simulation.

:func:`run_online_faulty` is a thin loop over :class:`ReplayDriver`, a
*stepwise* executor that delivers exactly one event per
:meth:`ReplayDriver.step` call.  The step granularity is what makes runs
supervisable: the :mod:`repro.runtime` layer journals each delivered
event, snapshots the driver between steps, and resumes a killed run
bit-identically from ``snapshot + journal tail``.  Fault-free
:func:`run_online` runs eligible policies on the vector kernel of
:mod:`repro.kernels.online` and every other policy on the driver.

Event tie-break contract (pinned by ``tests/sim/test_engine.py``):
at equal instants delivery order is **recover < crash < request** —
fault events strike before the request they coincide with (a crash at a
request time beats the request), and a replica target recovering at the
instant another server dies is usable immediately.  Equal-time events of
the same kind keep their source order (requests by index, fault events
by server id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Union

import numpy as np

from ..core.instance import ProblemInstance
from .recorder import OnlineRunResult

if TYPE_CHECKING:  # pragma: no cover
    from ..emulator.latency import LatencyModel
    from ..faults.injector import FaultyRunResult
    from ..faults.plan import FaultPlan
    from ..online.base import OnlineAlgorithm

__all__ = [
    "ReplayEvent",
    "ReplayDriver",
    "merged_event_stream",
    "run_online",
    "run_online_faulty",
]

#: Hooks an algorithm must expose to run under fault injection.
_FAULT_HOOKS = ("attach_faults", "on_server_crash", "on_server_recover")

#: Delivery priority at equal instants: recoveries, then crashes, then
#: requests.  This is the single point of truth for the tie-break rule.
_EVENT_ORDER = {"recover": 0, "crash": 1, "request": 2}


@dataclass(frozen=True)
class ReplayEvent:
    """One unit of engine work: a request or a fault occurrence.

    Attributes
    ----------
    time:
        Delivery instant.
    kind:
        ``"request"``, ``"crash"`` or ``"recover"``.
    index:
        Request index ``i`` (``-1`` for fault events).
    server:
        Requesting server for requests, subject server for faults.
    """

    time: float
    kind: str
    index: int = -1
    server: int = -1

    def sort_key(self):
        return (self.time, _EVENT_ORDER[self.kind])


def _check_time_order(instance: ProblemInstance) -> None:
    """Reject out-of-order request streams before any state is touched.

    :class:`~repro.core.instance.ProblemInstance` construction already
    enforces strictly increasing times, but the engine also accepts
    duck-typed instances (trace adapters, test probes); replaying a
    decreasing timestamp would silently corrupt algorithm timer state,
    so fail loudly instead.
    """
    t = np.asarray(instance.t, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] != instance.n + 1:
        raise ValueError(
            f"instance.t must be a flat array of n+1={instance.n + 1} "
            f"timestamps, got shape {t.shape}"
        )
    bad = np.flatnonzero(np.diff(t) < 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"request timestamps must be non-decreasing: t[{i + 1}]="
            f"{t[i + 1]} < t[{i}]={t[i]}; refusing to replay an "
            f"out-of-order stream"
        )


def merged_event_stream(
    instance: ProblemInstance, plan: Optional["FaultPlan"] = None
) -> List[ReplayEvent]:
    """The full delivery sequence for a (possibly faulty) replay.

    Requests ``r_1..r_n`` merged with the plan's crash/recover events
    clipped to ``[t_0, t_n]``, ordered by ``(time, recover < crash <
    request)``.  The sort is stable, so equal-``(time, kind)`` events
    keep their source order: requests by index, fault events in
    :meth:`~repro.faults.plan.FaultPlan.events` order (server id).
    """
    events: List[ReplayEvent] = []
    if plan is not None:
        t0, t_end = float(instance.t[0]), float(instance.t[-1])
        for fe in plan.events(start=t0, end=t_end):
            events.append(ReplayEvent(time=fe.time, kind=fe.kind, server=fe.server))
    for i in range(1, instance.n + 1):
        events.append(
            ReplayEvent(
                time=float(instance.t[i]),
                kind="request",
                index=i,
                server=int(instance.srv[i]),
            )
        )
    events.sort(key=ReplayEvent.sort_key)
    return events


class ReplayDriver:
    """Stepwise executor of one run: one delivered event per :meth:`step`.

    The constructor performs the whole run *prologue* (hook validation,
    time-order check, fault-context attachment, ``algorithm.begin``), so
    a freshly-built driver is already at sequence position 0 with the
    initial copy placed on the origin server.  ``step()`` delivers the
    next event; ``finish()`` runs the epilogue and returns the result.

    The object is deliberately self-contained and picklable: a driver
    pickled between two ``step()`` calls and restored in a fresh process
    continues the run bit-identically (the basis of
    :mod:`repro.runtime.snapshot`).

    Parameters
    ----------
    algorithm:
        The online policy.  Must implement the fault hooks
        (``attach_faults`` / ``on_server_crash`` / ``on_server_recover``)
        when ``plan`` is given.
    instance:
        The request sequence to replay.
    plan:
        Optional fault plan; ``None`` runs the plain engine contract of
        :func:`run_online`.
    latency:
        Optional latency model for the fault context's retry ledger.
    """

    def __init__(
        self,
        algorithm: "OnlineAlgorithm",
        instance: ProblemInstance,
        plan: Optional["FaultPlan"] = None,
        latency: Optional["LatencyModel"] = None,
    ):
        if plan is not None:
            missing = [h for h in _FAULT_HOOKS if not hasattr(algorithm, h)]
            if missing:
                raise TypeError(
                    f"{type(algorithm).__name__} is not fault-aware: missing "
                    f"hook(s) {missing}; use SpeculativeCachingResilient or "
                    f"implement the fault protocol"
                )
        _check_time_order(instance)
        self.algorithm = algorithm
        self.instance = instance
        self.plan = plan
        self.t0 = float(instance.t[0])
        self.t_end = float(instance.t[-1])
        self.ctx = None
        if plan is not None:
            from ..faults.injector import FaultContext

            self.ctx = FaultContext(plan, instance.num_servers, latency=latency)
            algorithm.attach_faults(self.ctx)
        self.stream = merged_event_stream(instance, plan)
        self.pos = 0
        self._requests_delivered = 0
        self.finished = False
        algorithm.begin(instance)
        if self.ctx is not None:
            self.ctx.observe_copies(len(algorithm.rec.open_servers()), self.t0)

    # -- progress ----------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once every event has been delivered."""
        return self.pos >= len(self.stream)

    @property
    def total_events(self) -> int:
        """Length of the full delivery sequence."""
        return len(self.stream)

    @property
    def last_time(self) -> float:
        """Instant of the most recently delivered event (``t_0`` if none)."""
        if self.pos == 0:
            return self.t0
        return self.stream[self.pos - 1].time

    @property
    def requests_delivered(self) -> int:
        """How many requests have landed (they land in index order).

        Partial-result validation needs this alongside :attr:`last_time`:
        a run killed between two equal-instant events may leave a request
        undelivered *at* the time horizon, which a time bound alone
        cannot express (``validate_schedule``'s ``upto_request``).

        Maintained incrementally by :meth:`step` — supervisor budget
        polling reads this once per delivered event, and rescanning the
        stream prefix each time made those runs ``O(n²)``.  The fallback
        recount covers drivers unpickled from snapshots written before
        the counter existed.
        """
        if getattr(self, "_requests_delivered", None) is None:
            self._requests_delivered = sum(
                1 for ev in self.stream[: self.pos] if ev.kind == "request"
            )
        return self._requests_delivered

    def step(self) -> Optional[ReplayEvent]:
        """Deliver the next event; returns it, or ``None`` when done.

        Delivery contract (identical to the historic monolithic loops):
        ``advance`` processes the algorithm's own timers strictly up to
        the event instant, then the event lands, then the fault context
        observes the live-copy count so blackout windows surface.
        """
        if self.done or self.finished:
            return None
        ev = self.stream[self.pos]
        if ev.kind == "request":
            # Read via the property first: pos still excludes ev, so the
            # legacy-snapshot recount stays consistent with the counter.
            self._requests_delivered = self.requests_delivered + 1
        self.pos += 1
        algorithm = self.algorithm
        algorithm.advance(ev.time)
        if ev.kind == "request":
            algorithm.serve(ev.index, ev.time, ev.server)
        elif ev.kind == "crash":
            self.ctx.mark_down(ev.server, ev.time)
            algorithm.on_server_crash(ev.server, ev.time)
        else:
            self.ctx.mark_up(ev.server, ev.time)
            algorithm.on_server_recover(ev.server, ev.time)
        if self.ctx is not None:
            self.ctx.observe_copies(len(algorithm.rec.open_servers()), ev.time)
        return ev

    # -- results ----------------------------------------------------------------

    def finish(self) -> Union[OnlineRunResult, "FaultyRunResult"]:
        """Epilogue of a fully-delivered run; returns the run result."""
        if not self.done:
            raise RuntimeError(
                f"run not complete: {self.pos}/{len(self.stream)} events "
                f"delivered; use partial_result() for a degraded prefix"
            )
        return self._finalize(self.t_end)

    def partial_result(self) -> Union[OnlineRunResult, "FaultyRunResult"]:
        """Degraded result truncated at the last delivered event.

        A first-class partial outcome for deadline-exhausted supervised
        runs: the schedule covers exactly ``[t_0, last_time]`` and the
        fault ledger is closed at that instant.  The driver must be
        snapshotted *first* if it is ever to resume — finalisation
        consumes the algorithm state.
        """
        return self._finalize(self.last_time)

    def _finalize(self, t_cut: float):
        if self.finished:
            raise RuntimeError("run already finalised")
        self.finished = True
        base = self.algorithm.end(t_cut)
        if self.ctx is None:
            return base
        from ..faults.injector import FaultyRunResult

        ctx = self.ctx
        ctx.close(t_cut)
        self.detach()
        return FaultyRunResult(
            schedule=base.schedule,
            cost=base.cost,
            counters=base.counters,
            lifetimes=base.lifetimes,
            algorithm=base.algorithm,
            transfers=base.transfers,
            blackouts=list(ctx.blackouts),
            reseeds=list(ctx.reseeds),
            penalties=dict(ctx.penalties),
            fault_log=list(ctx.log),
            retry_latency=ctx.retry_latency,
        )

    def detach(self) -> None:
        """Clear the algorithm's fault-context reference (idempotent)."""
        if self.ctx is not None and hasattr(self.algorithm, "attach_faults"):
            self.algorithm.attach_faults(None)

    # -- introspection ----------------------------------------------------------------

    def state_summary(self) -> dict:
        """Canonical plain-data view of the whole run state for digests."""
        summary = {
            "pos": self.pos,
            "total": len(self.stream),
            "algorithm": self.algorithm.state_summary(),
        }
        if self.ctx is not None:
            summary["faults"] = self.ctx.state_summary()
        return summary


def run_online(
    algorithm: "OnlineAlgorithm",
    instance: ProblemInstance,
    kernel: str = "auto",
) -> OnlineRunResult:
    """Drive ``algorithm`` over ``instance`` and return the run result.

    The algorithm object is reset by the call (``begin``), so one object
    can be reused across instances; runs are deterministic given the
    algorithm's own RNG seeding.

    ``kernel`` selects the execution path (bit-identical results on both,
    pinned by ``tests/online/test_online_kernels.py``):

    * ``"auto"`` (default): the array-native vector kernel of
      :mod:`repro.kernels.online` when
      :func:`~repro.kernels.online.vector_policy_config` accepts the
      policy; the :class:`ReplayDriver` otherwise.
    * ``"event"``: always the :class:`ReplayDriver`, which delivers every
      request through the policy's own hooks — the executable
      specification the vector kernel is tested against.
    """
    from ..kernels.online import ONLINE_KERNELS, run_online_vector, vector_policy_config

    if kernel not in ONLINE_KERNELS:
        raise ValueError(
            f"unknown online kernel {kernel!r}; valid: {ONLINE_KERNELS}"
        )
    config = vector_policy_config(algorithm) if kernel == "auto" else None
    if config is not None:
        _check_time_order(instance)
        window_factor, epoch_size, name = config
        return run_online_vector(
            instance,
            window_factor=window_factor,
            epoch_size=epoch_size,
            algorithm_name=name,
        ).to_result()
    driver = ReplayDriver(algorithm, instance)
    while not driver.done:
        driver.step()
    return driver.finish()


def run_online_faulty(
    algorithm: "OnlineAlgorithm",
    instance: ProblemInstance,
    plan: "FaultPlan",
    latency: Optional["LatencyModel"] = None,
) -> "FaultyRunResult":
    """Drive a fault-aware algorithm over ``instance`` under ``plan``.

    The algorithm must implement the fault hooks (``attach_faults``,
    ``on_server_crash``, ``on_server_recover``) —
    :class:`~repro.online.resilient.SpeculativeCachingResilient` is the
    reference implementation.  Delivery contract:

    * crash/recover events and requests are interleaved in time order;
      at equal instants fault events are delivered first (recoveries
      before crashes, so a returning replica target is usable at once);
    * before each fault event and each request, ``advance`` processes
      the algorithm's own timers strictly up to that instant;
    * after every delivery the engine observes the live-copy count, so
      zero-copy periods surface as *blackout* windows on the result
      instead of crashing the run.

    Determinism: a fixed ``(algorithm config, instance, plan)`` triple
    yields a bit-identical :class:`~repro.faults.injector.FaultyRunResult`
    including its fault log.
    """
    driver = ReplayDriver(algorithm, instance, plan=plan, latency=latency)
    try:
        while not driver.done:
            driver.step()
        return driver.finish()
    finally:
        driver.detach()
