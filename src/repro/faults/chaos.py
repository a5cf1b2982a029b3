"""Chaos harness: seeded fault-scenario sweeps with invariant checks.

The harness generates a family of deterministic
:class:`~repro.faults.plan.FaultPlan` scenarios from a base seed, drives
a fault-aware policy through each, and checks the resilience invariants
a serving stack actually cares about:

* **Determinism** — re-running a scenario yields a bit-identical result
  and fault log (``same seed ⇒ same everything``).
* **Exact accounting** — the reported schedule cost equals the realised
  schedule's cost under the instance's cost model, and the penalty
  ledger equals (reseeds × reseed cost + drops × drop cost).
* **Bounded recovery** — nonzero-width blackouts happen only while
  *every* server is down, and coverage is restored no later than the
  first recovery that follows (the re-seed path is prompt).
* **Feasibility modulo blackouts** — the realised schedule validates
  against the instance once the observed blackout windows are declared.

* **Runner-kill equivalence** (``kill_runner=True``) — chaos can kill
  the *runner* itself, not just the modelled servers: each scenario is
  additionally executed under a :class:`~repro.runtime.Supervisor`,
  interrupted at a seed-derived event boundary, and resumed; the
  degraded partial must validate over its prefix and the resumed run
  must be bit-identical to the uninterrupted one at every journaled
  state digest.

* **Server-kill equivalence** (:func:`server_kill_resume_suite`) — the
  live serving front-end (:mod:`repro.service.server`) is run as a real
  subprocess, SIGKILLed at seeded points under active load (including a
  request written but unanswered at kill time, exercising the torn-tail
  path), restarted with ``--resume``, and driven to completion; the
  merged decision-stream digest must be bit-identical to an
  uninterrupted run over the same events, and every event acknowledged
  before the kill must have survived into the replayed journal.

``run_chaos_suite`` raises :class:`ChaosInvariantError` on the first
violation, naming the seed so the scenario can be replayed exactly; with
``fail_fast=False`` it instead records violations per scenario and keeps
sweeping (the CLI uses this to report every failure and exit non-zero).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core.instance import ProblemInstance
from ..core.types import InvalidScheduleError
from ..online.base import OnlineAlgorithm
from ..schedule.validate import validate_schedule
from ..sim.engine import merged_event_stream, run_online_faulty
from .injector import FaultyRunResult
from .plan import FaultPlan

__all__ = [
    "ChaosInvariantError",
    "ChaosOutcome",
    "ClusterFailoverOutcome",
    "ServerKillOutcome",
    "chaos_report",
    "check_kill_resume",
    "cluster_failover_suite",
    "run_chaos_suite",
    "scenario_plans",
    "server_kill_points",
    "server_kill_resume_suite",
]

#: Time tolerance when matching blackout edges to plan events.
_TOL = 1e-9


class ChaosInvariantError(AssertionError):
    """A chaos invariant failed; the message names the scenario seed."""


@dataclass
class ChaosOutcome:
    """Per-scenario summary collected by :func:`run_chaos_suite`."""

    seed: int
    result: FaultyRunResult
    crashes: int
    cost: float
    penalty: float
    total_cost: float
    blackouts: int
    blackout_time: float
    dropped: int
    reseeds: int
    #: Invariant-violation messages (empty = scenario passed).
    violations: List[str] = field(default_factory=list)
    #: Event boundary the runner was killed at (``None`` = no kill ran).
    kill_seq: Optional[int] = None

    @property
    def ok(self) -> bool:
        """True iff every invariant held for this scenario."""
        return not self.violations

    def row(self) -> dict:
        """Table row for :func:`chaos_report`."""
        row = {
            "seed": self.seed,
            "crashes": self.crashes,
            "cost": self.cost,
            "penalty": self.penalty,
            "total": self.total_cost,
            "blackouts": self.blackouts,
            "blackout-time": self.blackout_time,
            "dropped": self.dropped,
            "reseeds": self.reseeds,
        }
        if self.kill_seq is not None:
            row["kill-seq"] = self.kill_seq
        row["status"] = "ok" if self.ok else "FAIL"
        return row


def scenario_plans(
    instance: ProblemInstance,
    scenarios: int,
    base_seed: int = 0,
    crash_rate: float = 1.0,
    mean_outage: float = 0.05,
    loss_rate: float = 0.05,
    spare_server: Optional[int] = None,
) -> List[FaultPlan]:
    """One deterministic plan per scenario seed ``base_seed + i``."""
    t0, tn = float(instance.t[0]), float(instance.t[-1])
    return [
        FaultPlan.generate(
            seed=base_seed + i,
            num_servers=instance.num_servers,
            start=t0,
            end=tn,
            crash_rate=crash_rate,
            mean_outage=mean_outage,
            loss_rate=loss_rate,
            spare_server=spare_server,
        )
        for i in range(scenarios)
    ]


def _results_equal(a: FaultyRunResult, b: FaultyRunResult) -> bool:
    return (
        a.cost == b.cost
        and a.counters == b.counters
        and a.schedule == b.schedule
        and a.transfers == b.transfers
        and a.blackouts == b.blackouts
        and a.reseeds == b.reseeds
        and a.penalties == b.penalties
        and a.fault_log == b.fault_log
        and a.retry_latency == b.retry_latency
    )


def _check_invariants(
    instance: ProblemInstance, plan: FaultPlan, res: FaultyRunResult
) -> None:
    seed = plan.seed
    # Exact accounting: Π is the realised schedule's cost ...
    recomputed = res.schedule.total_cost(instance.cost)
    if abs(recomputed - res.cost) > 1e-9 * max(1.0, abs(res.cost)):
        raise ChaosInvariantError(
            f"seed {seed}: reported cost {res.cost} != schedule cost "
            f"{recomputed}"
        )
    # ... and the penalty ledger matches the counted degradations.
    lam = instance.cost.lam
    expected = {}
    if res.counters.get("reseeds"):
        expected["reseed"] = lam * res.counters["reseeds"]
    if res.counters.get("dropped_requests"):
        expected["dropped"] = lam * res.counters["dropped_requests"]
    if res.penalties != expected:
        raise ChaosInvariantError(
            f"seed {seed}: penalty ledger {res.penalties} != expected "
            f"{expected} from counters"
        )
    # Bounded recovery: nonzero blackouts only inside all-down windows.
    t0, tn = float(instance.t[0]), float(instance.t[-1])
    all_down = plan.down_intervals_all(instance.num_servers, t0, tn)
    for a, b in res.blackouts:
        if b - a <= _TOL:
            continue
        inside = any(lo - _TOL <= a and b <= hi + _TOL for lo, hi in all_down)
        if not inside:
            raise ChaosInvariantError(
                f"seed {seed}: blackout ({a:.6g}, {b:.6g}) while some "
                f"server was up (all-down windows: {all_down})"
            )
    # The realised schedule's own gaps must all be declared blackouts.
    for a, b in res.schedule.gaps(t0, tn):
        if b - a <= _TOL:
            continue
        declared = any(
            ga - _TOL <= a and b <= gb + _TOL for ga, gb in res.blackouts
        )
        if not declared:
            raise ChaosInvariantError(
                f"seed {seed}: undeclared coverage gap ({a:.6g}, {b:.6g})"
            )
    # Feasibility modulo the declared blackouts.
    try:
        validate_schedule(
            res.schedule, instance, allowed_gaps=res.allowed_gaps()
        )
    except InvalidScheduleError as exc:
        raise ChaosInvariantError(
            f"seed {seed}: schedule infeasible even with blackout "
            f"exemptions: {exc}"
        ) from exc


def check_kill_resume(
    instance: ProblemInstance,
    plan: FaultPlan,
    algorithm_factory: Callable[[], OnlineAlgorithm],
    kill_seq: int,
    reference: Optional[FaultyRunResult] = None,
) -> None:
    """Kill the runner at event ``kill_seq``, resume, assert equivalence.

    The scenario is executed under a :class:`~repro.runtime.Supervisor`
    with an event-count deadline at ``kill_seq``; the degraded partial
    result must validate over its completed prefix, and the resumed run
    must match ``reference`` (computed fresh when omitted) on cost,
    schedule, fault log, blackouts and penalty ledger.  Raises
    :class:`ChaosInvariantError` on any discrepancy.
    """
    from ..runtime import RunBudget, Supervisor

    if reference is None:
        reference = run_online_faulty(algorithm_factory(), instance, plan)
    seed = plan.seed
    supervisor = Supervisor(algorithm_factory, instance, plan=plan)
    partial = supervisor.run(RunBudget(max_events=kill_seq))
    if partial.completed:
        raise ChaosInvariantError(
            f"seed {seed}: kill at seq {kill_seq} did not interrupt the "
            f"run ({partial.events_total} events total)"
        )
    try:
        validate_schedule(
            partial.result.schedule,
            instance,
            allowed_gaps=partial.result.allowed_gaps(),
            upto=partial.last_time,
            upto_request=partial.requests_delivered,
        )
    except InvalidScheduleError as exc:
        raise ChaosInvariantError(
            f"seed {seed}: degraded partial at kill seq {kill_seq} is "
            f"infeasible over its prefix: {exc}"
        ) from exc
    resumed = supervisor.resume()
    if not resumed.completed:
        raise ChaosInvariantError(
            f"seed {seed}: resume after kill at seq {kill_seq} did not "
            f"run to completion"
        )
    if not _results_equal(resumed.result, reference):
        raise ChaosInvariantError(
            f"seed {seed}: resumed run after kill at seq {kill_seq} "
            f"diverged from the uninterrupted run"
        )


def _kill_point(plan: FaultPlan, total_events: int) -> int:
    """Seed-derived runner-kill boundary in ``[1, total_events - 1]``."""
    if total_events < 2:
        return 1
    # Knuth multiplicative hash of the seed: deterministic, spread out.
    return 1 + (plan.seed * 2654435761 % (total_events - 1))


def run_chaos_suite(
    instance: ProblemInstance,
    plans: Sequence[FaultPlan],
    algorithm_factory: Callable[[], OnlineAlgorithm],
    check_determinism: bool = True,
    fail_fast: bool = True,
    kill_runner: bool = False,
) -> List[ChaosOutcome]:
    """Drive every plan, checking invariants; returns per-scenario rows.

    ``algorithm_factory`` must build a fresh fault-aware policy per call
    (scenarios must not share mutable state).  With ``fail_fast=False``
    violations are collected on each scenario's
    :attr:`ChaosOutcome.violations` instead of raising, so one bad seed
    does not hide the rest of the sweep.  ``kill_runner=True`` adds the
    runner-kill/resume-equivalence invariant per scenario.
    """
    outcomes: List[ChaosOutcome] = []
    for plan in plans:
        violations: List[str] = []

        def check(fn, *args) -> None:
            try:
                fn(*args)
            except ChaosInvariantError as exc:
                if fail_fast:
                    raise
                violations.append(str(exc))

        res = run_online_faulty(algorithm_factory(), instance, plan)
        if check_determinism:
            replay = run_online_faulty(algorithm_factory(), instance, plan)

            def determinism_check() -> None:
                if not _results_equal(res, replay):
                    raise ChaosInvariantError(
                        f"seed {plan.seed}: replay diverged from first run "
                        f"(same plan, same instance)"
                    )

            check(determinism_check)
        check(_check_invariants, instance, plan, res)
        kill_seq: Optional[int] = None
        if kill_runner:
            total = len(merged_event_stream(instance, plan))
            kill_seq = _kill_point(plan, total)
            check(
                check_kill_resume,
                instance,
                plan,
                algorithm_factory,
                kill_seq,
                res,
            )
        outcomes.append(
            ChaosOutcome(
                seed=plan.seed,
                result=res,
                crashes=len(plan.outages),
                cost=res.cost,
                penalty=res.penalty_cost,
                total_cost=res.total_cost,
                blackouts=len(res.blackouts),
                blackout_time=sum(b - a for a, b in res.blackouts),
                dropped=res.counters.get("dropped_requests", 0),
                reseeds=res.counters.get("reseeds", 0),
                violations=violations,
                kill_seq=kill_seq,
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Live-server kill/resume chaos (subprocess SIGKILL + --resume).
# ---------------------------------------------------------------------------


@dataclass
class ServerKillOutcome:
    """One SIGKILL-at-``kill_seq`` scenario of the live-server suite."""

    kill_seq: int
    replayed: int
    digest: str
    reference_digest: str
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self) -> dict:
        return {
            "kill-seq": self.kill_seq,
            "replayed": self.replayed,
            "digest-match": self.digest == self.reference_digest,
            "status": "ok" if self.ok else "FAIL",
        }


def server_kill_points(total: int, count: int, base_seed: int = 0) -> List[int]:
    """``count`` distinct seeded kill boundaries in ``[1, total - 1]``."""
    if total < 2:
        raise ValueError(f"need at least 2 events, got {total}")
    count = min(count, total - 1)
    points: List[int] = []
    seen = set()
    i = 0
    while len(points) < count:
        p = 1 + ((base_seed + i) * 2654435761) % (total - 1)
        i += 1
        if p not in seen:
            seen.add(p)
            points.append(p)
    return sorted(points)


def _serve_argv(journal_dir: Path, shards: int, m: int, resume: bool) -> list:
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--journal-dir",
        str(journal_dir),
        "--shards",
        str(shards),
        "-m",
        str(m),
    ]
    if resume:
        argv.append("--resume")
    return argv


def _spawn_server(
    journal_dir: Path, shards: int, m: int, resume: bool, deadline: float
) -> Tuple[subprocess.Popen, str, int]:
    """Start a server subprocess; block until its socket is bound."""
    meta = journal_dir / "server.json"
    meta.unlink(missing_ok=True)  # presence then means *this* process bound
    proc = subprocess.Popen(
        _serve_argv(journal_dir, shards, m, resume),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ChaosInvariantError(
                f"server exited during startup (rc {proc.returncode}, "
                f"resume={resume})"
            )
        if meta.exists():
            try:
                info = json.loads(meta.read_text())
            except json.JSONDecodeError:
                continue  # mid-write
            return proc, info["host"], info["port"]
        time.sleep(0.02)
    proc.kill()
    raise ChaosInvariantError("server did not bind before the deadline")


def _settle_all(
    route: Union[str, Tuple[str, int]],
    events: Sequence[tuple],
    deadline: float,
    ends: Tuple[int, ...] = (200,),
) -> None:
    """Settle ``events`` in order on one lane of the load generator's
    settle loop, before ``deadline``.

    ``route`` is a lone server's ``(host, port)`` or a cluster map
    path.  A give-up, a final status outside ``ends`` or the deadline
    raises :class:`ChaosInvariantError`.
    """
    from ..service.loadgen import ClusterClient, ClusterMap

    async def drive() -> None:
        client = ClusterClient(
            route if isinstance(route, str) else ClusterMap.lone(*route)
        )
        try:
            for event in events:
                answer = await client.settle(event)
                if answer is None:
                    raise ChaosInvariantError(f"event {event} gave up")
                if answer[0] not in ends:
                    raise ChaosInvariantError(
                        f"unexpected status {answer[0]} for event {event}: "
                        f"{answer[1]}"
                    )
        finally:
            await client.close()

    try:
        asyncio.run(asyncio.wait_for(drive(), deadline - time.monotonic()))
    except asyncio.TimeoutError:
        raise ChaosInvariantError("events not settled before the deadline") from None


def _stats(host: str, port: int) -> dict:
    """One server's ``GET /stats``."""
    from ..service.loadgen import HttpClient

    async def get() -> dict:
        async with HttpClient(host, port, 5.0, 5.0) as client:
            return (await client.request("GET", "/stats"))[1]

    return asyncio.run(get())


def _reference_run(
    jdir: Path,
    events: Sequence[tuple],
    shards: int,
    num_servers: int,
    scenario_timeout: float,
) -> dict:
    """``/stats`` of one uninterrupted server after every event settled."""
    deadline = time.monotonic() + scenario_timeout
    proc, host, port = _spawn_server(
        jdir, shards, num_servers, resume=False, deadline=deadline
    )
    try:
        _settle_all((host, port), events, deadline)
        stats = _stats(host, port)
    finally:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
    if rc != 0:
        raise ChaosInvariantError(f"reference server drain rc {rc}")
    return stats


def _torn_send(host: str, port: int, event: tuple) -> None:
    """Write one full request and deliberately never read the response.

    The SIGKILL that follows lands while this event is (at most)
    applied-but-unacknowledged: depending on timing the journal tail is
    intact, torn mid-record, or missing the event entirely — all three
    must resume to the same stream once the event is resent.
    """
    from ..service.loadgen import HttpClient

    item, t, server = event
    request = HttpClient(host, port).encode(
        "POST", "/request", {"item": item, "time": t, "server": server}
    )
    try:
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(request)
            time.sleep(0.01)  # let the server pick it up, maybe journal it
    except OSError:
        pass  # server may die under us — that is the point


def server_kill_resume_suite(
    events: Sequence[tuple],
    kill_points: int = 5,
    base_seed: int = 0,
    shards: int = 2,
    num_servers: int = 8,
    work_dir: Optional[str] = None,
    scenario_timeout: float = 120.0,
) -> List[ServerKillOutcome]:
    """SIGKILL a live server at seeded points; prove bit-identical resume.

    Runs one uninterrupted reference pass over ``events`` (a time-sorted
    ``(item, time, server)`` sequence), then for each seeded kill point
    ``k``: serve events ``0..k-1`` closed-loop, write event ``k`` without
    reading its response, SIGKILL the server, restart it with
    ``--resume``, serve the remaining events (resends dedupe), and
    compare the merged decision-stream digest from ``GET /stats``
    against the reference.  Also asserts every pre-kill acknowledged
    event survived into the replayed journal (``replayed >= k``) and
    that the restarted server drains cleanly on SIGTERM (exit 0).

    The closed-loop driver is strictly sequential, so the per-shard
    apply order — and therefore the digest chain — is identical across
    scenarios; any mismatch is a real resume divergence, not load
    reordering.
    """
    import tempfile

    events = list(events)
    points = server_kill_points(len(events), kill_points, base_seed)
    root = Path(work_dir) if work_dir is not None else None
    tmp = tempfile.mkdtemp(prefix="chaos-server-") if root is None else None
    base = root if root is not None else Path(tmp)  # type: ignore[arg-type]
    base.mkdir(parents=True, exist_ok=True)

    try:
        reference = _reference_run(
            base / "reference", events, shards, num_servers, scenario_timeout
        )
        outcomes: List[ServerKillOutcome] = []
        for kill_seq in points:
            violations: List[str] = []
            jdir = base / f"kill-{kill_seq}"
            deadline = time.monotonic() + scenario_timeout
            proc, host, port = _spawn_server(
                jdir, shards, num_servers, resume=False, deadline=deadline
            )
            _settle_all((host, port), events[:kill_seq], deadline)
            _torn_send(host, port, events[kill_seq])
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

            proc, host, port = _spawn_server(
                jdir, shards, num_servers, resume=True, deadline=deadline
            )
            stats = None
            replayed = -1
            try:
                replayed = int(_stats(host, port).get("replayed_events", -1))
                if replayed < kill_seq:
                    violations.append(
                        f"kill {kill_seq}: only {replayed} events survived "
                        f"into the resumed journal ({kill_seq} were "
                        f"acknowledged pre-kill)"
                    )
                # Resend from the kill point: the torn event settles
                # (fresh apply or dedupe hit), the rest serve normally.
                _settle_all((host, port), events[kill_seq:], deadline)
                stats = _stats(host, port)
            finally:
                proc.send_signal(signal.SIGTERM)
                rc = proc.wait(timeout=30)
            if rc != 0:
                violations.append(f"kill {kill_seq}: resumed drain rc {rc}")
            digest = (stats or {}).get("digest", "<none>")
            if digest != reference["digest"]:
                violations.append(
                    f"kill {kill_seq}: merged decision digest {digest} != "
                    f"uninterrupted reference {reference['digest']}"
                )
            outcomes.append(
                ServerKillOutcome(
                    kill_seq=kill_seq,
                    replayed=replayed,
                    digest=digest,
                    reference_digest=reference["digest"],
                    violations=violations,
                )
            )
        return outcomes
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def chaos_report(
    outcomes: Sequence[ChaosOutcome], title: Optional[str] = None
) -> str:
    """ASCII summary table of a chaos sweep."""
    from ..analysis.tables import format_table

    rows = [o.row() for o in outcomes]
    table = format_table(rows, precision=4, title=title)
    total_blackouts = sum(o.blackouts for o in outcomes)
    total_dropped = sum(o.dropped for o in outcomes)
    failed = [o for o in outcomes if not o.ok]
    footer = (
        f"{len(outcomes)} scenarios, {total_blackouts} blackouts, "
        f"{total_dropped} dropped requests, {len(failed)} failed"
    )
    lines = [table, footer]
    for o in failed:
        for msg in o.violations:
            lines.append(f"  seed {o.seed}: {msg}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Replicated-cluster failover chaos (SIGKILL + network partitions).
# ---------------------------------------------------------------------------


@dataclass
class ClusterFailoverOutcome:
    """One fault scenario of :func:`cluster_failover_suite`."""

    kind: str  # "kill" | "partition-heal" | "partition-failover"
    boundary: int  # event index the fault lands on
    target: int  # replica index hit by the fault
    failovers: int
    digest: str
    reference_digest: str
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def row(self) -> dict:
        return {
            "scenario": f"{self.kind}@{self.boundary}",
            "target": self.target,
            "failovers": self.failovers,
            "digest-match": self.digest == self.reference_digest,
            "status": "ok" if self.ok else "FAIL",
        }


def cluster_failover_suite(
    events: Sequence[tuple],
    scenarios: int = 5,
    base_seed: int = 0,
    shards: int = 4,
    replicas: int = 3,
    num_servers: int = 8,
    include_kills: bool = True,
    include_partitions: bool = True,
    proxy_seed: Optional[int] = None,
    work_dir: Optional[str] = None,
    scenario_timeout: float = 240.0,
    heal_after: float = 0.75,
) -> List["ClusterFailoverOutcome"]:
    """Fail replicas of a live cluster; prove bit-identical convergence.

    One uninterrupted single-server reference pass over ``events``
    (time-sorted ``(item, time, server)``) fixes the merged
    decision-stream digest.  Then, at ``scenarios`` seeded event
    boundaries, a fresh ``replicas``-way cluster over the same events
    suffers one of three faults aimed at the replica owning the
    boundary event's shard:

    * ``kill`` — the boundary event is written to the owner without
      reading the response (in-flight at kill time), the owner is
      SIGKILLed, and its shards fail over to survivors by resuming the
      per-shard WALs; the torn event is then resent through dedupe.
    * ``partition-heal`` — the owner's chaos proxy partitions (new
      connections dropped, live relays aborted) and heals after
      ``heal_after`` seconds, *mid-batch*; health thresholds are set to
      ride it out, so the cluster must converge with **zero** failovers.
    * ``partition-failover`` — the partition stays; the supervisor's
      health probes (which go through the proxy, seeing what clients
      see) declare the replica dead, fence it with SIGKILL, and fail
      its shards over while the load loop redrives.

    Every scenario must end with the cluster's merged digest — and each
    per-shard ``(seq, digest)`` pair — equal to the reference: no
    decision lost, duplicated, or reordered by any fault.  With
    ``proxy_seed`` the whole sweep additionally runs behind lossy
    seeded proxies (latency, duplicated requests, torn writes).
    """
    import tempfile

    from ..service.cluster import ClusterConfig, ReplicaSet
    from ..service.loadgen import ClusterMap, cluster_stats
    from ..service.server import route_item
    from .plan import NetworkFaultPlan

    events = list(events)
    points = server_kill_points(len(events), scenarios, base_seed)
    kinds: List[str] = []
    cycle: List[str] = []
    if include_kills:
        cycle.append("kill")
    if include_partitions:
        cycle += ["partition-heal", "partition-failover"]
    if not cycle:
        raise ValueError("enable at least one of kills/partitions")
    for i in range(len(points)):
        kinds.append(cycle[i % len(cycle)])

    root = Path(work_dir) if work_dir is not None else None
    tmp = tempfile.mkdtemp(prefix="chaos-cluster-") if root is None else None
    base = root if root is not None else Path(tmp)  # type: ignore[arg-type]
    base.mkdir(parents=True, exist_ok=True)

    lossy = (
        NetworkFaultPlan(
            seed=proxy_seed, latency=0.001, torn_rate=0.1, dup_rate=0.1
        )
        if proxy_seed is not None
        else None
    )

    def run_scenario(kind: str, boundary: int, jdir: Path, reference: dict):
        violations: List[str] = []
        deadline = time.monotonic() + scenario_timeout
        # Partitions are proxy switches, so those scenarios always run
        # behind proxies (pass-through unless a lossy plan is given).
        plan = lossy
        if plan is None and kind != "kill":
            plan = NetworkFaultPlan()
        if kind == "partition-heal":
            health = {"health_interval": 0.25, "health_failures": 10_000}
        else:
            health = {
                "health_interval": 0.1,
                "health_failures": 3,
                "health_timeout": 0.3,
            }
        rs = ReplicaSet(
            ClusterConfig(
                journal_dir=str(jdir),
                replicas=replicas,
                shards=shards,
                num_servers=num_servers,
                sync=True,
                proxy_plan=plan,
                **health,
            )
        )
        rs.start()
        target = -1
        try:
            # A 409 settles too: a resend beyond the dedupe window.
            _settle_all(rs.map_path, events[:boundary], deadline, (200, 409))
            shard = route_item(events[boundary][0], shards)
            target = rs.owner_of(shard)
            if kind == "kill":
                # The boundary event is in flight (written, unanswered)
                # when the SIGKILL lands: torn-tail WAL handoff.
                host, port = ClusterMap.load(rs.map_path).endpoint_for(
                    events[boundary][0]
                )
                _torn_send(host, port, events[boundary])
                rs.kill_replica(target)
            elif kind == "partition-heal":
                rs.set_partition(target, True)
                healer = threading.Timer(
                    heal_after, rs.set_partition, args=(target, False)
                )
                healer.start()
            else:  # partition-failover: leave it on, health loop fences
                rs.set_partition(target, True)
            _settle_all(rs.map_path, events[boundary:], deadline, (200, 409))
            if kind == "partition-failover":
                # The failover may still be mid-flight after the last
                # event settled on a survivor; wait for the ledger.
                waited = time.monotonic()
                while not rs.failover_log and time.monotonic() - waited < 30:
                    time.sleep(0.05)
            merged = asyncio.run(cluster_stats(rs.map_path))
            failovers = len(rs.failover_log)
            if kind == "partition-heal" and failovers != 0:
                violations.append(
                    f"{kind}@{boundary}: healed partition still caused "
                    f"{failovers} failover(s) — thresholds not ridden out"
                )
            if kind != "partition-heal" and failovers == 0:
                violations.append(
                    f"{kind}@{boundary}: no failover was recorded"
                )
            if merged["digest"] != reference["digest"]:
                violations.append(
                    f"{kind}@{boundary}: merged digest {merged['digest']} "
                    f"!= reference {reference['digest']}"
                )
            ref_rows = {r["shard"]: r for r in reference["shards"]}
            for row in merged["shards"]:
                ref = ref_rows.get(row["shard"])
                if ref is None or (row["seq"], row["digest"]) != (
                    ref["seq"],
                    ref["digest"],
                ):
                    violations.append(
                        f"{kind}@{boundary}: shard {row['shard']} "
                        f"(seq {row['seq']}, {row['digest']}) diverged "
                        f"from reference (seq {ref['seq'] if ref else '?'})"
                    )
            return ClusterFailoverOutcome(
                kind=kind,
                boundary=boundary,
                target=target,
                failovers=failovers,
                digest=merged["digest"],
                reference_digest=reference["digest"],
                violations=violations,
            )
        except ChaosInvariantError as exc:
            violations.append(str(exc))
            return ClusterFailoverOutcome(
                kind=kind,
                boundary=boundary,
                target=target,
                failovers=len(rs.failover_log),
                digest="<none>",
                reference_digest=reference["digest"],
                violations=violations,
            )
        finally:
            rs.stop()

    try:
        reference = _reference_run(
            base / "reference", events, shards, num_servers, scenario_timeout
        )
        outcomes: List[ClusterFailoverOutcome] = []
        for kind, boundary in zip(kinds, points):
            jdir = base / f"{kind}-{boundary}"
            outcomes.append(run_scenario(kind, boundary, jdir, reference))
        return outcomes
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
