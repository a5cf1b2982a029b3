"""Run supervision: deadline budgets, journaling, kill/resume.

The :class:`Supervisor` executes any engine-driven run (plain or
fault-injected) one event at a time, journaling every delivery with a
state digest, checkpointing periodically, and enforcing a
:class:`RunBudget`.  Three outcomes, all first-class:

* **completed** — every event delivered; the result is exactly what the
  monolithic :func:`~repro.sim.engine.run_online_faulty` would return;
* **degraded** — the budget ran out: the supervisor checkpoints the run
  (so it can still resume later), then returns a *valid partial* result
  truncated at the last journaled event, flagged with its completion
  fraction — it never raises and never silently truncates;
* **resumed** — :meth:`Supervisor.resume` rebuilds the driver from the
  latest snapshot, re-verifies every journal-tail digest as it
  re-executes, and continues; a fixed scenario killed and resumed at any
  event boundary yields a final result bit-identical to the
  uninterrupted run.

Budgets bound *this process's* work — wall-clock seconds and/or an
absolute event-sequence ceiling.  Event ceilings are deterministic and
double as chaos kill points: :mod:`repro.faults.chaos` uses them to
kill the runner itself mid-scenario and assert resume equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..core.instance import ProblemInstance
from ..faults.plan import FaultPlan
from ..sim.engine import ReplayDriver
from ..sim.recorder import OnlineRunResult
from .digest import state_digest
from .journal import ResumeDivergenceError, RunBudget, RunJournal
from .snapshot import RunSnapshot

__all__ = ["SupervisedRun", "Supervisor"]


@dataclass
class SupervisedRun:
    """Outcome of one supervised execution slice.

    Attributes
    ----------
    result:
        The run result — final when :attr:`completed`, else a valid
        partial truncated at :attr:`last_time`.
    completed:
        True iff every event was delivered and the run finalised.
    completion_fraction:
        Delivered events over total events (1.0 for completed runs and
        for empty streams).
    events_delivered / events_total:
        Progress in event counts (absolute, across resumes).
    last_seq:
        Sequence number of the last journaled record.
    last_time:
        Instant of the last delivered event (``t_0`` if none) — the
        horizon the partial schedule is valid up to.
    requests_delivered:
        Requests delivered so far — pass as ``upto_request`` when
        validating a partial (equal-instant kills leave an undelivered
        request *at* ``last_time``, which the time horizon alone cannot
        express).
    resumed_from_seq:
        Snapshot sequence this slice restarted from (``None`` for a
        fresh run).
    digests:
        The journal's digest column, one entry per sequence number.
    """

    result: OnlineRunResult
    completed: bool
    completion_fraction: float
    events_delivered: int
    events_total: int
    last_seq: int
    last_time: float
    requests_delivered: int = 0
    resumed_from_seq: Optional[int] = None
    digests: list = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True iff this is a deadline-truncated partial result."""
        return not self.completed


class Supervisor:
    """Crash-safe executor for one (algorithm, instance, plan) scenario.

    Parameters
    ----------
    algorithm_factory:
        Zero-argument callable building a *fresh* policy; called once
        per :meth:`run` (resume restores the pickled policy instead).
    instance:
        The request sequence.
    plan:
        Optional fault plan (``None`` = plain engine semantics).
    latency:
        Optional latency model for the fault context.
    journal_path / snapshot_path:
        Durable WAL and checkpoint locations.  ``None`` keeps both in
        memory: kill/resume then only works within this process via the
        supervisor's retained state (exactly what the chaos harness
        needs); cross-process crash-safety needs real paths.
    snapshot_every:
        Checkpoint cadence in events.  The supervisor also checkpoints
        unconditionally when a budget expires, so resume never replays
        more than the slice since the last boundary.
    sync:
        Fsync journal appends (see :class:`~repro.runtime.journal.RunJournal`).
    checkpoint_on_pause:
        Checkpoint at the exact pause point when a budget expires
        (default).  Disabling it leaves the last *periodic* checkpoint
        as the resume point — the state a hard process kill would leave
        behind — so resume must re-execute the journal tail; the test
        suite uses this to exercise tail replay deterministically.
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], object],
        instance: ProblemInstance,
        plan: Optional[FaultPlan] = None,
        latency=None,
        journal_path: Optional[str] = None,
        snapshot_path: Optional[str] = None,
        snapshot_every: int = 64,
        sync: bool = True,
        checkpoint_on_pause: bool = True,
    ):
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.algorithm_factory = algorithm_factory
        self.instance = instance
        self.plan = plan
        self.latency = latency
        self.journal_path = journal_path
        self.snapshot_path = snapshot_path
        self.snapshot_every = snapshot_every
        self.sync = sync
        self.checkpoint_on_pause = checkpoint_on_pause
        #: Last checkpoint (kept in memory even when also written to disk).
        self.last_snapshot: Optional[RunSnapshot] = None
        self._journal: Optional[RunJournal] = None

    # -- public API ----------------------------------------------------------------

    def run(self, budget: Optional[RunBudget] = None) -> SupervisedRun:
        """Execute the scenario from the start under ``budget``."""
        driver = ReplayDriver(
            self.algorithm_factory(),
            self.instance,
            plan=self.plan,
            latency=self.latency,
        )
        journal = RunJournal.open_fresh(self.journal_path, sync=self.sync)
        journal.append(
            {
                "seq": 0,
                "kind": "begin",
                "time": driver.t0,
                "algorithm": getattr(driver.algorithm, "name", "unknown"),
                "n": self.instance.n,
                "m": self.instance.num_servers,
                "plan_seed": self.plan.seed if self.plan is not None else None,
                "events_total": driver.total_events,
                "digest": state_digest(driver),
            }
        )
        self._checkpoint(driver)
        return self._drive(driver, journal, budget, resumed_from=None)

    def resume(self, budget: Optional[RunBudget] = None) -> SupervisedRun:
        """Continue a killed or paused run from ``snapshot + journal tail``.

        Restores the latest checkpoint, then re-executes forward.  For
        every sequence number the journal already covers, the recomputed
        state digest must match the recorded one — any mismatch raises
        :class:`ResumeDivergenceError` rather than forking history.
        """
        snapshot = self._load_snapshot()
        driver = snapshot.restore()
        journal = self._load_journal()
        if journal.last_seq < snapshot.seq:
            raise ResumeDivergenceError(
                f"journal ends at seq {journal.last_seq} but snapshot is at "
                f"seq {snapshot.seq}: journal is not this run's WAL"
            )
        recorded = journal.record_at(snapshot.seq)
        if recorded is not None and recorded["digest"] != snapshot.digest:
            raise ResumeDivergenceError(
                f"snapshot digest {snapshot.digest} at seq {snapshot.seq} "
                f"contradicts journal digest {recorded['digest']}"
            )
        return self._drive(
            driver, journal, budget, resumed_from=snapshot.seq
        )

    # -- internals ----------------------------------------------------------------

    def _load_snapshot(self) -> RunSnapshot:
        if self.snapshot_path is not None:
            return RunSnapshot.load(self.snapshot_path)
        if self.last_snapshot is None:
            raise RuntimeError(
                "nothing to resume: no snapshot_path configured and no "
                "in-memory checkpoint present"
            )
        return self.last_snapshot

    def _load_journal(self) -> RunJournal:
        if self.journal_path is not None:
            return RunJournal.load(self.journal_path, sync=self.sync)
        if self._journal is None:
            raise RuntimeError(
                "nothing to resume: no journal_path configured and no "
                "in-memory journal present"
            )
        return self._journal

    def _checkpoint(self, driver: ReplayDriver) -> None:
        snapshot = RunSnapshot.capture(driver)
        self.last_snapshot = snapshot
        if self.snapshot_path is not None:
            snapshot.save(self.snapshot_path)

    def _drive(
        self,
        driver: ReplayDriver,
        journal: RunJournal,
        budget: Optional[RunBudget],
        resumed_from: Optional[int],
    ) -> SupervisedRun:
        self._journal = journal
        budget = budget or RunBudget()
        deadline = (
            time.monotonic() + budget.max_seconds
            if budget.max_seconds is not None
            else None
        )
        while not driver.done:
            if budget.max_events is not None and driver.pos >= budget.max_events:
                return self._pause(driver, journal, resumed_from)
            if deadline is not None and time.monotonic() >= deadline:
                return self._pause(driver, journal, resumed_from)
            ev = driver.step()
            seq = driver.pos
            digest = state_digest(driver)
            record = {
                "seq": seq,
                "kind": ev.kind,
                "time": ev.time,
                "index": ev.index,
                "server": ev.server,
                "digest": digest,
            }
            recorded = journal.record_at(seq)
            if recorded is not None:
                if recorded["digest"] != digest:
                    raise ResumeDivergenceError(
                        f"resume diverged at seq {seq}: recomputed digest "
                        f"{digest} != journaled {recorded['digest']}"
                    )
            else:
                journal.append(record)
            if driver.pos % self.snapshot_every == 0 and not driver.done:
                self._checkpoint(driver)
        # Epilogue: finalise, journal the outcome, release the WAL.
        result = driver.finish()
        seq = driver.pos + 1
        if journal.record_at(seq) is None:
            journal.append(
                {
                    "seq": seq,
                    "kind": "finish",
                    "time": driver.t_end,
                    "cost": result.cost,
                    "digest": journal.records[-1]["digest"],
                }
            )
        journal.close()
        return SupervisedRun(
            result=result,
            completed=True,
            completion_fraction=1.0,
            events_delivered=driver.pos,
            events_total=driver.total_events,
            last_seq=journal.last_seq,
            last_time=driver.t_end,
            requests_delivered=driver.requests_delivered,
            resumed_from_seq=resumed_from,
            digests=journal.digests(),
        )

    def _pause(
        self,
        driver: ReplayDriver,
        journal: RunJournal,
        resumed_from: Optional[int],
    ) -> SupervisedRun:
        """Budget exhausted: checkpoint, then return a degraded partial."""
        if self.checkpoint_on_pause:
            self._checkpoint(driver)  # before partial_result consumes the state
        total = driver.total_events
        delivered = driver.pos
        last_time = driver.last_time
        requests_delivered = driver.requests_delivered
        result = driver.partial_result()
        journal.close()
        return SupervisedRun(
            result=result,
            completed=False,
            completion_fraction=(delivered / total) if total else 1.0,
            events_delivered=delivered,
            events_total=total,
            last_seq=journal.last_seq,
            last_time=last_time,
            requests_delivered=requests_delivered,
            resumed_from_seq=resumed_from,
            digests=journal.digests(),
        )
