"""repro.runtime — crash-safe, supervised execution of engine runs.

The paper's engine is an event-ordered replay; this package makes any
such run *killable, resumable and deadline-bounded*:

* :mod:`~repro.runtime.journal` — a write-ahead JSONL event journal
  (monotone sequence numbers, per-event state digests, torn-tail
  recovery), with the resume-divergence error and the run budget its
  readers share;
* :mod:`~repro.runtime.snapshot` — atomic checkpoints of the full
  engine + policy + fault-context state, including RNG streams and open
  cache intervals;
* :mod:`~repro.runtime.supervisor` — drives a run under wall-clock /
  event-count budgets, pauses into a first-class degraded partial
  result, and resumes from ``snapshot + journal tail`` bit-identically;
* :mod:`~repro.runtime.digest` — the canonical state digests the other
  three agree on.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(
    __name__,
    {
        ".digest": ("canonical_json", "digest_value", "state_digest"),
        ".journal": (
            "JournalCorruptError",
            "ResumeDivergenceError",
            "RunBudget",
            "RunJournal",
        ),
        ".snapshot": ("RunSnapshot", "SnapshotIntegrityError"),
        ".supervisor": ("SupervisedRun", "Supervisor"),
    },
)
