"""Write-ahead event journal for engine-driven runs.

A :class:`RunJournal` is an append-only sequence of JSON records, one per
delivered engine event, each carrying a monotone sequence number and the
post-delivery state digest.  File-backed journals are written
line-by-line (JSONL) with an ``fsync`` per append — the write-ahead
discipline: by the time a run can observe an event's effects, the event
is durable.

Recovery semantics follow the classic WAL contract: a process killed
mid-append may leave a torn final line; :meth:`RunJournal.load` drops a
trailing partial record (and only a trailing one — a torn line in the
*middle* of a journal means external corruption and raises).  Every
record must be a JSON object whose integer ``seq`` equals its position
(contiguous from 0) and that carries a ``digest``; anything else raises
:class:`JournalCorruptError`.

Record shapes (all plain JSON objects):

* ``{"seq": 0, "kind": "begin", ...metadata..., "digest": h}`` — run
  prologue, digest of the initial state;
* ``{"seq": k, "kind": "request"|"crash"|"recover", "time": t, ...}`` —
  the ``k``-th delivered event, digest of the state *after* delivery;
* ``{"seq": n, "kind": "finish", "cost": c, "digest": h}`` — epilogue.

The two types every journal reader shares live here too, so the live
server uses them without importing the engine-run supervisor:
:class:`ResumeDivergenceError` (a replay disagrees with what the
journal recorded) and :class:`RunBudget` (the deadline of one execution
slice).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "JournalCorruptError",
    "ResumeDivergenceError",
    "RunBudget",
    "RunJournal",
]


class JournalCorruptError(ValueError):
    """The journal file violates the WAL contract (non-tail corruption)."""


class ResumeDivergenceError(RuntimeError):
    """A resumed run failed to reproduce the journaled state digests."""


@dataclass(frozen=True)
class RunBudget:
    """Deadline bounds for one supervised execution slice.

    Parameters
    ----------
    max_events:
        Absolute event-sequence ceiling: execution pauses once this many
        events have been delivered *in total* (across run + resumes).
        Deterministic — the kill point of choice for tests and chaos.
    max_seconds:
        Wall-clock allowance for this slice, measured from the moment
        :meth:`Supervisor.run` / :meth:`Supervisor.resume` starts
        stepping.  Affects only *where* the run pauses, never any
        simulated outcome.
    """

    max_events: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


class RunJournal:
    """Append-only event journal, in-memory or file-backed.

    Parameters
    ----------
    path:
        JSONL file to append to (created/truncated by :meth:`open_fresh`,
        appended to after :meth:`load`).  ``None`` keeps the journal
        purely in memory — useful for supervised runs that only need
        divergence detection, not crash durability.
    sync:
        Fsync after every append (default).  Turning it off trades
        durability of the final few records for speed.
    """

    def __init__(self, path: Optional[str] = None, sync: bool = True):
        self.path = os.fspath(path) if path is not None else None
        self.sync = sync
        self.records: List[Dict] = []
        self._fh = None

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def open_fresh(cls, path: Optional[str], sync: bool = True) -> "RunJournal":
        """Start a new journal, truncating any file at ``path``."""
        journal = cls(path, sync=sync)
        if journal.path is not None:
            journal._fh = open(journal.path, "w", encoding="utf-8")
        return journal

    @classmethod
    def load(cls, path: str, sync: bool = True) -> "RunJournal":
        """Read a journal back, dropping a torn trailing record.

        The returned journal is positioned for appending: record ``k``
        of a resumed run either *verifies* against the loaded tail or,
        past the tail, extends the file.
        """
        journal = cls(path, sync=sync)
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        for lineno, line in enumerate(lines):
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):  # bad UTF-8 or JSON
                if lineno == len(lines) - 1:
                    break  # torn tail from a mid-append kill: discard
                raise JournalCorruptError(
                    f"{path}: unparseable record at line {lineno + 1} "
                    f"(not the tail — journal corrupt)"
                )
            journal._check_next(record)
            journal.records.append(record)
        # Re-write the valid prefix if a torn tail was dropped, then append.
        journal._fh = open(path, "w", encoding="utf-8")
        for record in journal.records:
            journal._fh.write(json.dumps(record, allow_nan=True) + "\n")
        journal._fh.flush()
        return journal

    def flush(self, fsync: bool = False) -> None:
        """Flush buffered appends; optionally fsync (no-op for in-memory).

        Callers that append with ``sync=False`` for throughput (batched
        writers such as :class:`repro.service.server.CacheServer`) use
        this as an explicit durability barrier: one ``fsync`` covers the
        whole batch while the write-ahead discipline — durable before
        observable — still holds.
        """
        if self._fh is not None:
            self._fh.flush()
            if fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and close the backing file (no-op for in-memory)."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    # -- appends ----------------------------------------------------------------

    def _check_next(self, record: Dict) -> None:
        if not isinstance(record, dict):
            raise JournalCorruptError(
                f"record {len(self.records)} is not a JSON object"
            )
        seq = record.get("seq")
        if type(seq) is not int or seq != len(self.records):
            raise JournalCorruptError(
                f"non-contiguous sequence: expected {len(self.records)}, "
                f"got {seq!r}"
            )
        if "digest" not in record:
            raise JournalCorruptError(f"record {seq} carries no state digest")

    def append(self, record: Dict) -> int:
        """Durably append one record; returns its sequence number.

        ``record`` must already carry ``seq`` (the next contiguous
        number) and ``digest``; the journal enforces both.
        """
        self._check_next(record)
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, allow_nan=True) + "\n")
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
        return record["seq"]

    # -- queries ----------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Highest sequence number recorded (``-1`` when empty)."""
        return len(self.records) - 1

    def record_at(self, seq: int) -> Optional[Dict]:
        """The record with sequence number ``seq``, or ``None``."""
        if 0 <= seq < len(self.records):
            return self.records[seq]
        return None

    def digests(self) -> List[str]:
        """All recorded digests in sequence order."""
        return [r["digest"] for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        where = self.path if self.path is not None else "<memory>"
        return f"RunJournal({where!r}, {len(self.records)} records)"
