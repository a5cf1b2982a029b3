"""Resilient live request-serving front-end.

Everything else in the repro is offline/batch; this module is the
long-running surface: an asyncio HTTP/JSON server that accepts request
events over the wire, routes them by item hash to per-shard
:class:`~repro.offline.streaming.StreamingSolver` banks, and streams
back serve/transfer decisions plus running cost and savings-vs-baseline
gauges.  Robustness is the headline, not an afterthought:

* **Admission control and bounded queues.**  Every shard owns a bounded
  :class:`asyncio.Queue`; when it is full the request is refused with
  ``429`` and a ``Retry-After`` hint — latency stays bounded because the
  backlog does.  Between the *degrade watermark* and full, requests are
  still accepted (and journaled) but receive the cheapest-feasible
  decision — transfer from origin at cost ``λ`` — without touching the
  DP, so the hot path sheds work before it sheds requests.
* **Per-request deadline budgets.**  Each request carries a deadline
  (``deadline_ms`` in the body, or the server default), expressed through
  :class:`~repro.runtime.supervisor.RunBudget` semantics: the budget
  runs from the event's admission and bounds *this response's* wall
  clock, never any decision.  On expiry the client gets a
  degraded-partial response (``degraded: true``, ``status:
  "pending"``) while the accepted event still processes — a later
  duplicate resend returns the settled decision.
* **Per-shard circuit breakers.**  Unexpected processing failures trip a
  shard's breaker after a threshold of consecutive errors; an open shard
  sheds with ``503`` until its cooldown elapses (half-open probe next).
* **Graceful drain.**  SIGTERM (and SIGINT) stop admission (``/readyz``
  flips to 503, new posts get 503 + ``Retry-After``), drain every shard
  queue, fsync and close the journals, then exit 0.
* **Group commit.**  Each shard worker applies everything its queue
  holds as one block (up to 64 events) under one journal fsync.
  ``POST /batch`` admits all of its events in body order before it
  awaits any of them, so each shard's share of a batch is one block;
  answers are the same as sending the events one by one.
* **Crash-safe resume.**  Every accepted event is written ahead to a
  per-shard :class:`~repro.runtime.journal.RunJournal` (fsync before the
  response leaves) together with a *chained decision digest*.  A
  SIGKILLed server restarted with ``resume=True`` checks each journal's
  ``begin`` record against its config, replays the journals through
  fresh solvers, re-verifies every recorded digest
  (:class:`~repro.runtime.supervisor.ResumeDivergenceError` on the first
  mismatch; :class:`~repro.runtime.journal.JournalCorruptError` on a
  malformed record), and continues; the decision stream — and therefore the
  digest chain — is bit-identical to an uninterrupted run over the same
  accepted events.  Duplicate resends of already-journaled events are
  answered from the decision index without being re-applied, so an
  at-least-once client yields exactly-once state transitions.

Decisions are the *prefix-optimal* choices of the streaming DP: after
appending request ``i``, the item is served from cache iff
``D(i) <= C(i-1) + μ·(t_i - t_{i-1}) + λ`` — the same rule
:meth:`StreamingSolver.result` records.  The running ``optimal_cost``
gauge is the exact off-line optimum of the prefix served so far; the
``baseline_cost`` gauge is what the naive always-transfer policy would
have paid on the same events (``μ·Δt + λ`` each — holding cost is
mandatory in the model, so ``λ·n`` alone is *not* an upper bound), so
``savings`` is a live regret-vs-offline meter for the naive policy.  ``GET /offline``
re-solves the current snapshot in-process with one batched kernel call
(:func:`~repro.service.multi.solve_offline_multi`) and cross-checks the
streaming totals.

The wire protocol is deliberately tiny HTTP/1.1 (keep-alive, JSON
bodies) so the stdlib is enough on both ends; see ``docs/API.md`` for
the endpoint and degradation contract.  Framing is checked before any
body is read: a malformed ``Content-Length`` is answered 400, a body
over :data:`MAX_BODY_BYTES` 413, and request or header lines over the
line caps 414/431, each followed by closing the connection; a head cut
off before its blank line is no request and goes unanswered.  The same
reader frames the chaos proxy's and the load generator's messages.
Each event is validated before it is queued: a time that is not positive and
finite, or a server that is not an integer in ``[0, num_servers)``, is
answered 400 and never counted as accepted.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.types import CostModel, InvalidInstanceError
from ..offline.streaming import StreamingSolver
from ..runtime.digest import digest_value
from ..runtime.journal import (
    JournalCorruptError,
    ResumeDivergenceError,
    RunBudget,
    RunJournal,
)

__all__ = ["ServerConfig", "CacheServer", "route_item", "run_server"]

#: Reason phrases for the handful of statuses the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    414: "URI Too Long",
    421: "Misdirected Request",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest request body the server reads.  A longer ``Content-Length`` is
#: answered 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20
#: Largest response body a client or proxy reads.  No answer comes near
#: it (a ``/batch`` answer is a few times its request); it only keeps a
#: length of thousands of digits away from int().
MAX_RESPONSE_BYTES = 1 << 40
#: Longest start line or header line, line terminator included.  A
#: longer request line is answered 414, a longer header line 431.
MAX_LINE_BYTES = 8 << 10
#: Most header lines one message may carry; one more is answered 431.
MAX_HEADER_LINES = 100


class _FramingError(Exception):
    """A message whose HTTP framing the reader refuses to read further."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, status: int) -> bytes:
    """One line of at most :data:`MAX_LINE_BYTES`; ``status`` past that."""
    try:
        line = await reader.readline()
        if len(line) <= MAX_LINE_BYTES:
            return line
    except ValueError:  # longer than the stream's own buffer limit
        pass
    raise _FramingError(status, f"line longer than {MAX_LINE_BYTES} bytes")


async def _read_head(
    reader: asyncio.StreamReader, response: bool = False
) -> Optional[Tuple[str, str, Dict[str, str], int, bytes]]:
    """The next message head: ``(a, b, headers, body length, raw bytes)``.

    The server, the chaos proxy and the client all frame HTTP/1.1 here.
    ``a, b`` are a request line's method and target, or with
    ``response`` a status line's version and three-digit status; the
    raw bytes are the head exactly as read.  ``None`` when the stream
    ends before the head's blank line: a torn head is no message.
    Framing the reader will not read raises :class:`_FramingError` with
    the status a server answers: 400 for a bad start line or
    ``Content-Length``, 413 for a body over :data:`MAX_BODY_BYTES`
    (:data:`MAX_RESPONSE_BYTES` for a response), 414/431 for lines or
    headers over the caps.
    """
    line = await _read_line(reader, 414)
    if not line.endswith(b"\n"):
        return None
    lines = [line]
    if response:
        parts = line.decode("latin-1").split(None, 2)
        if not (
            len(parts) >= 2
            and parts[0].startswith("HTTP/")
            and len(parts[1]) == 3
            and parts[1].isascii()
            and parts[1].isdigit()
        ):
            raise _FramingError(400, "bad status line")
        cap = MAX_RESPONSE_BYTES
    else:
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _FramingError(400, "bad request line")
        cap = MAX_BODY_BYTES
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES + 1):
        hline = await _read_line(reader, 431)
        if not hline.endswith(b"\n"):
            return None
        lines.append(hline)
        if hline in (b"\r\n", b"\n"):
            break
        key, _, value = hline.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    else:
        raise _FramingError(431, f"more than {MAX_HEADER_LINES} header lines")
    raw = headers.get("content-length", "0") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _FramingError(400, f"bad content-length {raw!r}")
    # A length with more digits than the cap is over it; checking that
    # first keeps int() off strings it refuses to parse (>4300 digits).
    digits = raw.lstrip("0") or "0"
    if len(digits) > len(str(cap)) or int(digits) > cap:
        raise _FramingError(413, f"body of {digits[:20]} bytes exceeds {cap}")
    return parts[0], parts[1], headers, int(digits), b"".join(lines)


def _render(status: int, payload: dict, extra: list, keep: bool) -> bytes:
    """One JSON response, as the server writes it."""
    blob = json.dumps(payload).encode("utf-8")
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
        "Content-Type: application/json",
        f"Content-Length: {len(blob)}",
        f"Connection: {'keep-alive' if keep else 'close'}",
    ]
    head.extend(f"{k}: {v}" for k, v in extra)
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + blob


def _finite(x: float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def route_item(name: str, shards: int) -> int:
    """Shard index of an item: stable content hash, balanced by design.

    Uses ``zlib.crc32`` (never the salted builtin ``hash``) so placement
    is identical across processes and runs.  Stability and balance are
    property-tested in ``tests/service/test_server_properties.py``.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return zlib.crc32(name.encode("utf-8")) % shards


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`CacheServer`.

    The degradation ladder, in order of increasing pressure:

    1. queue depth below ``degrade_watermark × queue_depth`` — full
       service (DP append, exact decision);
    2. at or above the watermark but not full — accepted and journaled,
       but answered with the cheapest-feasible decision (origin
       transfer, cost ``λ``) without touching the DP;
    3. queue full — refused with ``429`` + ``Retry-After``
       (never journaled: the event did not enter the system);
    4. shard breaker open, or draining — refused with ``503``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 4
    #: Shard indices this server owns (``None`` = all of them).  A
    #: request routed to a shard outside this set is answered ``421``
    #: so a cluster-aware client refreshes its routing map; a
    #: :class:`~repro.service.cluster.ReplicaSet` moves shards between
    #: replicas at runtime via ``POST /admin/acquire``.
    owned_shards: Optional[Tuple[int, ...]] = None
    num_servers: int = 8
    mu: float = 1.0
    lam: float = 1.0
    origin: int = 0
    #: Bounded per-shard queue depth (admission limit).
    queue_depth: int = 256
    #: Fraction of ``queue_depth`` beyond which service degrades.
    degrade_watermark: float = 0.75
    #: Default per-request deadline (ms); bodies may override per request.
    deadline_ms: float = 1000.0
    #: ``Retry-After`` hint (seconds) on 429/503 responses.
    retry_after: float = 0.05
    #: Consecutive shard-worker failures that open the shard breaker.
    breaker_threshold: int = 5
    #: Seconds an open shard breaker sheds before the half-open probe.
    breaker_cooldown: float = 1.0
    #: Directory for per-shard write-ahead journals (None = in-memory:
    #: drain-safe but not crash-safe).
    journal_dir: Optional[str] = None
    #: Resume from existing journals instead of starting fresh.
    resume: bool = False
    #: Fsync journal appends before responding (the WAL discipline).
    sync: bool = True
    #: Sliding dedupe-window width in event-time units (``None`` =
    #: unbounded).  Entries of the ``(item, time)`` decision index older
    #: than ``frontier - dedupe_window`` are evicted; a resend of an
    #: evicted event is answered ``409`` exactly like a stale non-dup.
    dedupe_window: Optional[float] = None
    #: Discovery-file name written into ``journal_dir`` once the socket
    #: is bound (cluster supervisors give each replica its own name so
    #: replicas can share one journal directory).
    meta_name: str = "server.json"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.owned_shards is not None:
            owned = tuple(sorted(set(int(s) for s in self.owned_shards)))
            if not owned:
                raise ValueError("owned_shards must not be empty")
            if owned[0] < 0 or owned[-1] >= self.shards:
                raise ValueError(
                    f"owned_shards {owned} outside [0, {self.shards})"
                )
            object.__setattr__(self, "owned_shards", owned)
        if self.dedupe_window is not None and not self.dedupe_window > 0.0:
            raise ValueError(
                f"dedupe_window must be positive, got {self.dedupe_window}"
            )
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if not 0.0 < self.degrade_watermark <= 1.0:
            raise ValueError(
                f"degrade_watermark must be in (0, 1], got {self.degrade_watermark}"
            )
        # Deadline validation rides on RunBudget's own contract.
        RunBudget(max_seconds=self.deadline_ms / 1000.0)
        if self.resume and self.journal_dir is None:
            raise ValueError("resume=True requires journal_dir")

    @property
    def cost(self) -> CostModel:
        return CostModel(mu=self.mu, lam=self.lam)


class _ShardBreaker:
    """Consecutive-failure circuit breaker guarding one shard worker."""

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self.opened_until = 0.0
        self.trips = 0

    def allow(self, now: float) -> bool:
        """True iff the shard may accept work (closed or half-open)."""
        return self.failures < self.threshold or now >= self.opened_until

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_until = now + self.cooldown
            self.trips += 1

    def record_success(self) -> None:
        self.failures = 0

    @property
    def state(self) -> str:
        return "open" if self.failures >= self.threshold else "closed"


@dataclass
class _Event:
    """One admitted request event travelling through a shard queue."""

    item: str
    time: float
    server: int
    shard: int
    degraded: bool
    #: Loop time after which the response answers ``pending`` instead.
    deadline: float
    future: "asyncio.Future[dict]" = field(repr=False, default=None)  # type: ignore[assignment]


class _Batch:
    """One ``POST /batch`` call: its answers in body order, and the events
    it has queued that have not settled yet."""

    def __init__(self) -> None:
        #: ``(status, payload or queued _Event)`` per event.
        self.answers: List[Tuple[int, object]] = []
        #: Indices into ``answers`` of the queued events.
        self.queued: List[int] = []
        #: Latest queued event time per item and per shard index.
        self.item_time: Dict[str, float] = {}
        self.shard_time: Dict[int, float] = {}

    def add(self, status: int, outcome: object) -> None:
        if isinstance(outcome, _Event):
            self.queued.append(len(self.answers))
            self.item_time[outcome.item] = outcome.time
            latest = self.shard_time.get(outcome.shard, -math.inf)
            self.shard_time[outcome.shard] = max(latest, outcome.time)
        self.answers.append((status, outcome))


class _Shard:
    """One shard: solver bank, WAL, decision index, bounded queue."""

    def __init__(self, index: int, config: ServerConfig):
        self.index = index
        self.config = config
        self.solvers: Dict[str, StreamingSolver] = {}
        self.queue: "asyncio.Queue[Optional[_Event]]" = asyncio.Queue(
            maxsize=config.queue_depth
        )
        self.breaker = _ShardBreaker(
            config.breaker_threshold, config.breaker_cooldown
        )
        self.journal: Optional[RunJournal] = None
        self.seq = 0
        self.digest = digest_value({"shard": index, "shards": config.shards})
        #: (item, time) -> settled response payload, for duplicate resends.
        #: Bounded by ``config.dedupe_window``: a sliding window keyed to
        #: the shard's event-time frontier (see :meth:`_evict_dedupe`).
        self.index_by_key: Dict[Tuple[str, float], dict] = {}
        #: Apply-order ledger of live dedupe entries (time, key).
        self.dedupe_order: "deque[Tuple[float, Tuple[str, float]]]" = deque()
        #: Max event time applied on this shard (the window frontier).
        self.frontier = float("-inf")
        #: Max event time ever evicted from the dedupe index: resends at
        #: or below this can no longer be told apart from stale events,
        #: so admission answers them 409.
        self.evicted_horizon = float("-inf")
        self.processed = 0
        self.degraded = 0
        #: Running cost of the naive always-transfer policy over the
        #: full-service events (``μ·Δt + λ`` each — the ``via_transfer``
        #: branch taken at every step), the live upper bound on optimal.
        self.baseline = 0.0
        self.decisions = {"cache": 0, "transfer": 0}
        #: Test hook: when set, the worker waits on it before each event.
        self.gate: Optional[asyncio.Event] = None

    # -- pure state transitions (shared by live serving and resume replay) --

    def journal_path(self) -> Optional[str]:
        if self.config.journal_dir is None:
            return None
        return str(Path(self.config.journal_dir) / f"shard-{self.index}.jsonl")

    def begin_fields(self) -> dict:
        """The config the ``begin`` record journals and resume checks."""
        config = self.config
        return {
            "shard": self.index,
            "shards": config.shards,
            "m": config.num_servers,
            "mu": config.mu,
            "lam": config.lam,
        }

    def open_journal(self) -> None:
        path = self.journal_path()
        self.journal = RunJournal.open_fresh(path, sync=False)
        self.journal.append(
            {"seq": 0, "kind": "begin", **self.begin_fields(), "digest": self.digest}
        )
        self.flush_journal()

    def flush_journal(self) -> None:
        """Fsync appended records (the respond-after-durable barrier)."""
        if self.journal is not None:
            self.journal.flush(fsync=self.config.sync)

    def apply(self, item: str, time: float, server: int, degraded: bool) -> dict:
        """Apply one accepted event to shard state; returns the response.

        Pure function of the accepted-event sequence: the same events in
        the same order yield the same decisions, costs, and digest chain
        regardless of wall clock, load, or process lifetime — this is
        what makes kill/resume bit-identical.
        """
        cost = self.config.cost
        if degraded:
            decision, item_cost, event_cost = "transfer", 0.0, cost.lam
            self.degraded += 1
        else:
            solver = self.solvers.get(item)
            if solver is None:
                solver = StreamingSolver(
                    self.config.num_servers, cost=cost, origin=self.config.origin
                )
                self.solvers[item] = solver
            prev_t = solver.t[-1]
            prev_c = solver.C[-1]
            item_cost = solver.append(time, server)
            via_transfer = prev_c + cost.mu * (time - prev_t) + cost.lam
            decision = "cache" if solver.D[-1] <= via_transfer else "transfer"
            event_cost = item_cost - prev_c
            self.baseline += cost.mu * (time - prev_t) + cost.lam
            self.decisions[decision] += 1
        self.seq += 1
        self.processed += 1
        core = {
            "kind": "degraded" if degraded else "request",
            "item": item,
            "time": time,
            "server": server,
            "decision": decision,
            "cost": event_cost,
        }
        self.digest = digest_value([self.digest, core])
        payload = {
            "item": item,
            "time": time,
            "server": server,
            "shard": self.index,
            "seq": self.seq,
            "decision": decision,
            "cost": event_cost,
            "item_cost": item_cost,
            "degraded": degraded,
            "duplicate": False,
            "status": "done",
        }
        self.index_by_key[(item, time)] = payload
        if time > self.frontier:
            self.frontier = time
        if self.config.dedupe_window is not None:
            self.dedupe_order.append((time, (item, time)))
            self._evict_dedupe()
        return payload

    def _evict_dedupe(self) -> None:
        """Slide the dedupe window up to the shard's time frontier.

        Entries are evicted in apply order once their event time falls
        behind ``frontier - dedupe_window``; per-item times are strictly
        increasing, so apply order tracks event time closely enough that
        the index size stays proportional to the window, never to the
        run length (regression-tested in ``test_server.py``).
        """
        cutoff = self.frontier - self.config.dedupe_window
        while self.dedupe_order and self.dedupe_order[0][0] < cutoff:
            t_old, key = self.dedupe_order.popleft()
            self.index_by_key.pop(key, None)
            if t_old > self.evicted_horizon:
                self.evicted_horizon = t_old

    def journal_event(self, core_payload: dict) -> None:
        """Write-ahead record for the event just applied."""
        if self.journal is None:
            return
        self.journal.append(
            {
                "seq": self.seq,
                "kind": "degraded" if core_payload["degraded"] else "request",
                "item": core_payload["item"],
                "time": core_payload["time"],
                "server": core_payload["server"],
                "digest": self.digest,
            }
        )

    def resume_from_journal(self) -> int:
        """Rebuild state by replaying the WAL; verify every digest.

        Returns the number of replayed events.  Resume never silently
        forks history: a ``begin`` record whose config (``shard``,
        ``shards``, ``m``, ``mu``, ``lam``) or digest differs from this
        shard's raises :class:`ResumeDivergenceError`, as does the first
        event digest mismatch.  A record that is not the one ``begin``
        at seq 0 followed by well-formed events, or that the solver
        refuses, raises :class:`JournalCorruptError` naming its seq and
        field.
        """
        path = self.journal_path()
        assert path is not None
        self.journal = RunJournal.load(path, sync=False)
        records = self.journal.records
        if records:
            self._check_begin(records[0])
        for record in records[1:]:
            item, time, server, degraded = self._replayed_event(record)
            try:
                self.apply(item, time, server, degraded)
            except InvalidInstanceError as exc:
                raise JournalCorruptError(
                    f"shard {self.index}: journal record seq {record['seq']}: "
                    f"field 'time' refused by the solver: {exc}"
                ) from exc
            if record["digest"] != self.digest:
                raise ResumeDivergenceError(
                    f"shard {self.index}: resume diverged at seq "
                    f"{record['seq']}: recomputed digest {self.digest} != "
                    f"journaled {record['digest']}"
                )
        return max(len(records) - 1, 0)

    def _check_begin(self, record: dict) -> None:
        if record.get("kind") != "begin":
            raise JournalCorruptError(
                f"shard {self.index}: journal record seq 0: field 'kind' is "
                f"{record.get('kind')!r}, not 'begin'"
            )
        for name, want in self.begin_fields().items():
            got = record.get(name)
            if got != want or isinstance(got, bool):
                raise ResumeDivergenceError(
                    f"shard {self.index}: journal begin {name}={got!r} but "
                    f"the config has {name}={want!r} (config changed under "
                    f"resume)"
                )
        if record["digest"] != self.digest:
            raise ResumeDivergenceError(
                f"shard {self.index}: journal begin digest "
                f"{record['digest']} != {self.digest} (shard layout "
                f"or config changed under resume)"
            )

    def _replayed_event(self, record: dict) -> Tuple[str, float, int, bool]:
        """``(item, time, server, degraded)`` of a journaled event, checked."""
        kind, item = record.get("kind"), record.get("item")
        time, server = record.get("time"), record.get("server")
        m = self.config.num_servers
        checks = (
            ("kind", kind in ("request", "degraded")),
            ("item", isinstance(item, str)),
            ("time", type(time) in (int, float) and _finite(time)),
            ("server", type(server) is int and 0 <= server < m),
        )
        for name, ok in checks:
            if not ok:
                raise JournalCorruptError(
                    f"shard {self.index}: journal record seq {record['seq']}: "
                    f"bad field {name!r}: {record.get(name)!r}"
                )
        return item, float(time), server, kind == "degraded"

    def optimal_cost(self) -> float:
        return sum(s.optimal_cost for s in self.solvers.values())

    def stats_row(self) -> dict:
        return {
            "shard": self.index,
            "seq": self.seq,
            "digest": self.digest,
            "queue": self.queue.qsize(),
            "items": len(self.solvers),
            "processed": self.processed,
            "degraded": self.degraded,
            "breaker": self.breaker.state,
            "breaker_trips": self.breaker.trips,
        }


class CacheServer:
    """The asyncio request-serving front-end (see module docstring).

    Usage (tests drive it in-process; the CLI via :func:`run_server`)::

        server = CacheServer(ServerConfig(port=0, journal_dir="/tmp/j"))
        await server.start()           # binds; resumes if configured
        ...                            # HTTP traffic against server.port
        await server.shutdown()        # drain, flush, close (SIGTERM path)
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        owned = (
            config.owned_shards
            if config.owned_shards is not None
            else tuple(range(config.shards))
        )
        #: Owned shards by global shard index.  A cluster supervisor can
        #: grow this set at runtime via ``POST /admin/acquire``; routing
        #: (:func:`route_item`) is always over ``config.shards`` total.
        self.shards: Dict[int, _Shard] = {
            i: _Shard(i, config) for i in owned
        }
        self.draining = False
        self.started = False
        self.replayed_events = 0
        self.counters = {
            "accepted": 0,
            "shed_429": 0,
            "shed_503": 0,
            "duplicates": 0,
            "conflicts": 0,
            "misrouted": 0,
            "errors": 0,
            "deadline_expired": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List[asyncio.Task] = []
        self._closed = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self.config.journal_dir is not None:
            Path(self.config.journal_dir).mkdir(parents=True, exist_ok=True)
        for shard in self.shards.values():
            if self.config.resume and Path(shard.journal_path() or "").exists():
                self.replayed_events += shard.resume_from_journal()
            else:
                shard.open_journal()
            self._workers.append(asyncio.create_task(self._worker(shard)))
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.started = True
        if self.config.journal_dir is not None:
            # Discovery file for supervisors / the chaos driver: written
            # only after the socket is bound, so its presence means ready.
            meta = Path(self.config.journal_dir) / self.config.meta_name
            meta.write_text(
                json.dumps(
                    {
                        "host": self.config.host,
                        "port": self.port,
                        "shards": self.config.shards,
                        "owned": sorted(self.shards),
                    }
                )
                + "\n"
            )

    def acquire_shard(self, index: int) -> int:
        """Take ownership of shard ``index`` (the failover handoff).

        Resumes from the shard's per-shard WAL when one exists — digest
        verification included, so the acquired state is provably the
        dead owner's durable prefix — or opens a fresh journal when it
        does not.  Returns the number of replayed events.  Must run on
        the server's event loop.
        """
        if not 0 <= index < self.config.shards:
            raise ValueError(
                f"shard {index} outside [0, {self.config.shards})"
            )
        if index in self.shards:
            return 0
        shard = _Shard(index, self.config)
        path = shard.journal_path()
        replayed = 0
        if path is not None and Path(path).exists():
            replayed = shard.resume_from_journal()
            self.replayed_events += replayed
        else:
            shard.open_journal()
        self.shards[index] = shard
        self._workers.append(asyncio.create_task(self._worker(shard)))
        return replayed

    async def shutdown(self) -> None:
        """Graceful drain: stop admission, flush queues, close journals."""
        if self.draining:
            await self._closed.wait()
            return
        self.draining = True
        for shard in self.shards.values():
            await shard.queue.put(None)  # sentinel after all accepted work
        await asyncio.gather(*self._workers, return_exceptions=True)
        for shard in self.shards.values():
            shard.flush_journal()
            if shard.journal is not None:
                shard.journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # -- admission + processing ----------------------------------------------

    def _parse_event(self, body) -> Tuple[str, float, int, float]:
        """``(item, time, server, deadline seconds)`` of one event body.

        Raises ``KeyError``, ``TypeError``, ``ValueError`` or
        ``OverflowError`` for a body answered 400: a missing field, a
        time that is not positive and finite, a server that is not an
        integer in ``[0, num_servers)`` (neither a bool nor ``2.9`` is),
        or a deadline that is negative or not finite.
        """
        item, time, server = str(body["item"]), float(body["time"]), body["server"]
        if not 0.0 < time < math.inf:
            raise ValueError(f"time {time} is not positive and finite")
        m = self.config.num_servers
        if isinstance(server, bool) or not isinstance(server, int) or not 0 <= server < m:
            raise ValueError(f"server {server!r} is not an integer in [0, {m})")
        deadline_ms = float(body.get("deadline_ms", self.config.deadline_ms))
        if not 0.0 <= deadline_ms < math.inf:
            raise ValueError(f"deadline_ms {deadline_ms} is not non-negative and finite")
        return item, time, server, deadline_ms / 1000.0

    async def _admit_event(
        self, body, batch: Optional[_Batch] = None
    ) -> Tuple[int, object]:
        """Admission step of ``/request`` and ``/batch``: parse, then admit.

        A bad body is answered 400 before anything is queued or counted.
        Otherwise returns :meth:`_admit`'s answer; a queued
        :class:`_Event` is answered later by :meth:`_settle`.  Within a
        ``batch``, the events it has queued settle first whenever this
        one could otherwise be answered differently than if it were sent
        alone (:meth:`_must_settle_first`).
        """
        try:
            item, time, server, budget_s = self._parse_event(body)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            return 400, {"error": f"bad event: {exc}"}
        if batch is not None and self._must_settle_first(batch, item, time):
            await self._settle_batch(batch)
        return self._admit(item, time, server, budget_s)

    def _must_settle_first(self, batch: _Batch, item: str, time: float) -> bool:
        """True iff ``batch``'s queued events must settle before ``(item, time)``.

        Admission reads shard state that applying them changes.  They
        settle first when they share the event's shard and

        * one has the same item at or after ``time`` (an in-batch
          duplicate or stale event: its ``duplicate``/409 answer needs
          the applied state, or the worker would answer 400);
        * the shard queue is at the degrade watermark (a batch alone on
          the server is never degraded or shed by its own events);
        * with a dedupe window, applying them may slide the window past
          ``time`` (a 409 once sent alone).
        """
        index = route_item(item, self.config.shards)
        latest = batch.shard_time.get(index)
        if latest is None:
            return False
        if time <= batch.item_time.get(item, -math.inf):
            return True
        config = self.config
        shard = self.shards[index]
        if shard.queue.qsize() >= config.degrade_watermark * config.queue_depth:
            return True
        window = config.dedupe_window
        return window is not None and time < max(shard.frontier, latest) - window

    def _admit(
        self, item: str, time: float, server: int, budget_s: float
    ) -> Tuple[int, object]:
        """Admission decision: (status, _Event | error payload).

        A queued event's deadline is ``budget_s`` from now.
        """
        if self.draining:
            self.counters["shed_503"] += 1
            return 503, {"error": "draining"}
        index = route_item(item, self.config.shards)
        shard = self.shards.get(index)
        if shard is None:
            self.counters["misrouted"] += 1
            return 421, {
                "error": f"shard {index} not owned here",
                "shard": index,
                "owned": sorted(self.shards),
            }
        loop = asyncio.get_running_loop()
        now = loop.time()
        if not shard.breaker.allow(now):
            self.counters["shed_503"] += 1
            return 503, {"error": "circuit open", "shard": shard.index}
        hit = shard.index_by_key.get((item, time))
        if hit is not None:
            self.counters["duplicates"] += 1
            return 200, dict(hit, duplicate=True)
        if time <= shard.evicted_horizon:
            # The dedupe window has slid past this instant: a resend of
            # an applied event and a stale newcomer are no longer
            # distinguishable, so both get the stale-event answer.
            self.counters["conflicts"] += 1
            return 409, {
                "error": f"event at t={time:.9g} is behind the "
                f"dedupe window (evicted horizon "
                f"{shard.evicted_horizon:.9g})",
            }
        solver = shard.solvers.get(item)
        if solver is not None and time <= solver.t[-1]:
            self.counters["conflicts"] += 1
            return 409, {
                "error": f"stale event: item {item!r} horizon is "
                f"{solver.t[-1]:.9g}, got {time:.9g}",
            }
        depth = shard.queue.qsize()
        if depth >= self.config.queue_depth:
            self.counters["shed_429"] += 1
            return 429, {"error": "queue full", "shard": shard.index}
        degraded = depth >= self.config.degrade_watermark * self.config.queue_depth
        event = _Event(
            item=item, time=time, server=server, shard=index,
            degraded=degraded, deadline=now + budget_s,
        )
        event.future = loop.create_future()
        shard.queue.put_nowait(event)
        self.counters["accepted"] += 1
        return 200, event

    async def _worker(self, shard: _Shard) -> None:
        """Single writer for one shard's state, WAL, and decision index."""
        loop = asyncio.get_running_loop()
        while True:
            if shard.gate is not None:  # test hook: hold the queue intact
                await shard.gate.wait()
            event = await shard.queue.get()
            if event is None:
                return
            block = [event]
            # Drain what is already queued so one fsync covers the whole
            # block (write-ahead still holds: responses resolve only
            # after the flush below).
            while not shard.queue.empty() and len(block) < 64:
                nxt = shard.queue.get_nowait()
                if nxt is None:
                    shard.queue.put_nowait(None)  # keep the drain sentinel
                    break
                block.append(nxt)
            settled: List[Tuple[_Event, dict]] = []
            for ev in block:
                try:
                    hit = shard.index_by_key.get((ev.item, ev.time))
                    if hit is not None:
                        # The same logical event was applied earlier in
                        # this block (a retry on another connection
                        # overlapping its in-flight original): answer,
                        # don't re-apply.
                        self.counters["duplicates"] += 1
                        settled.append((ev, dict(hit, duplicate=True)))
                        continue
                    payload = shard.apply(ev.item, ev.time, ev.server, ev.degraded)
                    shard.journal_event(payload)
                    shard.breaker.record_success()
                    settled.append((ev, payload))
                except InvalidInstanceError as exc:
                    # Client-shaped input error that slipped past admission
                    # (e.g. two connections racing out-of-order times of
                    # one item): reject the event without charging the
                    # breaker.
                    settled.append((ev, {"error": str(exc), "_status": 400}))
                except Exception as exc:  # noqa: BLE001 - breaker boundary
                    shard.breaker.record_failure(loop.time())
                    self.counters["errors"] += 1
                    settled.append(
                        (ev, {"error": f"internal: {exc}", "_status": 500})
                    )
            shard.flush_journal()
            for ev, payload in settled:
                if not ev.future.done():
                    ev.future.set_result(payload)
            await asyncio.sleep(0)  # yield to responders between blocks

    async def _settle(self, event: _Event) -> Tuple[int, dict]:
        """Settle step: the queued event's answer, ``pending`` past its deadline.

        A future the shard worker has already resolved is read without
        waiting; within a shard block, all but the first have.
        """
        if not event.future.done():
            remaining = event.deadline - asyncio.get_running_loop().time()
            try:
                await asyncio.wait_for(
                    asyncio.shield(event.future), timeout=max(remaining, 0.0)
                )
            except asyncio.TimeoutError:
                # Deadline budget expired: degraded-partial response; the
                # accepted event still processes and a duplicate resend
                # will return the settled decision.
                self.counters["deadline_expired"] += 1
                return 200, {
                    "item": event.item,
                    "shard": event.shard,
                    "decision": None,
                    "degraded": True,
                    "duplicate": False,
                    "status": "pending",
                }
        payload = event.future.result()
        return payload.pop("_status", 200), payload

    async def _settle_batch(self, batch: _Batch) -> None:
        """Settle every queued event of ``batch`` into its answer slot."""
        for k in batch.queued:
            batch.answers[k] = await self._settle(batch.answers[k][1])
        batch.queued.clear()
        batch.item_time.clear()
        batch.shard_time.clear()

    async def _respond_batch(self, bodies: list) -> List[dict]:
        """Admit every event in body order, then settle them.

        Each shard worker finds its share of the batch already queued
        and applies it as one block under one journal flush; each event
        gets the answer it would get if sent alone through ``/request``.
        """
        batch = _Batch()
        for body in bodies:
            batch.add(*await self._admit_event(body, batch))
        await self._settle_batch(batch)
        return [{"status": status, **payload} for status, payload in batch.answers]

    # -- endpoints ------------------------------------------------------------

    def _stats(self) -> dict:
        shards = [self.shards[i] for i in sorted(self.shards)]
        optimal = sum(s.optimal_cost() for s in shards)
        processed = sum(s.processed for s in shards)
        degraded = sum(s.degraded for s in shards)
        baseline = sum(s.baseline for s in shards)
        decisions = {"cache": 0, "transfer": 0}
        for s in shards:
            for k in decisions:
                decisions[k] += s.decisions[k]
        rows = [s.stats_row() for s in shards]
        return {
            "requests": dict(self.counters),
            "items": sum(len(s.solvers) for s in shards),
            "processed": processed,
            "degraded_decisions": degraded,
            "decisions": decisions,
            "optimal_cost": optimal,
            "baseline_cost": baseline,
            "savings_vs_always_transfer": baseline - optimal,
            "replayed_events": self.replayed_events,
            "draining": self.draining,
            "shards": rows,
            "digest": digest_value([(r["shard"], r["seq"], r["digest"]) for r in rows]),
        }

    def _snapshot_items(self) -> Tuple[dict, float]:
        """Freeze per-item instances + streaming total (in the event loop,
        so the executor-side solve below never races shard workers)."""
        items = {
            name: solver.instance()
            for index in sorted(self.shards)
            for name, solver in sorted(self.shards[index].solvers.items())
        }
        return items, sum(s.optimal_cost() for s in self.shards.values())

    def _offline_check(self, items: dict, streaming_total: float) -> dict:
        """Re-solve a frozen snapshot through the service layer."""
        from .multi import MultiItemInstance, solve_offline_multi

        if not items:
            return {"error": "no items yet", "_status": 409}
        offline_total = solve_offline_multi(MultiItemInstance(items)).total_cost
        drift = abs(offline_total - streaming_total)
        return {
            "items": len(items),
            "offline_total": offline_total,
            "streaming_total": streaming_total,
            "match": drift <= 1e-9 * max(1.0, abs(offline_total)),
        }

    async def _dispatch(self, method: str, path: str, body: bytes) -> Tuple[int, dict, list]:
        if path == "/healthz":
            return 200, {"ok": True}, []
        if path == "/readyz":
            ready = self.started and not self.draining
            breakers = [
                self.shards[i].breaker.state for i in sorted(self.shards)
            ]
            status = 200 if ready else 503
            extra = [] if ready else [("Retry-After", f"{self.config.retry_after:.3f}")]
            return status, {
                "ready": ready,
                "breakers": breakers,
                "owned": sorted(self.shards),
            }, extra
        if path == "/admin/acquire" and method == "POST":
            if self.draining:
                return 503, {"error": "draining"}, []
            try:
                parsed = json.loads(body or b"{}")
                index = int(parsed["shard"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                return 400, {"error": f"bad acquire: {exc}"}, []
            try:
                replayed = self.acquire_shard(index)
            except (ResumeDivergenceError, JournalCorruptError) as exc:
                # Before the ValueError branch: JournalCorruptError is
                # one, but a bad WAL is the server's fault, not the
                # caller's.
                self.counters["errors"] += 1
                return 500, {"error": f"acquire failed: {exc}"}, []
            except ValueError as exc:
                return 400, {"error": str(exc)}, []
            return 200, {
                "shard": index,
                "replayed": replayed,
                "owned": sorted(self.shards),
            }, []
        if path == "/stats" and method == "GET":
            return 200, self._stats(), []
        if path == "/offline" and method == "GET":
            items, streaming_total = self._snapshot_items()
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self._offline_check, items, streaming_total
            )
            return payload.pop("_status", 200), payload, []
        if path == "/request" and method == "POST":
            try:
                parsed = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                return 400, {"error": f"bad json: {exc}"}, []
            status, outcome = await self._admit_event(parsed)
            if isinstance(outcome, _Event):
                status, outcome = await self._settle(outcome)
            retry = [("Retry-After", f"{self.config.retry_after:.3f}")]
            return status, outcome, retry if status in (429, 503) else []
        if path == "/batch" and method == "POST":
            try:
                events = json.loads(body or b"{}")["events"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                return 400, {"error": f"bad batch: {exc}"}, []
            if not isinstance(events, list):
                return 400, {"error": "bad batch: events must be a JSON list"}, []
            return 200, {"results": await self._respond_batch(events)}, []
        if path in ("/request", "/batch", "/stats", "/offline", "/admin/acquire"):
            return 405, {"error": f"{method} not allowed on {path}"}, []
        return 404, {"error": f"no such endpoint: {path}"}, []

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await _read_head(reader)
                except _FramingError as exc:
                    # The rest of the stream cannot be framed: answer, close.
                    writer.write(_render(exc.status, {"error": str(exc)}, [], False))
                    await writer.drain()
                    break
                if head is None:
                    break
                method, target, headers, length, _raw = head
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload, extra = await self._dispatch(
                        method, target.split("?", 1)[0], body
                    )
                except Exception as exc:  # noqa: BLE001 - last-resort boundary
                    self.counters["errors"] += 1
                    status, payload, extra = 500, {"error": f"internal: {exc}"}, []
                keep = headers.get("connection", "keep-alive").lower() != "close"
                writer.write(_render(status, payload, extra, keep))
                await writer.drain()
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # torn connection: drop it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def run_server(config: ServerConfig) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT, drain, exit 0."""

    async def _main() -> int:
        server = CacheServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(server.shutdown())
            )
        owned = (
            f"owning {','.join(map(str, sorted(server.shards)))} of "
            if config.owned_shards is not None
            else ""
        )
        print(
            f"serving on http://{config.host}:{server.port} "
            f"({owned}{config.shards} shards, queue depth {config.queue_depth}, "
            f"journal {config.journal_dir or '<memory>'}"
            + (f", resumed {server.replayed_events} events" if config.resume else "")
            + ")",
            flush=True,
        )
        await server.wait_closed()
        print("drained and stopped", flush=True)
        return 0

    return asyncio.run(_main())
