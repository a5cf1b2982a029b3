"""HTTP/1.1 keep-alive drivers for the serving workloads.

Both drivers talk to the server over a fixed set of connections
("lanes"), at most one per usable CPU, and the caller pins every item to
one lane so that its events reach the server in time order.

* :func:`open_loop` sends each request at its scheduled time whether or
  not earlier ones were answered (HTTP pipelining), and times every
  request from its *scheduled* send, so a stall also delays everything
  queued behind it.
* :func:`closed_loop` keeps one ``POST /batch`` in flight per lane.

A send succeeds only with a full-service decision: status 200, body
``status == "done"`` and not ``degraded``.  Any other answer -- a non-200
status, ``"pending"`` past the deadline, a degraded decision, a transport
error, or no answer before the give-up time -- is a failure, and enters
the latency sample at :data:`GIVE_UP_S` so that it misses every latency
limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Seconds after the last scheduled send that answers are awaited; also
#: the latency a failed send is recorded with.
GIVE_UP_S = 10.0

_TRANSPORT_ERRORS = (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError)


def decision_ok(status, payload: dict) -> bool:
    """True iff one answer is a full-service decision."""
    return status == 200 and payload.get("status") == "done" and not payload.get("degraded")


def decode_batch(status: int, payload: dict, sent: int) -> List[bool]:
    """Per-event success flags of one ``POST /batch`` answer.

    The server renders each result as ``{"status": code, **payload}``,
    so a settled event's ``status`` reads ``"done"`` (the payload's
    string overwrites the integer code) while a refused one keeps its
    integer code.  A failed call fails every event it carried.
    """
    results = payload.get("results") if status == 200 else None
    if not isinstance(results, list) or len(results) != sent:
        return [False] * sent
    return [r.get("status") == "done" and not r.get("degraded") for r in results]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_percentile(values: Sequence[float], at_s: Sequence[float], q: float, window_s: float) -> float:
    """Median over ``window_s``-long windows of each window's ``q``-th percentile.

    ``at_s[i]`` places ``values[i]`` in time.  Windows holding fewer than
    half as many values as the fullest one (the ragged ends of a run) are
    left out.  A burst that spoils fewer than half of the windows does
    not move the result.
    """
    windows: Dict[int, List[float]] = {}
    for t, value in zip(at_s, values):
        windows.setdefault(math.floor(t / window_s), []).append(value)
    full = max(len(w) for w in windows.values())
    return percentile([percentile(w, q) for w in windows.values() if 2 * len(w) >= full], 50)


def request_bytes(method: str, path: str, body: Optional[dict] = None) -> bytes:
    blob = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(blob)}\r\n\r\n"
    return head.encode("latin-1") + blob


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, dict]:
    """Read one HTTP/1.1 response with a JSON body."""
    line = await reader.readline()
    parts = line.split()
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"bad status line {line[:64]!r}")
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        key, _, value = header.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return int(parts[1]), (json.loads(body) if body else {})


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def http_call(host: str, port: int, method: str, path: str, body=None, timeout: float = 30.0):
    """One request on a fresh connection: ``(status, payload)``."""
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        writer.write(request_bytes(method, path, body))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader), timeout)
    finally:
        await _close(writer)


@dataclass
class LoadStats:
    """What one driver run observed over its measured sends."""

    #: Events sent (open loop: requests; closed loop: events in batches).
    sends: int = 0
    failed: int = 0
    #: Per-request (open loop) or per-call (closed loop) latency, ms.
    latencies_ms: List[float] = field(default_factory=list)
    #: Scheduled send time of each latency sample, s (open loop only).
    due_s: List[float] = field(default_factory=list)
    #: Actual minus scheduled send time, ms (open loop only).
    lateness_ms: List[float] = field(default_factory=list)
    #: Answer kinds: ``"done"``, ``"pending"``, an HTTP code, ``"transport"``.
    answers: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def count(self, key) -> None:
        self.answers[str(key)] = self.answers.get(str(key), 0) + 1


async def open_loop(
    host: str,
    port: int,
    lanes: Sequence[Sequence[Tuple[float, bytes]]],
    measure_from: float = 0.0,
) -> LoadStats:
    """Send ``(due, request)`` pairs on schedule, one connection per lane.

    ``due`` is seconds after the start.  Requests due before
    ``measure_from`` are warm-up: sent and answered, but left out of
    every statistic.
    """
    loop = asyncio.get_running_loop()
    stats = LoadStats()
    start = loop.time() + 0.05
    cpu0, wall0 = time.process_time(), time.perf_counter()

    def record(due: float, ok: bool, latency_s: float) -> None:
        if due < measure_from:
            return
        stats.sends += 1
        stats.failed += not ok
        stats.latencies_ms.append((latency_s if ok else GIVE_UP_S) * 1e3)
        stats.due_s.append(due)

    async def lane(sends: Sequence[Tuple[float, bytes]]) -> None:
        answered = 0
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            writer = None
        in_flight: "deque[float]" = deque()

        async def sender() -> None:
            for due, blob in sends:
                delay = start + due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if due >= measure_from:
                    stats.lateness_ms.append((loop.time() - start - due) * 1e3)
                in_flight.append(due)
                writer.write(blob)
                await writer.drain()

        async def receiver() -> None:
            nonlocal answered
            while answered < len(sends):
                status, payload = await read_response(reader)
                due = in_flight.popleft()
                answered += 1
                stats.count(payload.get("status") if status == 200 else status)
                record(due, decision_ok(status, payload), loop.time() - start - due)

        if writer is not None:
            tasks = [asyncio.ensure_future(sender()), asyncio.ensure_future(receiver())]
            try:
                await tasks[0]
                await asyncio.wait_for(asyncio.shield(tasks[1]), GIVE_UP_S)
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                pass
            finally:
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                await _close(writer)
        # Answers arrive in send order: everything past the last answer,
        # in flight or never sent, failed.
        for due, _ in sends[answered:]:
            stats.count("transport")
            record(due, False, 0.0)

    await asyncio.gather(*(lane(sends) for sends in lanes))
    stats.wall_s = time.perf_counter() - wall0
    stats.cpu_s = time.process_time() - cpu0
    return stats


async def closed_loop(
    host: str,
    port: int,
    lanes: Sequence[Iterator[dict]],
    batch: int,
    calls: int,
) -> LoadStats:
    """One ``POST /batch`` of ``batch`` events in flight per lane.

    Each lane makes exactly ``calls`` calls, drawing their events
    (request bodies) from its iterator; latency is per call.
    """
    loop = asyncio.get_running_loop()
    stats = LoadStats()
    cpu0, wall0 = time.process_time(), time.perf_counter()

    async def lane(events: Iterator[dict]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        made = 0
        try:
            while made < calls:
                made += 1
                body = {"events": [next(events) for _ in range(batch)]}
                sent = loop.time()
                try:
                    writer.write(request_bytes("POST", "/batch", body))
                    await writer.drain()
                    status, payload = await asyncio.wait_for(read_response(reader), GIVE_UP_S)
                except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                    # The lane is dead: this call and every call it still
                    # owed failed.
                    lost = 1 + calls - made
                    stats.count("transport")
                    stats.sends += lost * batch
                    stats.failed += lost * batch
                    stats.latencies_ms.extend([GIVE_UP_S * 1e3] * lost)
                    return
                flags = decode_batch(status, payload, batch)
                for entry in payload.get("results", []) if status == 200 else [status]:
                    stats.count(entry.get("status") if isinstance(entry, dict) else entry)
                stats.sends += batch
                stats.failed += flags.count(False)
                stats.latencies_ms.append(
                    (loop.time() - sent) * 1e3 if all(flags) else GIVE_UP_S * 1e3
                )
        finally:
            await _close(writer)

    await asyncio.gather(*(lane(events) for events in lanes))
    stats.wall_s = time.perf_counter() - wall0
    stats.cpu_s = time.process_time() - cpu0
    return stats
