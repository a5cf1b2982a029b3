"""Trace-replaying load generator for the live serving front-end.

Feeds a merged, time-ordered event stream — from a columnar trace
container or a synthetic multi-item workload — into a running
:class:`~repro.service.server.CacheServer` or replicated cluster over
plain HTTP/1.1 keep-alive connections, and reports latency percentiles,
achieved throughput, and the shed/degraded accounting the robustness
gates need.

Two driving disciplines:

* **open-loop** (``rate=<req/s>``) — every event has a *scheduled* send
  time (``i / rate`` after start) and is fired at that time regardless
  of how previous requests fared.  Latency is measured from the
  scheduled time, not the actual send, so queueing delay inside the
  generator counts against the server (no coordinated omission).  This
  is the discipline for overload experiments: at 2× the sustainable
  rate the server must shed with 429s rather than let latency grow
  without bound.
* **closed-loop** (``rate=None``, and every cluster run) — a fixed set
  of lanes send back-to-back, and :meth:`ClusterClient.settle` redrives
  each event with jittered capped backoff until it is done.  Because
  every event is eventually applied exactly once (the server dedupes
  resends), the accepted-event sequence — and therefore the decision
  digest — is load-independent.  This is the discipline the kill/resume
  and failover chaos proofs drive.

Events within one item must keep strictly increasing times (the
streaming-DP contract); the closed-loop driver additionally keeps
per-item *order* by routing every item to a fixed lane
(``route_item(item, lanes)``), so retries never reorder an item's
events into 409 conflicts.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .server import _FramingError, _read_head, route_item

__all__ = [
    "ClusterClient",
    "ClusterMap",
    "HttpClient",
    "LoadResult",
    "cluster_stats",
    "events_from_trace",
    "synthetic_events",
    "run_cluster_load",
    "run_load",
    "replay",
    "replay_cluster",
]

#: (item, time, server) — one request event on the wire.
Event = Tuple[str, float, int]


class HttpClient:
    """Minimal asyncio HTTP/1.1 keep-alive client for JSON endpoints.

    One instance owns one connection; it reconnects transparently after
    a drop (server restart mid-chaos-run) on the next request.  As an
    ``async with`` block it closes the connection on exit.

    ``connect_timeout`` / ``read_timeout`` bound each phase of a round
    trip: on expiry ``asyncio.TimeoutError`` propagates.  An answer the
    server's own head reader refuses, or one torn before its body ends,
    raises ``ConnectionError``.  Either way the connection is closed
    first (a half-read answer must never be reused), and a closed-loop
    lane reconnects and redrives the request, which the server's dedupe
    makes exactly-once.  ``None`` disables a timeout; a black-holed
    server then hangs the caller, which is exactly the failure mode
    these knobs exist to kill.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "HttpClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            timeout=self.connect_timeout,
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    def encode(self, method: str, path: str, body: Optional[dict] = None) -> bytes:
        """The request as written on the wire: head, then the JSON body."""
        blob = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(blob)}\r\nConnection: keep-alive\r\n\r\n"
        )
        return head.encode("latin-1") + blob

    async def _answer(self) -> Tuple[int, dict, Dict[str, str]]:
        assert self._reader is not None
        try:
            head = await _read_head(self._reader, response=True)
            if head is None:
                raise ConnectionError("connection closed before a whole head")
            _version, status, headers, length, _raw = head
            payload = json.loads(await self._reader.readexactly(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError(f"body is a JSON {type(payload).__name__}")
        except (_FramingError, asyncio.IncompleteReadError, ValueError) as exc:
            raise ConnectionError(f"torn or refused answer: {exc}") from exc
        return int(status), payload, headers

    async def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict, Dict[str, str]]:
        """One round trip; returns (status, json body, headers)."""
        try:
            if self._writer is None or self._writer.is_closing():
                await self._connect()
            assert self._writer is not None
            self._writer.write(self.encode(method, path, body))
            await self._writer.drain()
            return await asyncio.wait_for(
                self._answer(), timeout=self.read_timeout
            )
        except BaseException:
            # The connection now holds a half-read (or never-sent)
            # answer: poison — drop it before anyone reuses it.
            await self.close()
            raise


# ---------------------------------------------------------------------------
# Event streams.
# ---------------------------------------------------------------------------


def events_from_trace(path: str, limit: Optional[int] = None) -> List[Event]:
    """Merged time-ordered events from a columnar trace container."""
    from ..workloads.columnar import ColumnarTrace

    trace = ColumnarTrace.open(path)
    times = np.asarray(trace.times, dtype=float)
    servers = np.asarray(trace.servers, dtype=int)
    item_ids = np.asarray(trace.item_ids, dtype=int)
    order = np.argsort(times, kind="stable")
    table = trace.item_table
    events = [
        (table[item_ids[i]], float(times[i]), int(servers[i])) for i in order
    ]
    return events[:limit] if limit is not None else events


def synthetic_events(
    items: int = 8,
    count: int = 400,
    num_servers: int = 8,
    seed: int = 0,
) -> List[Event]:
    """Merged time-ordered events from a synthetic multi-item workload."""
    from .multi import multi_item_workload

    service = multi_item_workload(items, count, num_servers, rng=seed)
    events: List[Event] = []
    for name, instance in service.items.items():
        # Index 0 is the boundary request r_0 (origin placement), not
        # a wire event.
        for t, s in zip(instance.t[1:], instance.srv[1:]):
            events.append((name, float(t), int(s)))
    events.sort(key=lambda e: e[1])
    return events


# ---------------------------------------------------------------------------
# The generator.
# ---------------------------------------------------------------------------


@dataclass
class LoadResult:
    """What one load run observed (see :meth:`to_dict` for the report).

    ``statuses`` counts every answer (``-1`` = transport failure) and
    ``retries`` every redrive.  ``accepted`` counts the events the
    server took: settled ones in a closed loop (a 200 whose ``status``
    is ``done``), 200 answers in an open loop, which sends each once.
    """

    sent: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    accepted: int = 0
    degraded: int = 0
    duplicates: int = 0
    retries: int = 0
    give_ups: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    stats: Optional[dict] = None

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    @property
    def shed(self) -> int:
        return self.statuses.get(429, 0) + self.statuses.get(503, 0)

    def count(self, status: int, payload: dict, accepted: bool) -> None:
        """Count one answer, and an accepted one's flags."""
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if accepted:
            self.accepted += 1
            self.degraded += bool(payload.get("degraded"))
            self.duplicates += bool(payload.get("duplicate"))

    def to_dict(self) -> dict:
        return {
            "sent": self.sent,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "accepted": self.accepted,
            "shed": self.shed,
            "shed_rate": self.shed / self.sent if self.sent else 0.0,
            "degraded": self.degraded,
            "duplicates": self.duplicates,
            "retries": self.retries,
            "give_ups": self.give_ups,
            "p50_ms": self.percentile(50),
            "p90_ms": self.percentile(90),
            "p99_ms": self.percentile(99),
            "elapsed_s": self.elapsed,
            "achieved_rps": self.sent / self.elapsed if self.elapsed else 0.0,
            "digest": (self.stats or {}).get("digest"),
            "optimal_cost": (self.stats or {}).get("optimal_cost"),
            "baseline_cost": (self.stats or {}).get("baseline_cost"),
        }


async def _open_loop(
    host: str,
    port: int,
    events: Sequence[Event],
    rate: float,
    concurrency: int,
    connect_timeout: Optional[float],
    read_timeout: Optional[float],
) -> LoadResult:
    """Fire each event once at its scheduled time; latency is measured
    from the *schedule*, so generator backlog counts."""
    result = LoadResult()
    loop = asyncio.get_running_loop()
    started = loop.time()
    sem = asyncio.Semaphore(max(1, int(concurrency)) * 8)

    async def fire(i: int, event: Event) -> None:
        scheduled = started + i / rate
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        item, t, server = event
        body = {"item": item, "time": t, "server": server}
        async with sem:
            try:  # bursty: each send on its own connection
                async with HttpClient(
                    host, port, connect_timeout, read_timeout
                ) as client:
                    status, payload, _ = await client.request(
                        "POST", "/request", body
                    )
            except (OSError, asyncio.TimeoutError):
                status, payload = -1, {}
            result.count(status, payload, status == 200)
            result.sent += 1
            if status == 200:
                result.latencies_ms.append((loop.time() - scheduled) * 1000.0)

    await asyncio.gather(*(fire(i, ev) for i, ev in enumerate(events)))
    result.elapsed = loop.time() - started
    return result


async def run_load(
    host: str,
    port: int,
    events: Sequence[Event],
    rate: Optional[float] = None,
    concurrency: int = 8,
    retries: int = 8,
    backoff: float = 0.05,
    fetch_stats: bool = True,
    connect_timeout: Optional[float] = 5.0,
    read_timeout: Optional[float] = 15.0,
) -> LoadResult:
    """Drive ``events`` against one server; see the module docstring.

    ``rate`` selects open-loop (target req/s, no retries — refused is
    refused) versus closed-loop (``None``): the lane driver of
    :func:`run_cluster_load` on the fixed route of this one server.  A
    request that exceeds ``read_timeout`` counts as a torn send: the
    lane reconnects and (closed-loop) redrives the event through the
    server's dedupe path — a stalled or black-holed server can no longer
    hang a lane forever.
    """
    if rate is None:
        result = await _run_lanes(
            ClusterMap.lone(host, port),
            events, concurrency, retries, backoff, connect_timeout, read_timeout,
        )
    else:
        result = await _open_loop(
            host, port, events, rate, concurrency, connect_timeout, read_timeout
        )
    if fetch_stats:
        # A read is safe to repeat: retry it through transport failures.
        async with HttpClient(host, port, connect_timeout, read_timeout) as probe:
            for attempt in range(retries + 1):
                try:
                    _status, result.stats, _ = await probe.request("GET", "/stats")
                    break
                except (OSError, asyncio.TimeoutError):
                    if attempt == retries:
                        raise
                    await asyncio.sleep(backoff)
    return result


def replay(
    host: str,
    port: int,
    events: Sequence[Event],
    **kwargs,
) -> LoadResult:
    """Synchronous wrapper around :func:`run_load`."""
    return asyncio.run(run_load(host, port, events, **kwargs))


# ---------------------------------------------------------------------------
# Failover-aware cluster client.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterMap:
    """One epoch of the cluster's shard-routing table.

    Written atomically (tmp + rename) by
    :class:`~repro.service.cluster.ReplicaSet` as ``cluster.json``;
    clients reload it whenever a request lands on a non-owner (``421``)
    or an endpoint stops answering.
    """

    epoch: int
    num_shards: int
    #: shard index -> (host, port) of the owning replica's data address.
    endpoints: Dict[int, Tuple[str, int]]

    @classmethod
    def load(cls, path: str) -> "ClusterMap":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        endpoints = {
            int(shard): (str(addr["host"]), int(addr["port"]))
            for shard, addr in data["shards"].items()
        }
        return cls(
            epoch=int(data["epoch"]),
            num_shards=int(data["num_shards"]),
            endpoints=endpoints,
        )

    @classmethod
    def lone(cls, host: str, port: int) -> "ClusterMap":
        """The fixed route of a lone server: one shard on one endpoint."""
        return cls(epoch=0, num_shards=1, endpoints={0: (host, port)})

    def endpoint_for(self, item: str) -> Tuple[str, int]:
        return self.endpoints[route_item(item, self.num_shards)]


class ClusterClient:
    """Failover-aware closed-loop client: routes each event, settles it.

    ``route`` is a cluster's ``cluster.json`` path, reloaded whenever a
    request lands on a non-owner (``421``) or an endpoint stops
    answering, or a fixed :class:`ClusterMap`.  :meth:`settle` redrives
    an event until it is done; the server's ``(item, time)`` dedupe
    makes the redrive exactly-once: however many times an event is
    sent, it is applied at most once and every send converges on the
    settled decision.

    ``hedge``: optional hedged-read delay (seconds).  When a send shows
    no response after the delay, a duplicate is fired on a *fresh*
    connection (again dedupe-safe) and the first settled answer wins —
    the standard tail-latency amputation under slow/lossy links.
    """

    def __init__(
        self,
        route: Union[str, ClusterMap],
        connect_timeout: Optional[float] = 2.0,
        read_timeout: Optional[float] = 5.0,
        hedge: Optional[float] = None,
    ):
        fixed = isinstance(route, ClusterMap)
        self.map_path: Optional[str] = None if fixed else route
        self.map: Optional[ClusterMap] = route if fixed else None
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.hedge = hedge
        self.refreshes = 0
        self.redrives = 0
        self.hedges = 0
        self._clients: Dict[Tuple[str, int], HttpClient] = {}

    def refresh(self) -> None:
        """Reload the routing map (keeps the old one on a torn read)."""
        if self.map_path is None:
            return  # a fixed route
        try:
            self.map = ClusterMap.load(self.map_path)
            self.refreshes += 1
        except (OSError, ValueError, KeyError):
            pass  # mid-rename or missing: retry with the stale map

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()
        self._clients.clear()

    async def _attempt(
        self, addr: Tuple[str, int], body: dict, fresh: bool
    ) -> Tuple[int, dict]:
        """One POST on ``addr``'s kept connection, or a fresh one closed after."""
        client = None if fresh else self._clients.get(addr)
        if client is None:
            client = HttpClient(
                addr[0], addr[1], self.connect_timeout, self.read_timeout
            )
            if not fresh:
                self._clients[addr] = client
        try:
            status, payload, _ = await client.request("POST", "/request", body)
        finally:
            if fresh:
                await client.close()
        return status, payload

    async def send(self, event: Event) -> Tuple[int, dict]:
        """One routed attempt (hedged when configured); may raise."""
        if self.map is None:
            self.refresh()
        if self.map is None:
            raise ConnectionError(f"no cluster map at {self.map_path}")
        item, t, server = event
        addr = self.map.endpoint_for(item)
        body = {"item": item, "time": t, "server": server}
        if self.hedge is None:
            return await self._attempt(addr, body, fresh=False)
        primary = asyncio.ensure_future(self._attempt(addr, body, fresh=True))
        done, _pending = await asyncio.wait({primary}, timeout=self.hedge)
        if primary in done:
            return primary.result()
        self.hedges += 1
        backup = asyncio.ensure_future(self._attempt(addr, body, fresh=True))
        tasks = {primary, backup}
        try:
            while tasks:
                done, tasks = await asyncio.wait(
                    tasks, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        return task.result()
            # Both attempts failed: surface the primary's error.
            return primary.result()
        finally:
            for task in (primary, backup):
                if not task.done():
                    task.cancel()

    async def settle(
        self,
        event: Event,
        result: Optional[LoadResult] = None,
        retries: int = 64,
        backoff: float = 0.05,
        rng: Optional[random.Random] = None,
    ) -> Optional[Tuple[int, dict]]:
        """Redrive ``event`` until it ends; ``None`` once ``retries`` run out.

        A 200 whose ``status`` is ``done`` settles it (a duplicate
        answer too).  Redriven with capped, jittered backoff: a
        transport failure (reset, refusal, timeout, a torn or refused
        answer), ``421`` (after a map refresh, as after a transport
        failure: a dead address usually means a failover is in flight),
        ``429``/``503`` sheds, and a 200 not yet done (``pending`` past
        its deadline).  Any other status ends the event too.  Returns
        the last ``(status, payload)``, so ``status == 200`` means
        settled.  ``result`` counts every answer and redrive, and the
        settled answer as accepted.
        """
        rng = rng if rng is not None else random.Random(4321)
        for attempt in range(retries + 1):
            try:
                status, payload = await self.send(event)
            except (OSError, asyncio.TimeoutError):
                status, payload = -1, {}
            settled = status == 200 and payload.get("status") == "done"
            if result is not None:
                result.count(status, payload, settled)
            if settled or status not in (200, 421, 429, 503, -1):
                return status, payload
            if status in (421, -1):
                self.refresh()
            if attempt < retries:
                self.redrives += 1
                if result is not None:
                    result.retries += 1
                pause = min(1.0, backoff * 2 ** min(attempt, 5))
                await asyncio.sleep(pause * (1 - 0.5 * rng.random()))
        return None


async def _run_lanes(
    route: Union[str, ClusterMap],
    events: Sequence[Event],
    concurrency: int,
    retries: int,
    backoff: float,
    connect_timeout: Optional[float],
    read_timeout: Optional[float],
    hedge: Optional[float] = None,
) -> LoadResult:
    """The closed loop: lane ``route_item(item, lanes)`` settles its
    events one at a time through :meth:`ClusterClient.settle`."""
    result = LoadResult()
    loop = asyncio.get_running_loop()
    started = loop.time()
    lanes = max(1, int(concurrency))
    queues: List[List[Event]] = [[] for _ in range(lanes)]
    for event in events:
        queues[route_item(event[0], lanes)].append(event)

    async def drain(lane: int) -> None:
        client = ClusterClient(route, connect_timeout, read_timeout, hedge)
        rng = random.Random(1000 + lane)
        try:
            for event in queues[lane]:
                sent_at = loop.time()
                answer = await client.settle(event, result, retries, backoff, rng)
                result.sent += 1
                if answer is None:
                    result.give_ups += 1
                elif answer[0] == 200:
                    result.latencies_ms.append((loop.time() - sent_at) * 1000.0)
        finally:
            await client.close()

    await asyncio.gather(*(drain(lane) for lane in range(lanes)))
    result.elapsed = loop.time() - started
    return result


async def run_cluster_load(
    map_path: str,
    events: Sequence[Event],
    concurrency: int = 4,
    retries: int = 64,
    backoff: float = 0.05,
    connect_timeout: Optional[float] = 2.0,
    read_timeout: Optional[float] = 5.0,
    hedge: Optional[float] = None,
    fetch_stats: bool = True,
) -> LoadResult:
    """Closed-loop cluster replay, routed by ``map_path``'s latest map.

    Every event is eventually applied exactly once (dedupe absorbs
    redrives and hedges), so the merged decision stream — and its
    digest — is independent of which replicas failed, when, or how
    often the client had to re-route.
    """
    result = await _run_lanes(
        map_path, events, concurrency, retries, backoff,
        connect_timeout, read_timeout, hedge,
    )
    if fetch_stats:
        result.stats = await cluster_stats(map_path)
    return result


async def cluster_stats(map_path: str, timeout: float = 5.0) -> dict:
    """Merged ``/stats`` view of the whole cluster.

    Gathers per-shard rows from every distinct endpoint in the map,
    keeps each shard's row from its *owning* replica, and recomputes the
    merged decision digest with the exact formula a single server
    covering all shards uses — so a cluster and a lone reference server
    over the same events produce comparable digests.
    """
    from ..runtime.digest import digest_value

    cmap = ClusterMap.load(map_path)
    by_addr: Dict[Tuple[str, int], List[int]] = {}
    for shard, addr in cmap.endpoints.items():
        by_addr.setdefault(addr, []).append(shard)
    rows: Dict[int, dict] = {}
    totals = {
        "optimal_cost": 0.0,
        "baseline_cost": 0.0,
        "processed": 0,
        "degraded_decisions": 0,
    }
    replicas = []
    for addr, shards in sorted(by_addr.items()):
        async with HttpClient(addr[0], addr[1], timeout, timeout) as client:
            _status, stats, _ = await client.request("GET", "/stats")
        owned = set(shards)
        for row in stats.get("shards", []):
            if row["shard"] in owned:
                rows[row["shard"]] = row
        replicas.append({"addr": list(addr), "requests": stats.get("requests")})
        # Replica-level gauges cover exactly its owned shards (ownership
        # is disjoint across live replicas), so plain sums merge them.
        totals["optimal_cost"] += float(stats.get("optimal_cost", 0.0))
        totals["baseline_cost"] += float(stats.get("baseline_cost", 0.0))
        totals["processed"] += int(stats.get("processed", 0))
        totals["degraded_decisions"] += int(stats.get("degraded_decisions", 0))
    ordered = [rows[s] for s in sorted(rows)]
    return {
        "epoch": cmap.epoch,
        "num_shards": cmap.num_shards,
        "shards": ordered,
        "replicas": replicas,
        "digest": digest_value(
            [(r["shard"], r["seq"], r["digest"]) for r in ordered]
        ),
        **totals,
    }


def replay_cluster(map_path: str, events: Sequence[Event], **kwargs) -> LoadResult:
    """Synchronous wrapper around :func:`run_cluster_load`."""
    return asyncio.run(run_cluster_load(map_path, events, **kwargs))
