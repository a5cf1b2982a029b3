"""Deterministic wire-level chaos proxy for the serving front-end.

A :class:`ChaosProxy` sits between clients and one upstream
:class:`~repro.service.server.CacheServer` (or anything speaking the
same tiny HTTP/1.1 dialect) and perturbs traffic according to a seeded
:class:`~repro.faults.plan.NetworkFaultPlan`:

* **latency/jitter** — requests are held before forwarding;
* **connection resets** — the client socket is aborted after a
  deterministic fraction of the response bytes has been relayed;
* **byte-level torn writes** — responses are written in small fragments
  with scheduler yields between them, exercising framing robustness;
* **duplicated requests** — the request is forwarded upstream twice and
  the extra response discarded, driving the server's exactly-once
  dedupe path from the *network* side;
* **reordered completions** — responses are held so concurrent
  connections overtake each other;
* **black-holes** — accepted requests stall (no response, no reset)
  while a black-hole window or the manual switch is active;
* **full partitions** — new connections are dropped on arrival and
  every live relay is aborted while a partition window or the manual
  switch is active.

Determinism: every per-message decision is a pure function of
``(plan.seed, connection_index, message_index)`` — see
:meth:`NetworkFaultPlan.perturbation` — so the same plan over the same
traffic injects the byte-identical perturbation sequence; a proxy with
an empty plan is byte-transparent (relayed bytes equal upstream bytes,
verbatim).  Window schedules are keyed to proxy uptime; the
:attr:`partition` / :attr:`blackhole` switches give chaos suites exact,
event-boundary control on top.

The proxy frames messages with the server's own head reader
(:func:`~repro.service.server._read_head`, ``Content-Length`` bodies,
the only dialect both ends of this repo speak) purely to find message
boundaries; the bytes it relays are the bytes it read, unmodified.  A
request the reader refuses is answered as the server would answer it
(same status, same body), then both sides are closed; so are both after
relaying an answer that carries ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Optional, Set, Tuple

from ..faults.plan import NetworkFaultPlan
from .server import _FramingError, _read_head, _render

__all__ = ["ChaosProxy", "run_proxy"]

#: Poll cadence (seconds) while a black-hole stalls a request.
_STALL_TICK = 0.01


async def _message(
    reader: asyncio.StreamReader, response: bool = False
) -> Optional[Tuple[bytes, bool]]:
    """One whole message (head + body), raw bytes as read, and whether
    the connection stays open after it (no ``Connection: close``).

    ``None`` when the stream ends before a whole head; a torn body
    raises ``asyncio.IncompleteReadError`` and refused framing
    :class:`~repro.service.server._FramingError`.
    """
    head = await _read_head(reader, response)
    if head is None:
        return None
    keep = head[2].get("connection", "keep-alive").lower() != "close"
    return head[4] + await reader.readexactly(head[3]), keep


class ChaosProxy:
    """Seeded TCP fault injector in front of one upstream server.

    Usage (in-process; the CLI wraps this via :func:`run_proxy`)::

        proxy = ChaosProxy("127.0.0.1", server_port, plan=plan)
        await proxy.start()
        ...                      # traffic against proxy.port
        proxy.partition = True   # manual chaos control (thread-safe flip)
        await proxy.stop()
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[NetworkFaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan if plan is not None else NetworkFaultPlan()
        self.host = host
        self._requested_port = port
        #: Manual switches, OR-ed with the plan's uptime windows.
        self.partition = False
        self.blackhole = False
        self.counters = {
            "connections": 0,
            "messages": 0,
            "delayed": 0,
            "duplicated": 0,
            "resets": 0,
            "torn": 0,
            "held": 0,
            "stalled": 0,
            "partition_drops": 0,
            "upstream_failures": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._t0 = 0.0
        self._conns = 0
        self._live: Set[asyncio.WriteTransport] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def uptime(self) -> float:
        return asyncio.get_running_loop().time() - self._t0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        self._t0 = asyncio.get_running_loop().time()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._abort_live()

    def _abort_live(self) -> None:
        """Hard-reset every in-flight relay (the partition fist)."""
        for transport in list(self._live):
            transport.abort()
        self._live.clear()

    def set_partition(self, on: bool) -> None:
        """Flip the manual partition switch; ``on`` aborts live relays."""
        self.partition = on
        if on:
            self._abort_live()

    # -- fault-state queries ---------------------------------------------------

    def _partition_active(self) -> bool:
        return self.partition or self.plan.partition_at(self.uptime())

    def _blackhole_active(self) -> bool:
        return self.blackhole or self.plan.blackhole_at(self.uptime())

    # -- the relay -------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._conns
        self._conns += 1
        self.counters["connections"] += 1
        if self._partition_active():
            self.counters["partition_drops"] += 1
            writer.transport.abort()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            self.counters["upstream_failures"] += 1
            writer.transport.abort()
            return
        self._live.add(writer.transport)
        self._live.add(up_writer.transport)
        try:
            await self._relay(conn, reader, writer, up_reader, up_writer)
        except (asyncio.IncompleteReadError, OSError, _FramingError):
            pass  # torn peer, refused answer or mid-relay abort: drop both
        finally:
            self._live.discard(writer.transport)
            self._live.discard(up_writer.transport)
            for w in (writer, up_writer):
                w.close()
                try:
                    await w.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _relay(
        self,
        conn: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        up_reader: asyncio.StreamReader,
        up_writer: asyncio.StreamWriter,
    ) -> None:
        msg = 0
        while True:
            try:
                got = await _message(reader)
            except _FramingError as exc:
                writer.write(_render(exc.status, {"error": str(exc)}, [], False))
                await writer.drain()
                return
            if got is None:
                return
            request = got[0]
            if self._partition_active():
                writer.transport.abort()
                up_writer.transport.abort()
                return
            while self._blackhole_active():
                # Accept-then-stall: the request is read but never
                # answered until the hole closes (the client's timeout
                # path is what this exercises).
                self.counters["stalled"] += 1
                await asyncio.sleep(_STALL_TICK)
            p = self.plan.perturbation(conn, msg)
            self.counters["messages"] += 1
            msg += 1
            if p.delay > 0.0:
                self.counters["delayed"] += 1
                await asyncio.sleep(p.delay)
            up_writer.write(request)
            await up_writer.drain()
            if p.duplicate:
                self.counters["duplicated"] += 1
                up_writer.write(request)
                await up_writer.drain()
            got = await _message(up_reader, response=True)
            if got is None:
                writer.transport.abort()
                return
            response, keep = got
            if p.duplicate:
                # The server answered the duplicate too; swallow it so
                # the client's request/response pairing stays intact.
                extra = await _message(up_reader, response=True)
                if extra is None:
                    writer.transport.abort()
                    return
            if p.hold > 0.0:
                self.counters["held"] += 1
                await asyncio.sleep(p.hold)
            if p.reset_frac is not None:
                self.counters["resets"] += 1
                cut = int(p.reset_frac * len(response))
                if cut:
                    writer.write(response[:cut])
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                writer.transport.abort()
                up_writer.transport.abort()
                return
            if p.fragment is not None:
                self.counters["torn"] += 1
                for i in range(0, len(response), p.fragment):
                    writer.write(response[i : i + p.fragment])
                    await writer.drain()
                    await asyncio.sleep(0)
            else:
                writer.write(response)
                await writer.drain()
            if not keep:
                return  # the server closes after this answer: so does the relay


def run_proxy(
    upstream_host: str,
    upstream_port: int,
    plan: Optional[NetworkFaultPlan] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    meta_path: Optional[str] = None,
) -> int:
    """Blocking CLI entry: relay until SIGTERM/SIGINT, then stop."""

    async def _main() -> int:
        proxy = ChaosProxy(
            upstream_host, upstream_port, plan=plan, host=host, port=port
        )
        await proxy.start()
        if meta_path is not None:
            Path(meta_path).write_text(
                json.dumps({"host": host, "port": proxy.port}) + "\n"
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"chaos proxy on {host}:{proxy.port} -> "
            f"{upstream_host}:{upstream_port} "
            f"[{(plan or NetworkFaultPlan()).describe()}]",
            flush=True,
        )
        await stop.wait()
        await proxy.stop()
        print(f"proxy stopped: {proxy.counters}", flush=True)
        return 0

    return asyncio.run(_main())
