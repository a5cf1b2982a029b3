"""The HTTP drivers against a stub server that stalls and refuses."""

from __future__ import annotations

import asyncio
import json

from perfbench.drive import (
    GIVE_UP_S,
    closed_loop,
    decode_batch,
    open_loop,
    percentile,
    request_bytes,
    windowed_percentile,
)

STALL_S = 0.2


def _answer(event: dict):
    """Stub decision for one event, keyed by its item name."""
    item = event["item"]
    if item == "refuse":
        return 503, {"error": "draining"}
    if item == "pending":
        return 200, {"status": "pending", "degraded": True, "decision": None}
    if item == "degraded":
        return 200, {"status": "done", "degraded": True, "decision": "transfer"}
    return 200, {"status": "done", "degraded": False, "decision": "cache"}


async def _stub(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Answers requests in order, like the real server, one at a time."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            path = line.split()[1].decode()
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b""):
                    break
                key, _, value = header.decode().partition(":")
                if key.lower() == "content-length":
                    length = int(value)
            body = json.loads(await reader.readexactly(length))
            if path == "/batch":
                results = []
                for event in body["events"]:
                    status, payload = _answer(event)
                    results.append({"status": status, **payload})
                status, payload = 200, {"results": results}
            else:
                if body["item"] == "stall":
                    await asyncio.sleep(STALL_S)
                status, payload = _answer(body)
            blob = json.dumps(payload).encode()
            writer.write(
                f"HTTP/1.1 {status} X\r\nContent-Length: {len(blob)}\r\n\r\n".encode() + blob
            )
            await writer.drain()
    finally:
        writer.close()


def _serve(test):
    async def main():
        server = await asyncio.start_server(_stub, "127.0.0.1", 0)
        try:
            return await test(server.sockets[0].getsockname()[1])
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def _send(item: str, due: float):
    return due, request_bytes("POST", "/request", {"item": item, "time": due, "server": 0})


def test_stall_delays_later_sends_from_their_schedule():
    items = ["ok", "stall", "ok", "ok", "ok"]
    lane = [_send(item, 0.01 * k) for k, item in enumerate(items)]
    stats = _serve(lambda port: open_loop("127.0.0.1", port, [lane]))
    assert stats.sends == 5 and stats.failed == 0
    first, stalled, *behind = stats.latencies_ms
    assert first < 100
    assert stalled >= STALL_S * 1e3
    # Queued behind the stall: each answered ~STALL_S after the stall's
    # own schedule, so latency from their later schedules shrinks by 10 ms.
    for k, latency in enumerate(behind, start=1):
        assert latency >= STALL_S * 1e3 - 10 * k - 5
    assert all(x >= 0 for x in stats.lateness_ms)


def test_refusals_and_partial_answers_are_misses():
    items = ["ok", "refuse", "pending", "degraded", "ok"]
    lane = [_send(item, 0.005 * k) for k, item in enumerate(items)]
    stats = _serve(lambda port: open_loop("127.0.0.1", port, [lane]))
    assert stats.sends == 5 and stats.failed == 3
    assert sorted(stats.latencies_ms)[-3:] == [GIVE_UP_S * 1e3] * 3
    assert percentile(stats.latencies_ms, 50) == GIVE_UP_S * 1e3
    assert stats.answers == {"done": 3, "503": 1, "pending": 1}


def test_warmup_sends_are_not_measured():
    lane = [_send("refuse", 0.0), _send("ok", 0.02), _send("ok", 0.03)]
    stats = _serve(lambda port: open_loop("127.0.0.1", port, [lane], measure_from=0.02))
    assert stats.sends == 2 and stats.failed == 0
    assert len(stats.latencies_ms) == len(stats.lateness_ms) == 2
    assert stats.due_s == [0.02, 0.03]


def test_windowed_percentile_ignores_a_bad_spell_in_few_windows():
    # Five 1-s windows of 100 samples at 1..100 ms; the fourth is 10x slower.
    at_s = [w + k / 100 for w in range(5) for k in range(100)]
    values = [(k + 1) * (10 if w == 3 else 1) for w in range(5) for k in range(100)]
    assert percentile(values, 90) == 500
    assert windowed_percentile(values, at_s, 90, 1.0) == 90
    # A spell in most windows moves it.
    slow = [v * 10 if t >= 2 else v for t, v in zip(at_s, values)]
    assert windowed_percentile(slow, at_s, 90, 1.0) == 900
    # Windows with few samples (ragged ends) are left out; counted, the
    # two slow ones below would make a slow window the median.
    at_s = [w + k / 100 for w in range(3) for k in range(100)] + [3.0, 3.1, 4.0, 4.1]
    values = [k + 1 for k in range(100)] * 2 + [10 * (k + 1) for k in range(100)] + [5000] * 4
    assert windowed_percentile(values, at_s, 90, 1.0) == 90


def test_unreachable_server_fails_every_send():
    async def closed_port(_port):
        server = await asyncio.start_server(_stub, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        return await open_loop("127.0.0.1", port, [[_send("ok", 0.0), _send("ok", 0.01)]])

    stats = _serve(closed_port)
    assert stats.sends == 2 and stats.failed == 2


def test_decode_batch_reads_the_overwritten_status():
    payload = {
        "results": [
            {"status": "done", "degraded": False, "decision": "cache"},
            {"status": 429, "error": "queue full"},
            {"status": "pending", "degraded": True},
            {"status": "done", "degraded": True},
            {"status": 200},
        ]
    }
    assert decode_batch(200, payload, 5) == [True, False, False, False, False]
    assert decode_batch(503, {"error": "draining"}, 3) == [False] * 3
    assert decode_batch(200, payload, 4) == [False] * 4


def test_closed_loop_counts_failed_events_per_call():
    def events(names):
        while True:
            for name in names:
                yield {"item": name, "time": 0.0, "server": 0}

    lanes = [events(["ok", "ok"]), events(["ok", "refuse"])]
    stats = _serve(lambda port: closed_loop("127.0.0.1", port, lanes, batch=4, calls=3))
    assert stats.sends == 24 and stats.failed == 6
    assert len(stats.latencies_ms) == 6
    assert sorted(stats.latencies_ms)[-3:] == [GIVE_UP_S * 1e3] * 3
    assert stats.answers == {"done": 18, "503": 6}
