"""Live request-serving front-end tests.

Property families:

* **decision correctness** — wire decisions/costs equal the streaming
  DP's prefix-optimal choices computed independently;
* **exactly-once** — duplicate resends are answered from the decision
  index (never re-applied), stale non-duplicates are 409s;
* **block admission** — ``/batch`` queues all of its events before it
  awaits any, yet answers every event as ``/request`` would, for any
  split of an event stream into batches; bad events are 400s before
  anything is queued;
* **degradation ladder** — watermark degrades, full queue sheds 429 +
  ``Retry-After``, drain/breaker sheds 503; deadline expiry yields a
  degraded-partial that later settles;
* **resume** — a restarted server replays its journals to the same
  merged decision digest as an uninterrupted run, including after a real
  subprocess SIGKILL mid-load (chaos suite);
* **bounded memory** — an open loop at twice the closed-loop capacity
  against a 32-deep queue grows a server subprocess's RSS by less than
  200,000 KiB, and SIGTERM drains it with exit 0.

Tests drive the server in-process inside one event loop per test
(``asyncio.run`` on a scenario coroutine) — no pytest-asyncio needed.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.types import CostModel
from repro.offline.streaming import StreamingSolver
from repro.runtime.journal import JournalCorruptError
from repro.service.loadgen import (
    HttpClient,
    replay,
    run_load,
    synthetic_events,
)
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    CacheServer,
    ServerConfig,
    _FramingError,
    _read_head,
    route_item,
)


def scenario(coro_fn):
    """Run an async scenario to completion on a fresh loop."""
    return asyncio.run(coro_fn())


async def post_event(client, item, time, server, **extra):
    body = {"item": item, "time": time, "server": server, **extra}
    return await client.request("POST", "/request", body)


async def post_batch(client, events, **extra):
    body = {
        "events": [
            {"item": item, "time": time, "server": server, **extra}
            for item, time, server in events
        ]
    }
    return await client.request("POST", "/batch", body)


class TestDecisions:
    def test_wire_decisions_match_streaming_solver(self, tmp_path):
        events = synthetic_events(items=5, count=120, num_servers=6, seed=3)

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=3, num_servers=6)
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            responses = []
            for item, t, s in events:
                status, payload, _ = await post_event(client, item, t, s)
                assert status == 200, payload
                responses.append(payload)
            await client.close()
            await server.shutdown()
            return responses

        responses = scenario(run)
        # Recompute ground truth per item with independent solvers.
        solvers = {}
        cost = CostModel(mu=1.0, lam=1.0)
        for (item, t, s), payload in zip(events, responses):
            solver = solvers.setdefault(
                item, StreamingSolver(6, cost=cost, origin=0)
            )
            prev_t, prev_c = solver.t[-1], solver.C[-1]
            total = solver.append(t, s)
            via_transfer = prev_c + cost.mu * (t - prev_t) + cost.lam
            expected = "cache" if solver.D[-1] <= via_transfer else "transfer"
            assert payload["decision"] == expected, (item, t, payload)
            assert payload["cost"] == total - prev_c
            assert payload["item_cost"] == total
            assert payload["degraded"] is False

    def test_stats_gauges(self, tmp_path):
        events = synthetic_events(items=4, count=80, num_servers=6, seed=9)

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=2, num_servers=6)
            )
            await server.start()
            await run_load(
                server.config.host, server.port, events, concurrency=2
            )
            client = HttpClient(server.config.host, server.port)
            _, stats, _ = await client.request("GET", "/stats")
            _, offline, _ = await client.request("GET", "/offline")
            await client.close()
            await server.shutdown()
            return stats, offline

        stats, offline = scenario(run)
        assert stats["processed"] == len(events)
        assert stats["requests"]["accepted"] == len(events)
        # Savings vs always-transfer is nonnegative: optimal <= baseline.
        assert stats["optimal_cost"] <= stats["baseline_cost"] + 1e-9
        assert offline["match"] is True
        assert offline["streaming_total"] == pytest.approx(
            stats["optimal_cost"]
        )


class TestExactlyOnce:
    def test_duplicate_resend_not_reapplied(self, tmp_path):
        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=2)
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            _, first, _ = await post_event(client, "x", 1.0, 2)
            _, stats1, _ = await client.request("GET", "/stats")
            _, dup, _ = await post_event(client, "x", 1.0, 2)
            _, stats2, _ = await client.request("GET", "/stats")
            await client.close()
            await server.shutdown()
            return first, dup, stats1, stats2

        first, dup, stats1, stats2 = scenario(run)
        assert dup["duplicate"] is True
        assert dup["decision"] == first["decision"]
        assert dup["seq"] == first["seq"]
        # State did not advance: same digest, same processed count.
        assert stats2["digest"] == stats1["digest"]
        assert stats2["processed"] == stats1["processed"]
        assert stats2["requests"]["duplicates"] == 1

    def test_stale_event_conflicts(self, tmp_path):
        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1)
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            await post_event(client, "x", 5.0, 1)
            status, payload, _ = await post_event(client, "x", 3.0, 2)
            await client.close()
            await server.shutdown()
            return status, payload

        status, payload = scenario(run)
        assert status == 409
        assert "stale" in payload["error"]

    def test_bad_event_rejected(self, tmp_path):
        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1)
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            status, payload, _ = await client.request(
                "POST", "/request", {"item": "x"}
            )
            status2, _, _ = await client.request(
                "POST", "/request", {"item": "x", "time": 1.0, "server": 99}
            )
            await client.close()
            await server.shutdown()
            return status, payload, status2

        status, payload, status2 = scenario(run)
        assert status == 400
        # Out-of-range server is refused at admission.
        assert status2 == 400


def raw_exchange(*requests: bytes):
    """Send each raw request on its own connection; ``(status, head)`` each.

    Reads every reply to EOF, so a case passes only if the server both
    answers and closes.
    """

    async def run():
        server = CacheServer(ServerConfig(shards=1))
        await server.start()
        replies = []
        try:
            for raw in requests:
                reader, writer = await asyncio.open_connection(
                    server.config.host, server.port
                )
                writer.write(raw)
                await writer.drain()
                replies.append(await asyncio.wait_for(reader.read(), 5.0))
                writer.close()
                await writer.wait_closed()
        finally:
            await server.shutdown()
        return replies

    out = []
    for reply in scenario(run):
        head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        out.append((int(head.split()[1]), head))
    return out


#: Header lines for the head-reader fuzz: arbitrary bytes, Content-Length
#: values of any digit count (and near-misses), lines around the line cap.
_HEADER_LINES = st.one_of(
    st.binary(max_size=60).filter(lambda b: b"\n" not in b),
    st.builds(
        lambda key, value: key + b": " + value.encode(),
        st.sampled_from([b"Content-Length", b"content-length", b"Host"]),
        st.text(alphabet="0123456789 -+x", max_size=12),
    ),
    st.integers(1, 6000).map(lambda n: b"Content-Length: " + b"9" * n),
    st.integers(MAX_LINE_BYTES - 16, MAX_LINE_BYTES + 16).map(
        lambda n: b"X: " + b"a" * n
    ),
)


def stats_request(*header_lines: str) -> bytes:
    lines = ["GET /stats HTTP/1.1", *header_lines, "Connection: close"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestHttpFraming:
    """Framing is validated at the boundary: answered, then closed."""

    def test_malformed_content_length_is_400(self):
        bad = ["abc", "-5", "1e3", "0x10", "5 5"]
        replies = raw_exchange(
            *(
                f"POST /request HTTP/1.1\r\nContent-Length: {v}\r\n\r\n".encode()
                for v in bad
            )
        )
        for status, head in replies:
            assert status == 400
            assert "Connection: close" in head

    def test_body_over_cap_is_413_without_reading_it(self):
        # No body bytes follow the head: a server that tried to read the
        # declared body would wait, and the read would time out.
        (status, head), = raw_exchange(
            f"POST /batch HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        assert status == 413
        assert "Connection: close" in head

    def test_header_lines_over_caps_are_431(self):
        at_cap = "X-Pad: " + "a" * (MAX_LINE_BYTES - len("X-Pad: \r\n"))
        replies = raw_exchange(
            stats_request(at_cap),
            stats_request(at_cap + "a"),
            stats_request(*["X-Pad: a"] * (MAX_HEADER_LINES - 1)),
            stats_request(*["X-Pad: a"] * MAX_HEADER_LINES),
        )
        assert [status for status, _ in replies] == [200, 431, 200, 431]

    def test_request_line_over_cap_is_414(self):
        path = "/stats?" + "a" * MAX_LINE_BYTES
        (status, _), = raw_exchange(f"GET {path} HTTP/1.1\r\n\r\n".encode())
        assert status == 414

    @given(
        st.one_of(
            st.binary(max_size=512),
            st.builds(
                lambda first, lines, end: b"\r\n".join([first, *lines]) + end,
                st.one_of(st.just(b"POST /batch HTTP/1.1"), st.binary(max_size=40)),
                st.lists(_HEADER_LINES, max_size=8),
                st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""]),
            ),
        )
    )
    @example(b"POST /batch HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n")
    @example(b"POST /batch HTTP/1.1\r\nContent-Length: " + b"0" * 5000 + b"7\r\n\r\n")
    @example(b"GET /stats HTTP/1.1\r\n" + b"X: a\r\n" * (MAX_HEADER_LINES + 1) + b"\r\n")
    @settings(max_examples=300, deadline=None)
    def test_read_head_over_any_bytes(self, data):
        # The head reader either finds no request, frames one within the
        # body cap, or refuses with one of its four statuses; no other
        # outcome, even for more digits than int() will parse.
        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await _read_head(reader)

        try:
            head = asyncio.run(read())
        except _FramingError as exc:
            assert exc.status in (400, 413, 414, 431)
            return
        if head is not None:
            assert 0 <= head[3] <= MAX_BODY_BYTES


class TestClientFraming:
    """The client reads answers with the server's head reader: a torn or
    refused answer is a ``ConnectionError``, which every retry loop
    redrives, never a status or payload."""

    @pytest.mark.parametrize(
        "answer",
        [
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n",
            b"HTTP/1.1 20",
            b"HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\n{}",
        ],
        ids=["torn-head", "cut-status", "length-12abc", "length-minus-3"],
    )
    def test_torn_or_refused_answer_is_connection_error(self, answer):
        async def stub(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(answer)
            await writer.drain()
            writer.close()

        async def run():
            upstream = await asyncio.start_server(stub, "127.0.0.1", 0)
            port = upstream.sockets[0].getsockname()[1]
            client = HttpClient("127.0.0.1", port, read_timeout=5.0)
            try:
                with pytest.raises(ConnectionError):
                    await client.request("GET", "/stats")
            finally:
                await client.close()
                upstream.close()
                await upstream.wait_closed()

        scenario(run)


class TestDegradationLadder:
    def test_queue_full_sheds_429_with_retry_after(self, tmp_path):
        async def run():
            config = ServerConfig(
                journal_dir=str(tmp_path),
                shards=1,
                queue_depth=2,
                degrade_watermark=1.0,
            )
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate  # hold the worker: queue stays full
            await server.start()
            client = HttpClient(server.config.host, server.port)
            # Fill the queue (responses pend), then overflow it.
            pending = [
                asyncio.create_task(
                    post_event(HttpClient(config.host, server.port), "x", t, 0)
                )
                for t in (1.0, 2.0)
            ]
            await asyncio.sleep(0.05)
            status, payload, headers = await post_event(client, "x", 3.0, 0)
            assert status == 429, payload
            assert "retry-after" in headers
            gate.set()
            done = await asyncio.gather(*pending)
            statuses = [d[0] for d in done]
            await client.close()
            await server.shutdown()
            return statuses, server.counters["shed_429"]

        statuses, shed = scenario(run)
        assert statuses == [200, 200]
        assert shed == 1

    @staticmethod
    def load_behind_a_held_queue(tmp_path, events, **load):
        """``run_load`` against one shard of depth 1 whose worker is held
        for 0.3 s, so every send but one in that window is shed."""

        async def run():
            config = ServerConfig(
                journal_dir=str(tmp_path), shards=1, queue_depth=1
            )
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            asyncio.get_running_loop().call_later(0.3, gate.set)
            res = await run_load(
                config.host, server.port, events, fetch_stats=False, **load
            )
            await server.shutdown()
            return res.to_dict()

        return scenario(run)

    def test_closed_loop_redriven_sheds_are_no_shed_events(self, tmp_path):
        events = synthetic_events(items=16, count=200, num_servers=4, seed=0)
        report = self.load_behind_a_held_queue(
            tmp_path, events, concurrency=16, retries=64
        )
        assert report["accepted"] == 200 and report["give_ups"] == 0
        statuses = report["statuses"]
        assert report["shed_answers"] == (
            statuses.get("429", 0) + statuses.get("503", 0)
        ) > 0
        assert report["shed_events"] == 0
        assert report["shed_rate"] == 0.0

    def test_open_loop_shed_events_are_its_shed_answers(self, tmp_path):
        events = synthetic_events(items=4, count=20, num_servers=4, seed=0)
        report = self.load_behind_a_held_queue(tmp_path, events, rate=200.0)
        assert report["shed_events"] == report["shed_answers"] > 0
        assert report["shed_rate"] == report["shed_events"] / report["sent"]

    def test_watermark_degrades_to_cheapest_feasible(self, tmp_path):
        async def run():
            config = ServerConfig(
                journal_dir=str(tmp_path),
                shards=1,
                queue_depth=4,
                degrade_watermark=0.5,
            )
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            tasks = [
                asyncio.create_task(
                    post_event(HttpClient(config.host, server.port), "x", t, 0)
                )
                for t in (1.0, 2.0, 3.0, 4.0)
            ]
            await asyncio.sleep(0.05)
            gate.set()
            done = await asyncio.gather(*tasks)
            await server.shutdown()
            return [d[1] for d in done]

        payloads = scenario(run)
        flags = [p["degraded"] for p in payloads]
        # Depths 0,1 are below the watermark (2), depths 2,3 at/above it.
        assert flags == [False, False, True, True]
        for p in payloads[2:]:
            assert p["decision"] == "transfer"
            assert p["cost"] == 1.0  # lam: cheapest feasible, DP untouched

    def test_deadline_expiry_degraded_partial_then_settles(self, tmp_path):
        async def run():
            config = ServerConfig(journal_dir=str(tmp_path), shards=1)
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            client = HttpClient(server.config.host, server.port)
            status, partial, _ = await post_event(
                client, "x", 1.0, 0, deadline_ms=50
            )
            gate.set()
            await asyncio.sleep(0.05)  # let the accepted event settle
            status2, settled, _ = await post_event(client, "x", 1.0, 0)
            await client.close()
            await server.shutdown()
            return status, partial, status2, settled, dict(server.counters)

        status, partial, status2, settled, counters = scenario(run)
        assert status == 200
        assert partial["degraded"] is True
        assert partial["status"] == "pending"
        assert partial["decision"] is None
        assert counters["deadline_expired"] == 1
        # The resend finds the event settled with a real decision.
        assert status2 == 200
        assert settled["status"] == "done"
        assert settled["duplicate"] is True
        assert settled["decision"] in ("cache", "transfer")

    def test_drain_sheds_503_and_health_endpoints(self, tmp_path):
        async def run():
            config = ServerConfig(journal_dir=str(tmp_path), shards=1)
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            client = HttpClient(server.config.host, server.port)
            h_status, h_body, _ = await client.request("GET", "/healthz")
            r_status, r_body, _ = await client.request("GET", "/readyz")
            # Start draining while the worker is held: admission closes.
            drain = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0.02)
            nr_status, nr_body, nr_headers = await client.request(
                "GET", "/readyz"
            )
            p_status, p_body, _ = await post_event(client, "x", 1.0, 0)
            await client.close()
            gate.set()
            await drain
            return (h_status, h_body, r_status, r_body,
                    nr_status, nr_headers, p_status, p_body)

        (h_status, h_body, r_status, r_body,
         nr_status, nr_headers, p_status, p_body) = scenario(run)
        assert (h_status, h_body["ok"]) == (200, True)
        assert (r_status, r_body["ready"]) == (200, True)
        assert nr_status == 503
        assert "retry-after" in nr_headers
        assert p_status == 503
        assert "draining" in p_body["error"]


class TestResume:
    def test_restart_resumes_to_identical_digest(self, tmp_path):
        events = synthetic_events(items=4, count=60, num_servers=6, seed=11)
        cut = 25
        dir_a = tmp_path / "killed"
        dir_b = tmp_path / "reference"

        async def run():
            config = ServerConfig(
                journal_dir=str(dir_a), shards=2, num_servers=6
            )
            # First life: events[:cut], then clean shutdown (the
            # subprocess SIGKILL variant is TestChaosKillResume).
            server = CacheServer(config)
            await server.start()
            await run_load(
                config.host, server.port, events[:cut], concurrency=1,
                fetch_stats=False,
            )
            await server.shutdown()

            resumed = CacheServer(
                ServerConfig(
                    journal_dir=str(dir_a), shards=2, num_servers=6,
                    resume=True,
                )
            )
            await resumed.start()
            assert resumed.replayed_events == cut
            await run_load(
                resumed.config.host, resumed.port, events[cut:],
                concurrency=1, fetch_stats=False,
            )
            client = HttpClient(resumed.config.host, resumed.port)
            _, stats_resumed, _ = await client.request("GET", "/stats")
            await client.close()
            await resumed.shutdown()

            reference = CacheServer(
                ServerConfig(journal_dir=str(dir_b), shards=2, num_servers=6)
            )
            await reference.start()
            await run_load(
                reference.config.host, reference.port, events,
                concurrency=1, fetch_stats=False,
            )
            client = HttpClient(reference.config.host, reference.port)
            _, stats_ref, _ = await client.request("GET", "/stats")
            await client.close()
            await reference.shutdown()
            return stats_resumed, stats_ref

        stats_resumed, stats_ref = scenario(run)
        assert stats_resumed["digest"] == stats_ref["digest"]
        assert stats_resumed["optimal_cost"] == stats_ref["optimal_cost"]
        assert [s["seq"] for s in stats_resumed["shards"]] == [
            s["seq"] for s in stats_ref["shards"]
        ]

    def test_resume_replays_degraded_events_identically(self, tmp_path):
        async def run():
            config = ServerConfig(
                journal_dir=str(tmp_path), shards=1, queue_depth=4,
                degrade_watermark=0.5,
            )
            server = CacheServer(config)
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            tasks = [
                asyncio.create_task(
                    post_event(HttpClient(config.host, server.port), "x", t, 0)
                )
                for t in (1.0, 2.0, 3.0, 4.0)
            ]
            await asyncio.sleep(0.05)
            gate.set()
            await asyncio.gather(*tasks)
            digest = server.shards[0].digest
            degraded = server.shards[0].degraded
            await server.shutdown()

            resumed = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=1, queue_depth=4,
                    degrade_watermark=0.5, resume=True,
                )
            )
            await resumed.start()
            out = (
                digest, degraded,
                resumed.shards[0].digest, resumed.shards[0].degraded,
            )
            await resumed.shutdown()
            return out

        digest, degraded, r_digest, r_degraded = scenario(run)
        assert degraded == 2  # the watermark kicked in for depths 2,3
        assert r_digest == digest
        assert r_degraded == degraded

    def test_resume_divergence_detected(self, tmp_path):
        from repro.runtime.supervisor import ResumeDivergenceError

        async def run():
            config = ServerConfig(journal_dir=str(tmp_path), shards=1)
            server = CacheServer(config)
            await server.start()
            client = HttpClient(config.host, server.port)
            for t in (1.0, 2.0, 3.0):
                await post_event(client, "x", t, 0)
            await client.close()
            await server.shutdown()

        scenario(run)
        # Corrupt one journaled event (same shape, different content).
        path = tmp_path / "shard-0.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["server"] = (record["server"] + 1) % 8
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

        async def resume():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, resume=True)
            )
            await server.start()

        with pytest.raises(ResumeDivergenceError, match="diverged"):
            scenario(resume)


def write_journal(path, events, **config):
    """One server life over ``events`` on one shard; the shard's WAL."""

    async def run():
        server = CacheServer(ServerConfig(journal_dir=str(path), **config))
        await server.start()
        client = HttpClient(server.config.host, server.port)
        for event in events:
            status, _, _ = await post_event(client, *event)
            assert status == 200
        await client.close()
        await server.shutdown()

    scenario(run)
    return path / "shard-0.jsonl"


def edit_record(path, seq, drop=(), **changes):
    """Rewrite journal record ``seq`` in place (same line, new content)."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[seq])
    for name in drop:
        del record[name]
    record.update(changes)
    lines[seq] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def resume_server(path, **config):
    """Start a resuming server on ``path``; its replayed-event count."""

    async def run():
        server = CacheServer(
            ServerConfig(journal_dir=str(path), resume=True, **config)
        )
        await server.start()
        await server.shutdown()
        return server.replayed_events

    return scenario(run)


#: Three events on one shard: seq 1 and 2 on item "x", seq 3 on "y".
EVENTS = (("x", 1.0, 0), ("x", 2.0, 1), ("y", 3.0, 2))


class TestResumeChecks:
    """Resume refuses a WAL that does not match its config or is malformed."""

    @pytest.mark.parametrize(
        "field, config",
        [
            ("shards", {"shards": 2}),
            ("m", {"num_servers": 4}),
            ("mu", {"mu": 3.0}),
            ("lam", {"lam": 9.0}),
        ],
        ids=["shards", "m", "mu", "lam"],
    )
    def test_config_change_refused(self, tmp_path, field, config):
        from repro.runtime.supervisor import ResumeDivergenceError

        write_journal(tmp_path, EVENTS, shards=1)
        resumed = {"shards": 1, **config}
        with pytest.raises(ResumeDivergenceError, match=f"begin {field}="):
            resume_server(tmp_path, **resumed)
        # The unchanged config still resumes every event.
        assert resume_server(tmp_path, shards=1) == len(EVENTS)

    def test_begin_only_journal_checks_the_config(self, tmp_path):
        # No event to diverge on: only the begin record can tell.
        from repro.runtime.supervisor import ResumeDivergenceError

        write_journal(tmp_path, (), shards=1)
        with pytest.raises(ResumeDivergenceError, match="begin m=8 .* m=4"):
            resume_server(tmp_path, shards=1, num_servers=4, mu=3.0, lam=9.0)

    @pytest.mark.parametrize(
        "field, drop, changes",
        [
            ("shard", (), {"shard": 1}),
            ("mu", ("mu",), {}),
            ("m", (), {"m": "8"}),
            ("lam", (), {"lam": None}),
        ],
        ids=["other-shard", "missing-mu", "str-m", "null-lam"],
    )
    def test_begin_field_mismatch_named(self, tmp_path, field, drop, changes):
        from repro.runtime.supervisor import ResumeDivergenceError

        path = write_journal(tmp_path, EVENTS, shards=1)
        edit_record(path, 0, drop=drop, **changes)
        with pytest.raises(ResumeDivergenceError, match=f"begin {field}="):
            resume_server(tmp_path, shards=1)

    @pytest.mark.parametrize(
        "field, drop, changes",
        [
            ("item", ("item",), {}),
            ("item", (), {"item": 5}),
            ("time", ("time",), {}),
            ("time", (), {"time": "2.0"}),
            ("time", (), {"time": float("inf")}),
            ("time", (), {"time": float("nan")}),
            ("server", (), {"server": 8}),
            ("server", (), {"server": -1}),
            ("server", (), {"server": 1.0}),
            ("server", (), {"server": True}),
            ("kind", (), {"kind": "crash"}),
            ("kind", (), {"kind": "begin"}),
            ("kind", ("kind",), {}),
        ],
        ids=[
            "missing-item",
            "int-item",
            "missing-time",
            "str-time",
            "inf-time",
            "nan-time",
            "server-m",
            "negative-server",
            "float-server",
            "bool-server",
            "crash-kind",
            "second-begin",
            "missing-kind",
        ],
    )
    def test_malformed_record_refused(self, tmp_path, field, drop, changes):
        path = write_journal(tmp_path, EVENTS, shards=1)
        edit_record(path, 2, drop=drop, **changes)
        with pytest.raises(JournalCorruptError, match=f"seq 2: bad field '{field}'"):
            resume_server(tmp_path, shards=1)

    def test_server_outside_a_smaller_fleet_refused(self, tmp_path):
        # An event on server 6 with begin's m edited to match a 4-server
        # config: the record, not the solver, is what fails.
        path = write_journal(tmp_path, (("x", 1.0, 6),), shards=1)
        edit_record(path, 0, m=4)
        with pytest.raises(JournalCorruptError, match="seq 1: bad field 'server'"):
            resume_server(tmp_path, shards=1, num_servers=4)

    def test_out_of_order_time_refused(self, tmp_path):
        path = write_journal(tmp_path, EVENTS, shards=1)
        edit_record(path, 2, time=0.5)  # before seq 1's time on item "x"
        with pytest.raises(JournalCorruptError, match="seq 2: field 'time'"):
            resume_server(tmp_path, shards=1)

    def test_first_record_must_be_begin(self, tmp_path):
        path = write_journal(tmp_path, EVENTS, shards=1)
        edit_record(path, 0, kind="request")
        with pytest.raises(JournalCorruptError, match="seq 0: field 'kind'"):
            resume_server(tmp_path, shards=1)

    def test_acquire_of_a_corrupt_wal_is_500(self, tmp_path):
        # JournalCorruptError is a ValueError, yet /admin/acquire must
        # answer it like a divergence (500), not like a bad index (400).
        assert {route_item(item, 2) for item, _, _ in EVENTS} == {1}
        write_journal(tmp_path, EVENTS, shards=2, owned_shards=(1,))
        edit_record(tmp_path / "shard-1.jsonl", 2, drop=("item",))

        async def run():
            survivor = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=2, owned_shards=(0,),
                    meta_name="survivor.json",
                )
            )
            await survivor.start()
            client = HttpClient(survivor.config.host, survivor.port)
            answer = await client.request("POST", "/admin/acquire", {"shard": 1})
            await client.close()
            owned = sorted(survivor.shards)
            errors = survivor.counters["errors"]
            await survivor.shutdown()
            return answer, owned, errors

        (status, payload, _), owned, errors = scenario(run)
        assert status == 500
        assert payload["error"].startswith("acquire failed")
        assert "seq 2: bad field 'item'" in payload["error"]
        assert owned == [0] and errors == 1


class TestChaosKillResume:
    def test_subprocess_sigkill_resumes_bit_identically(self, tmp_path):
        """Real SIGKILL against a server subprocess (2 seeded points)."""
        from repro.faults.chaos import server_kill_resume_suite

        events = synthetic_events(items=4, count=40, num_servers=6, seed=2)
        outcomes = server_kill_resume_suite(
            events,
            kill_points=2,
            base_seed=0,
            shards=2,
            num_servers=6,
            work_dir=str(tmp_path),
        )
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.ok, o.violations
            assert o.digest == o.reference_digest
            assert o.replayed >= o.kill_seq


def _rss_kb(pid: int) -> int:
    """VmRSS of ``pid`` in KiB, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS line for pid {pid}")


def _spawn_overload_server(journal_dir):
    """``serve --no-sync`` with a 32-deep queue; blocks until bound."""
    meta = journal_dir / "server.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--journal-dir", str(journal_dir), "--shards", "2", "-m", "8",
            "--no-sync", "--queue-depth", "32", "--deadline-ms", "250",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        assert proc.poll() is None, f"server died (rc {proc.returncode})"
        if meta.exists():
            try:
                info = json.loads(meta.read_text())
            except json.JSONDecodeError:
                continue  # mid-write
            return proc, info["host"], info["port"]
        time.sleep(0.02)
    proc.kill()
    raise AssertionError("server did not bind before the deadline")


def _drain(proc):
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0, "SIGTERM drain did not exit 0"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc"
)
class TestOverload:
    def test_rss_bounded_at_twice_capacity(self, tmp_path):
        """Open loop at 2x the closed-loop capacity against a 32-deep
        queue: admission control bounds the backlog, so the server's RSS
        grows by less than 200,000 KiB."""
        proc, host, port = _spawn_overload_server(tmp_path / "capacity")
        try:
            capacity = replay(
                host, port, synthetic_events(6, 240, 8, seed=101), concurrency=8
            )
        finally:
            _drain(proc)
        assert capacity.give_ups == 0
        rate = max(50.0, 2.0 * capacity.sent / capacity.elapsed)

        events = synthetic_events(6, 304, 8, seed=300)
        proc, host, port = _spawn_overload_server(tmp_path / "overload")
        try:
            replay(host, port, events[:4], fetch_stats=False)  # warm-up
            rss_before = _rss_kb(proc.pid)
            overload = replay(host, port, events[4:], rate=rate, concurrency=8)
            rss_after = _rss_kb(proc.pid)
        finally:
            _drain(proc)
        assert overload.sent == 300
        assert rss_after - rss_before < 200_000


class TestRouting:
    def test_route_item_validates(self):
        with pytest.raises(ValueError, match="shards"):
            route_item("x", 0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="queue_depth"):
            ServerConfig(queue_depth=0)
        with pytest.raises(ValueError, match="degrade_watermark"):
            ServerConfig(degrade_watermark=1.5)
        with pytest.raises(ValueError, match="resume"):
            ServerConfig(resume=True)
        with pytest.raises(ValueError):
            ServerConfig(deadline_ms=-1.0)


class TestDedupeWindow:
    """Bounded ``(item, time)`` dedupe map (memory-growth regression)."""

    def test_index_stays_bounded_and_evicted_resends_409(self, tmp_path):
        """Unbounded, the decision index grows with every event ever
        applied; with a window it tracks only the recent past, and a
        resend from beyond the window gets the stale-event 409."""
        count = 200

        async def run():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=1, num_servers=4,
                    dedupe_window=10.0,
                )
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            for i in range(1, count + 1):
                status, payload, _ = await post_event(
                    client, "hot", float(i), i % 4
                )
                assert status == 200, payload
            shard = server.shards[0]
            # Window [frontier - 10, frontier] holds ~11 live entries —
            # two orders of magnitude under the unbounded count.
            assert len(shard.index_by_key) <= 12
            assert len(shard.dedupe_order) == len(shard.index_by_key)
            assert shard.evicted_horizon >= count - 13

            # In-window resend: still answered from the decision index.
            status, payload, _ = await post_event(
                client, "hot", float(count), count % 4
            )
            assert status == 200 and payload["duplicate"]
            # Evicted resend: indistinguishable from stale, so 409.
            status, payload, _ = await post_event(client, "hot", 1.0, 1)
            assert status == 409
            assert "dedupe window" in payload["error"]
            await client.close()
            await server.shutdown()

        scenario(run)

    def test_window_does_not_change_decisions(self, tmp_path):
        """The window bounds the *dedupe* map only: decision streams and
        digests are identical with and without it."""
        events = synthetic_events(items=4, count=120, num_servers=6, seed=21)

        async def digest_with(window, jdir):
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(jdir), shards=2, num_servers=6,
                    dedupe_window=window,
                )
            )
            await server.start()
            res = await run_load(
                server.config.host, server.port, events, concurrency=2
            )
            await server.shutdown()
            return res.stats["digest"]

        async def run():
            bounded = await digest_with(0.5, tmp_path / "bounded")
            unbounded = await digest_with(None, tmp_path / "unbounded")
            assert bounded == unbounded

        scenario(run)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="dedupe_window"):
            ServerConfig(dedupe_window=0.0)
        with pytest.raises(ValueError, match="owned_shards"):
            ServerConfig(shards=2, owned_shards=(5,))


class TestEventValidation:
    """Bad events are answered 400 at admission: never queued or counted."""

    def test_bad_events_are_400_before_anything_is_queued(self, tmp_path):
        bad = [
            {"item": "x", "time": float("nan"), "server": 1},
            {"item": "x", "time": float("inf"), "server": 1},
            {"item": "x", "time": 10**400, "server": 1},
            {"item": "x", "time": 0.0, "server": 1},
            {"item": "x", "time": 1.0, "server": 2.9},
            {"item": "x", "time": 1.0, "server": True},
            {"item": "x", "time": 1.0, "server": "2"},
            {"item": "x", "time": 1.0, "server": -1},
            {"item": "x", "time": 1.0, "server": 8},
            {"item": "x", "time": 1.0, "server": 1, "deadline_ms": float("nan")},
            {"item": "x", "time": 1.0, "server": 1, "deadline_ms": -5},
        ]

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=8)
            )
            gate = asyncio.Event()
            server.shards[0].gate = gate  # a queued event would pend
            await server.start()
            client = HttpClient(server.config.host, server.port)
            answers = [
                await client.request("POST", "/request", body) for body in bad
            ]
            _, batched, _ = await client.request("POST", "/batch", {"events": bad})
            queued = server.shards[0].queue.qsize()
            gate.set()
            _, stats, _ = await client.request("GET", "/stats")
            # A refused NaN leaves the item's stale check intact.
            ok, _, _ = await post_event(client, "x", 1.0, 1)
            stale, _, _ = await post_event(client, "x", 0.5, 1)
            records = len(server.shards[0].journal.records)
            await client.close()
            await server.shutdown()
            return answers, batched["results"], queued, stats, ok, stale, records

        answers, batched, queued, stats, ok, stale, records = scenario(run)
        assert [status for status, _, _ in answers] == [400] * len(bad)
        assert all("bad event" in payload["error"] for _, payload, _ in answers)
        assert [r["status"] for r in batched] == [400] * len(bad)
        assert queued == 0
        assert stats["requests"]["accepted"] == 0
        assert stats["items"] == 0 and stats["processed"] == 0
        assert (ok, stale) == (200, 409)
        assert records == 2  # the begin record and the one valid event

    def test_batch_body_must_hold_an_event_list(self, tmp_path):
        async def run():
            server = CacheServer(ServerConfig(journal_dir=str(tmp_path), shards=1))
            await server.start()
            client = HttpClient(server.config.host, server.port)
            answers = [
                await client.request("POST", "/batch", body)
                for body in (
                    {"events": 5},
                    {"events": "ab"},
                    {"events": None},
                    {"events": {"item": "x", "time": 1.0, "server": 0}},
                    {},
                )
            ]
            _, stats, _ = await client.request("GET", "/stats")
            await client.close()
            await server.shutdown()
            return answers, stats

        answers, stats = scenario(run)
        assert [status for status, _, _ in answers] == [400] * 5
        assert all("bad batch" in payload["error"] for _, payload, _ in answers)
        assert stats["requests"]["errors"] == 0
        assert stats["requests"]["accepted"] == 0


#: Event streams over a few items whose times collide often, so in-batch
#: duplicates (same item and time) and stale events (an earlier time)
#: are about as common as strictly increasing ones.
event_streams = st.lists(
    st.tuples(
        st.sampled_from("abcde"),
        st.integers(min_value=1, max_value=24).map(float),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


async def answers_of(config, events, bounds=None):
    """Every event's rendered answer and the final ``/stats``.

    ``bounds=None`` sends each event alone through ``/request``;
    otherwise ``events[lo:hi]`` goes as one ``/batch`` for each
    consecutive ``(lo, hi)`` pair of ``bounds``.
    """
    server = CacheServer(config)
    await server.start()
    client = HttpClient(server.config.host, server.port)
    out = []
    if bounds is None:
        for item, t, s in events:
            status, payload, _ = await post_event(client, item, t, s)
            out.append({"status": status, **payload})
    else:
        for lo, hi in zip(bounds, bounds[1:]):
            status, payload, _ = await post_batch(client, events[lo:hi])
            assert status == 200, payload
            out.extend(payload["results"])
    _, stats, _ = await client.request("GET", "/stats")
    await client.close()
    await server.shutdown()
    return out, stats


class TestBatch:
    """``/batch`` admits its events as a block, answering as one by one."""

    @settings(max_examples=200, deadline=None)
    @given(
        events=event_streams,
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
        window=st.sampled_from([None, 3.0]),
    )
    # Items a, b and c share shard 1 of 2.  An in-batch stale event and
    # an in-batch duplicate of a queued event:
    @example(events=[("a", 2.0, 0), ("a", 1.0, 1), ("a", 2.0, 3)], cuts=[], window=None)
    # b@5 is new, but applying a@10 first slides the window past c@6
    # and so past 5: alone, b@5 is answered 409.
    @example(events=[("c", 6.0, 0), ("a", 10.0, 1), ("b", 5.0, 2)], cuts=[], window=3.0)
    def test_any_split_answers_like_one_by_one(self, events, cuts, window):
        """Block apply is digest-identical to per-event apply for every split."""
        config = ServerConfig(shards=2, num_servers=4, dedupe_window=window)
        bounds = [0, *sorted(c for c in cuts if c < len(events)), len(events)]

        async def run():
            alone = await answers_of(config, events)
            batched = await answers_of(config, events, bounds)
            return alone, batched

        (alone, alone_stats), (batched, batched_stats) = scenario(run)
        assert batched == alone
        assert batched_stats["digest"] == alone_stats["digest"]
        assert batched_stats["requests"] == alone_stats["requests"]

    def test_batch_on_one_shard_costs_one_journal_flush(self, tmp_path):
        events = [(f"item-{k % 8}", float(k + 1), k % 4) for k in range(64)]

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=4)
            )
            await server.start()
            journal = server.shards[0].journal
            flushes = []
            flush = journal.flush

            def counted(fsync=False):
                flushes.append(fsync)
                flush(fsync=fsync)

            journal.flush = counted
            client = HttpClient(server.config.host, server.port)
            status, payload, _ = await post_batch(client, events)
            count = len(flushes)
            await client.close()
            await server.shutdown()
            return status, payload["results"], count

        status, results, count = scenario(run)
        assert status == 200
        assert [r["status"] for r in results] == ["done"] * 64
        assert count == 1

    def test_batch_alone_is_never_degraded_or_shed(self, tmp_path):
        """40 events on one shard whose queue holds 8 (degrading from 6)."""
        events = [("x", float(t), t % 4) for t in range(1, 41)]

        async def run():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=1, num_servers=4,
                    queue_depth=8,
                )
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            _, payload, _ = await post_batch(client, events)
            _, stats, _ = await client.request("GET", "/stats")
            await client.close()
            await server.shutdown()
            return payload["results"], stats

        results, stats = scenario(run)
        assert [r["status"] for r in results] == ["done"] * 40
        assert not any(r["degraded"] for r in results)
        assert stats["degraded_decisions"] == 0
        assert stats["requests"]["shed_429"] == 0
        assert stats["requests"]["accepted"] == 40

    def test_deadlines_run_from_admission_then_resend_settles(self, tmp_path):
        """Every held event pends after one deadline, not one each."""
        events = [("x", float(t), t % 4) for t in range(1, 21)]

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=4)
            )
            gate = asyncio.Event()
            server.shards[0].gate = gate
            await server.start()
            client = HttpClient(server.config.host, server.port)
            loop = asyncio.get_running_loop()
            start = loop.time()
            _, partial, _ = await post_batch(client, events, deadline_ms=50)
            elapsed = loop.time() - start
            gate.set()
            await asyncio.sleep(0.05)  # let the accepted events settle
            _, settled, _ = await post_batch(client, events)
            await client.close()
            await server.shutdown()
            return (
                partial["results"], elapsed, settled["results"],
                server.counters["deadline_expired"],
            )

        partial, elapsed, settled, expired = scenario(run)
        assert [r["status"] for r in partial] == ["pending"] * 20
        assert all(r["degraded"] and r["decision"] is None for r in partial)
        assert expired == 20
        assert elapsed < 0.5  # 20 deadlines of 50 ms end together
        assert [r["status"] for r in settled] == ["done"] * 20
        assert all(r["duplicate"] for r in settled)
        assert all(r["decision"] in ("cache", "transfer") for r in settled)
