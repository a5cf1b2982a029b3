"""Chaos-proxy tests: seeded determinism, byte transparency, faults.

Property families:

* **determinism** — a :class:`NetworkFaultPlan` is a pure function of
  ``(seed, connection, message)``: equal plans produce bit-identical
  perturbation schedules, and every draw is stable across calls;
* **transparency** — a pass-through proxy changes nothing: the decision
  digest of a load driven through it equals the digest driven directly;
* **fault injection** — duplicated requests are absorbed by the
  server's exactly-once dedupe, torn writes are reassembled by client
  framing, mid-response resets are redriven, black-holes trip the
  client read timeout and recover, partitions refuse connections.

Digest comparisons drive closed-loop with ``concurrency == shards`` so
lanes align with shards (``crc32 % n`` on both sides) and the per-shard
apply order — hence the digest chain — is identical across runs.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import NetworkFaultPlan
from repro.service.loadgen import HttpClient, run_load, synthetic_events
from repro.service.proxy import ChaosProxy
from repro.service.server import CacheServer, ServerConfig


def scenario(coro_fn):
    return asyncio.run(coro_fn())


plans = st.builds(
    NetworkFaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    latency=st.floats(0.0, 0.1, allow_nan=False),
    jitter=st.floats(0.0, 0.1, allow_nan=False),
    reset_rate=st.floats(0.0, 1.0, allow_nan=False),
    torn_rate=st.floats(0.0, 1.0, allow_nan=False),
    dup_rate=st.floats(0.0, 1.0, allow_nan=False),
    reorder_rate=st.floats(0.0, 1.0, allow_nan=False),
    reorder_hold=st.floats(0.0, 0.05, allow_nan=False),
)


class TestPlanDeterminism:
    @given(plan=plans)
    @settings(max_examples=50, deadline=None)
    def test_equal_seeds_equal_schedules(self, plan):
        """Same plan parameters => byte-identical perturbation sequence."""
        twin = NetworkFaultPlan(**{
            f: getattr(plan, f) for f in (
                "seed", "latency", "jitter", "reset_rate", "torn_rate",
                "dup_rate", "reorder_rate", "reorder_hold",
            )
        })
        assert plan.schedule(3, 4) == twin.schedule(3, 4)

    @given(plan=plans, conn=st.integers(0, 100), msg=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_perturbation_is_pure(self, plan, conn, msg):
        assert plan.perturbation(conn, msg) == plan.perturbation(conn, msg)

    def test_different_seeds_diverge(self):
        lossy = dict(reset_rate=0.5, torn_rate=0.5, dup_rate=0.5)
        a = NetworkFaultPlan(seed=1, **lossy)
        b = NetworkFaultPlan(seed=2, **lossy)
        assert a.schedule(4, 8) != b.schedule(4, 8)

    def test_passthrough_plan_is_clean(self):
        plan = NetworkFaultPlan()
        assert plan.passthrough
        for p in plan.schedule(3, 5):
            assert p.clean

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="reset_rate"):
            NetworkFaultPlan(reset_rate=1.5)
        with pytest.raises(ValueError, match="latency"):
            NetworkFaultPlan(latency=-0.1)
        with pytest.raises(ValueError, match="window"):
            NetworkFaultPlan(partition_windows=((2.0, 1.0),))


async def _digest_direct(events, tmp, shards=2):
    """Reference: the same events driven without a proxy."""
    server = CacheServer(
        ServerConfig(journal_dir=str(tmp), shards=shards, num_servers=6)
    )
    await server.start()
    res = await run_load(
        "127.0.0.1", server.port, events, concurrency=shards
    )
    await server.shutdown()
    return res.stats["digest"]


async def _digest_via_proxy(events, tmp, plan, shards=2, retries=64):
    server = CacheServer(
        ServerConfig(journal_dir=str(tmp), shards=shards, num_servers=6)
    )
    await server.start()
    proxy = ChaosProxy("127.0.0.1", server.port, plan=plan)
    await proxy.start()
    res = await run_load(
        "127.0.0.1", proxy.port, events, concurrency=shards,
        retries=retries, read_timeout=5.0,
    )
    await proxy.stop()
    await server.shutdown()
    return res, proxy.counters


async def _answer_to_eof(port, raw):
    """Send ``raw`` on a fresh connection; the whole answer, read to EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    answer = await asyncio.wait_for(reader.read(), 5.0)
    writer.close()
    await writer.wait_closed()
    return answer


#: Requests the server refuses (400, 413, 431) before reading a body.
_MALFORMED = {
    "length-minus-5": b"POST /request HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "length-12abc": b"POST /request HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n",
    "length-5000-nines": (
        b"POST /batch HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
    ),
    "header-line-70000": (
        b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    ),
    "header-lines-200": b"GET /stats HTTP/1.1\r\n" + b"X-Pad: a\r\n" * 200 + b"\r\n",
}


class TestTransparency:
    @pytest.mark.parametrize("raw", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_refused_request_answered_as_the_server_would(self, raw):
        """A pass-through proxy answers a request it refuses byte for
        byte as the server does, then closes."""

        async def run():
            server = CacheServer(ServerConfig(shards=1))
            await server.start()
            proxy = ChaosProxy("127.0.0.1", server.port)
            await proxy.start()
            try:
                direct = await _answer_to_eof(server.port, raw)
                proxied = await _answer_to_eof(proxy.port, raw)
            finally:
                await proxy.stop()
                await server.shutdown()
            return direct, proxied

        direct, proxied = scenario(run)
        assert direct.split(b" ", 2)[1] in (b"400", b"413", b"431")
        assert proxied == direct

    def test_connection_close_answer_ends_the_relay(self):
        """After relaying an answer that carries ``Connection: close``,
        the proxy closes the client side as the server does."""
        raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"

        async def run():
            server = CacheServer(ServerConfig(shards=1))
            await server.start()
            proxy = ChaosProxy("127.0.0.1", server.port)
            await proxy.start()
            try:
                direct = await _answer_to_eof(server.port, raw)
                proxied = await _answer_to_eof(proxy.port, raw)
            finally:
                await proxy.stop()
                await server.shutdown()
            return direct, proxied

        direct, proxied = scenario(run)
        assert b"Connection: close" in direct
        assert proxied == direct

    def test_passthrough_digest_identical(self, tmp_path):
        """An empty plan relays verbatim: digests match, no faults fire."""
        events = synthetic_events(items=5, count=80, num_servers=6, seed=4)

        async def run():
            ref = await _digest_direct(events, tmp_path / "direct")
            res, counters = await _digest_via_proxy(
                events, tmp_path / "proxied", NetworkFaultPlan()
            )
            assert res.stats["digest"] == ref
            assert res.give_ups == 0
            for key in ("delayed", "duplicated", "resets", "torn", "held"):
                assert counters[key] == 0, (key, counters)
            assert counters["messages"] > 0

        scenario(run)


class TestFaultInjection:
    def test_duplicated_requests_are_deduped(self, tmp_path):
        """dup_rate=1: the server sees every request twice, applies once."""
        events = synthetic_events(items=4, count=60, num_servers=6, seed=5)

        async def run():
            ref = await _digest_direct(events, tmp_path / "direct")
            res, counters = await _digest_via_proxy(
                events, tmp_path / "proxied", NetworkFaultPlan(dup_rate=1.0)
            )
            assert res.stats["digest"] == ref
            assert counters["duplicated"] == counters["messages"]
            # Wire-level duplicates were answered from the decision
            # index, never re-applied.
            assert res.stats["processed"] == len(events)

        scenario(run)

    def test_torn_writes_reassemble(self, tmp_path):
        """torn_rate=1: byte-fragmented responses still frame correctly."""
        events = synthetic_events(items=4, count=60, num_servers=6, seed=6)

        async def run():
            ref = await _digest_direct(events, tmp_path / "direct")
            res, counters = await _digest_via_proxy(
                events, tmp_path / "proxied", NetworkFaultPlan(torn_rate=1.0)
            )
            assert res.stats["digest"] == ref
            assert res.give_ups == 0
            assert counters["torn"] == counters["messages"]

        scenario(run)

    def test_resets_are_redriven(self, tmp_path):
        """Mid-response resets: closed-loop reconnect + dedupe redrive."""
        events = synthetic_events(items=4, count=50, num_servers=6, seed=7)

        async def run():
            ref = await _digest_direct(events, tmp_path / "direct")
            res, counters = await _digest_via_proxy(
                events,
                tmp_path / "proxied",
                NetworkFaultPlan(seed=3, reset_rate=0.3),
                retries=256,
            )
            assert res.stats["digest"] == ref
            assert res.give_ups == 0
            assert counters["resets"] > 0

        scenario(run)

    def test_blackhole_trips_timeout_then_recovers(self, tmp_path):
        """Accept-then-stall: the client read timeout fires, the
        connection is dropped, and the redrive settles once the hole
        closes — the torn-send dedupe path, driven from the network."""
        events = synthetic_events(items=2, count=6, num_servers=4, seed=8)

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=4)
            )
            await server.start()
            proxy = ChaosProxy("127.0.0.1", server.port)
            await proxy.start()
            client = HttpClient("127.0.0.1", proxy.port, read_timeout=0.3)
            item, t, srv = events[0]
            body = {"item": item, "time": t, "server": srv}
            proxy.blackhole = True
            with pytest.raises(asyncio.TimeoutError):
                await client.request("POST", "/request", body)
            assert proxy.counters["stalled"] > 0
            proxy.blackhole = False
            # The stalled request may or may not have reached the server
            # before the timeout; the redrive settles either way.
            status, payload, _ = await client.request(
                "POST", "/request", body
            )
            assert status == 200 and payload["status"] == "done"
            await client.close()
            await proxy.stop()
            await server.shutdown()

        scenario(run)

    def test_partition_refuses_then_heals(self, tmp_path):
        events = synthetic_events(items=2, count=4, num_servers=4, seed=9)

        async def run():
            server = CacheServer(
                ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=4)
            )
            await server.start()
            proxy = ChaosProxy("127.0.0.1", server.port)
            await proxy.start()
            item, t, srv = events[0]
            body = {"item": item, "time": t, "server": srv}
            proxy.set_partition(True)
            client = HttpClient(
                "127.0.0.1", proxy.port, connect_timeout=1.0, read_timeout=1.0
            )
            with pytest.raises(
                (ConnectionError, OSError, asyncio.IncompleteReadError,
                 asyncio.TimeoutError)
            ):
                await client.request("POST", "/request", body)
            await client.close()
            assert proxy.counters["partition_drops"] >= 1
            proxy.set_partition(False)
            status, payload, _ = await client.request(
                "POST", "/request", body
            )
            assert status == 200 and payload["status"] == "done"
            await client.close()
            await proxy.stop()
            await server.shutdown()

        scenario(run)
