"""Replicated-cluster tests: ownership, WAL handoff, live failover.

Property families:

* **ownership** — a replica answers only its owned shards: foreign
  shards get ``421`` with the owned set, so clients can re-route;
* **bit-identical handoff** — ``acquire_shard`` / ``POST
  /admin/acquire`` resumes a shard's per-shard WAL digest-verified:
  the acquiring replica's ``(seq, digest)`` equals the dead owner's;
* **routing map** — ``cluster.json`` parses, routes by the same
  ``crc32 % shards`` as the server, and survives torn reads;
* **live failover** — a real :class:`ReplicaSet` with a replica
  SIGKILLed under load converges to the same merged decision digest as
  an uninterrupted single server over all shards.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.faults.plan import NetworkFaultPlan
from repro.service.cluster import ClusterConfig, ReplicaSet
from repro.service.loadgen import (
    ClusterClient,
    ClusterMap,
    HttpClient,
    cluster_stats,
    replay_cluster,
    run_load,
    synthetic_events,
)
from repro.service.proxy import ChaosProxy
from repro.service.server import CacheServer, ServerConfig, route_item


def scenario(coro_fn):
    return asyncio.run(coro_fn())


async def post_event(client, item, time, server, **extra):
    body = {"item": item, "time": time, "server": server, **extra}
    return await client.request("POST", "/request", body)


class TestClusterConfig:
    def test_round_robin_assignment(self):
        config = ClusterConfig(journal_dir="/tmp/x", replicas=3, shards=8)
        owned = config.assignment()
        assert owned == {0: [0, 3, 6], 1: [1, 4, 7], 2: [2, 5]}
        flat = sorted(s for shards in owned.values() for s in shards)
        assert flat == list(range(8))

    def test_validation(self):
        with pytest.raises(ValueError, match="replicas"):
            ClusterConfig(journal_dir="/tmp/x", replicas=0)
        with pytest.raises(ValueError, match="health_failures"):
            ClusterConfig(journal_dir="/tmp/x", health_failures=0)


class TestOwnership:
    def test_foreign_shard_gets_421(self, tmp_path):
        async def run():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path),
                    shards=4,
                    owned_shards=(0, 2),
                    num_servers=4,
                )
            )
            await server.start()
            client = HttpClient(server.config.host, server.port)
            # Find one item routed to an owned shard, one to a foreign.
            owned_item = foreign_item = None
            for i in range(64):
                name = f"it{i}"
                if route_item(name, 4) in (0, 2):
                    owned_item = owned_item or name
                else:
                    foreign_item = foreign_item or name
            status, payload, _ = await post_event(client, owned_item, 1.0, 0)
            assert status == 200
            status, payload, _ = await post_event(client, foreign_item, 1.0, 0)
            assert status == 421
            assert payload["owned"] == [0, 2]
            status, ready, _ = await client.request("GET", "/readyz")
            assert ready["owned"] == [0, 2]
            await client.close()
            await server.shutdown()
            assert server.counters["misrouted"] == 1

        scenario(run)


class TestShardHandoff:
    def test_acquire_shard_resumes_wal_bit_identical(self, tmp_path):
        """Survivor resumes a dead owner's WAL to the same (seq, digest)."""
        events = synthetic_events(items=6, count=60, num_servers=4, seed=11)
        shard_of = {e[0]: route_item(e[0], 2) for e in events}

        async def run():
            # Owner serves shard 0 only, applies its share, dies cleanly.
            owner = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=2,
                    owned_shards=(0,), num_servers=4,
                )
            )
            await owner.start()
            client = HttpClient(owner.config.host, owner.port)
            for item, t, s in events:
                if shard_of[item] == 0:
                    status, payload, _ = await post_event(client, item, t, s)
                    assert status == 200
            row = owner.shards[0].stats_row()
            await client.close()
            await owner.shutdown()

            # Survivor owns shard 1; acquiring shard 0 replays the WAL.
            survivor = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path), shards=2,
                    owned_shards=(1,), num_servers=4,
                )
            )
            await survivor.start()
            client = HttpClient(survivor.config.host, survivor.port)
            status, payload, _ = await client.request(
                "POST", "/admin/acquire", {"shard": 0}
            )
            assert status == 200, payload
            assert payload["owned"] == [0, 1]
            assert payload["replayed"] == row["seq"]
            handed = survivor.shards[0].stats_row()
            assert (handed["seq"], handed["digest"]) == (
                row["seq"], row["digest"],
            )
            # Resends of applied events dedupe on the new owner, and the
            # shard keeps serving fresh events.
            first = next(e for e in events if shard_of[e[0]] == 0)
            status, payload, _ = await post_event(client, *first)
            assert status == 200 and payload["duplicate"]
            status, payload, _ = await post_event(
                client, first[0], first[1] + 1e6, 0
            )
            assert status == 200 and payload["status"] == "done"
            # Acquire is idempotent: re-acquiring an owned shard no-ops.
            status, payload, _ = await client.request(
                "POST", "/admin/acquire", {"shard": 0}
            )
            assert status == 200 and payload["replayed"] == 0
            status, payload, _ = await client.request(
                "POST", "/admin/acquire", {"shard": 7}
            )
            assert status == 400
            await client.close()
            await survivor.shutdown()

        scenario(run)


class TestClusterMap:
    def test_load_and_route(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps({
            "epoch": 3,
            "num_shards": 2,
            "shards": {
                "0": {"host": "127.0.0.1", "port": 1001},
                "1": {"host": "127.0.0.1", "port": 1002},
            },
        }))
        cmap = ClusterMap.load(str(path))
        assert cmap.epoch == 3
        for item in ("a", "b", "xyz"):
            host, port = cmap.endpoint_for(item)
            assert port == 1001 + route_item(item, 2)

    def test_client_survives_missing_map(self, tmp_path):
        async def run():
            client = ClusterClient(str(tmp_path / "nope.json"))
            assert client.map is None
            client.refresh()
            assert client.map is None
            with pytest.raises(ConnectionError, match="no cluster map"):
                await client.send(("a", 1.0, 0))
            await client.close()

        scenario(run)


class TestHedgedReads:
    def test_every_slow_send_hedges_and_settles(self, tmp_path):
        """Every answer held 0.2 s behind a 0.05 s hedge: each event
        fires one hedge and settles, and the digest is the direct run's."""
        events = synthetic_events(items=3, count=20, num_servers=6, seed=21)

        async def direct():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path / "direct"),
                    shards=2, num_servers=6,
                )
            )
            await server.start()
            res = await run_load("127.0.0.1", server.port, events, concurrency=1)
            await server.shutdown()
            return res.stats["digest"]

        async def hedged():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path / "hedged"),
                    shards=2, num_servers=6,
                )
            )
            await server.start()
            plan = NetworkFaultPlan(reorder_rate=1.0, reorder_hold=0.2)
            proxy = ChaosProxy("127.0.0.1", server.port, plan=plan)
            await proxy.start()
            map_path = tmp_path / "cluster.json"
            map_path.write_text(json.dumps({
                "epoch": 1,
                "num_shards": 1,
                "shards": {"0": {"host": "127.0.0.1", "port": proxy.port}},
            }))
            client = ClusterClient(str(map_path), hedge=0.05)
            try:
                answers = [await client.settle(event) for event in events]
            finally:
                await client.close()
            async with HttpClient("127.0.0.1", server.port) as probe:
                _status, stats, _ = await probe.request("GET", "/stats")
            await proxy.stop()
            await server.shutdown()
            return client.hedges, answers, stats["digest"]

        reference = scenario(direct)
        hedges, answers, digest = scenario(hedged)
        assert hedges == len(events)
        assert all(status == 200 for status, _payload in answers)
        assert digest == reference


class TestClusterFailoverSuite:
    def test_kill_and_partition_scenarios_converge(self, tmp_path):
        """One SIGKILL, one healed and one escalated partition: each
        converges to the single-server reference digest."""
        from repro.faults.chaos import cluster_failover_suite

        events = synthetic_events(items=6, count=60, num_servers=8, seed=0)
        outcomes = cluster_failover_suite(
            events,
            scenarios=3,
            base_seed=0,
            shards=4,
            replicas=3,
            num_servers=8,
            include_partitions=True,
            work_dir=str(tmp_path),
        )
        assert [o.kind for o in outcomes] == [
            "kill", "partition-heal", "partition-failover",
        ]
        for o in outcomes:
            assert o.ok, o.violations


class TestReplicaSetFailover:
    def test_sigkill_under_load_is_bit_identical(self, tmp_path):
        """Kill a live replica mid-load: merged digest == single server."""
        events = synthetic_events(items=5, count=50, num_servers=6, seed=13)
        shards = 2

        async def reference():
            server = CacheServer(
                ServerConfig(
                    journal_dir=str(tmp_path / "ref"),
                    shards=shards, num_servers=6,
                )
            )
            await server.start()
            res = await run_load(
                "127.0.0.1", server.port, events, concurrency=shards
            )
            await server.shutdown()
            return res.stats

        ref = scenario(reference)

        rs = ReplicaSet(
            ClusterConfig(
                journal_dir=str(tmp_path / "cluster"),
                replicas=2,
                shards=shards,
                num_servers=6,
                sync=False,
            )
        )
        rs.start()
        try:
            assert sorted(rs.live_replicas()) == [0, 1]
            killed = threading.Event()

            def killer():
                time.sleep(0.3)
                rs.kill_replica(1)
                killed.set()

            threading.Thread(target=killer, daemon=True).start()
            res = replay_cluster(
                rs.map_path, events, concurrency=shards, retries=256
            )
            assert killed.wait(30)
            assert res.give_ups == 0
            assert res.stats["digest"] == ref["digest"]
            assert rs.live_replicas() == [0]
            assert len(rs.failover_log) == 1
            assert rs.failover_log[0]["replica"] == 1
            assert rs.failover_log[0]["ready_s"] < 10.0
            # Survivor now owns every shard; per-shard rows match the
            # reference exactly (nothing lost, duplicated, reordered).
            merged = asyncio.run(cluster_stats(rs.map_path))
            ref_rows = {r["shard"]: r for r in ref["shards"]}
            assert len(merged["shards"]) == shards
            for row in merged["shards"]:
                ref_row = ref_rows[row["shard"]]
                assert (row["seq"], row["digest"]) == (
                    ref_row["seq"], ref_row["digest"],
                )
        finally:
            rs.stop()
