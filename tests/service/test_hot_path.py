"""The serving hot path keeps the bytes it replaced and little memory.

* **formatters** — a shard's chained decision digest
  (:func:`~repro.runtime.digest.event_digest`) equals
  ``digest_value([prev, core])`` and its WAL line
  (:func:`repro.service.server._wal_line`) equals
  ``json.dumps(record, allow_nan=True) + "\\n"``, for any item text, any
  float, and the int and bool values that take the fallback;
* **WAL identity** — a seeded stream through a two-shard server writes
  lines that json re-renders identically, ends at a pinned ``/stats``
  digest, and a resumed server replays to the same digest while keeping
  none of the loaded records;
* **retained memory** — under tracemalloc, events through
  ``POST /batch`` keep a bounded number of bytes each.
"""

import asyncio
import gc
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.digest import digest_value, event_digest
from repro.runtime.journal import JournalCorruptError
from repro.service.loadgen import HttpClient, synthetic_events
from repro.service.server import CacheServer, ServerConfig, _Shard, _wal_line

#: Any text: non-ASCII, quotes, backslashes, control characters, and
#: lone surrogates (which ``st.text()`` leaves out).
_TEXT = st.text(
    st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),
        st.sampled_from('"\\\x00\x1f\x7f'),
    )
)
#: Every float: ``-0.0``, subnormals and large exponents are drawn, and
#: NaN and the infinities take the fallback.
_FLOATS = st.floats()
_KINDS = st.sampled_from(["request", "degraded"])
_DECISIONS = st.sampled_from(["cache", "transfer"])


class TestFormatters:
    @given(
        prev=st.one_of(st.text(alphabet="0123456789abcdef", min_size=16, max_size=16), _TEXT),
        kind=_KINDS,
        item=_TEXT,
        time=_FLOATS,
        server=st.one_of(st.integers(0, 1 << 40), st.booleans()),
        decision=_DECISIONS,
        cost=st.one_of(_FLOATS, st.integers(-(1 << 70), 1 << 70), st.booleans()),
    )
    @example("0" * 16, "request", "a", -0.0, 0, "cache", 5e-324)
    @example("0" * 16, "degraded", "é\"\\", 1e16, 3, "transfer", 1)
    @settings(max_examples=300, deadline=None)
    def test_event_digest_is_digest_value(
        self, prev, kind, item, time, server, decision, cost
    ):
        core = {
            "kind": kind,
            "item": item,
            "time": time,
            "server": server,
            "decision": decision,
            "cost": cost,
        }
        got = event_digest(prev, kind, item, time, server, decision, cost)
        assert got == digest_value([prev, core])

    @given(
        seq=st.one_of(st.integers(0, 1 << 70), st.booleans()),
        kind=_KINDS,
        item=_TEXT,
        time=st.one_of(_FLOATS, st.integers(0, 1 << 60)),
        server=st.one_of(st.integers(0, 1 << 40), st.booleans()),
        digest=_TEXT,
    )
    @example(seq=1, kind="request", item="x", time=5e-324, server=0, digest="0" * 16)
    @example(seq=2, kind="degraded", item="\ud800", time=1e16, server=1, digest="0" * 16)
    @settings(max_examples=300, deadline=None)
    def test_wal_line_is_json_dumps(self, seq, kind, item, time, server, digest):
        record = {
            "seq": seq,
            "kind": kind,
            "item": item,
            "time": time,
            "server": server,
            "digest": digest,
        }
        want = json.dumps(record, allow_nan=True) + "\n"
        assert _wal_line(seq, kind, item, time, server, digest) == want

    def test_int_lam_takes_the_fallback_through_a_server(self):
        # A degraded event costs lam, here an int: json writes 2, not 2.0.
        shard = _Shard(0, ServerConfig(shards=1, num_servers=4, lam=2))
        prev = shard.digest
        shard.apply("a", 1.5, 3, True)
        core = {
            "kind": "degraded",
            "item": "a",
            "time": 1.5,
            "server": 3,
            "decision": "transfer",
            "cost": 2,
        }
        assert shard.digest == digest_value([prev, core])

    def test_shard_writer_refuses_a_seq_gap(self, tmp_path):
        shard = _Shard(0, ServerConfig(journal_dir=str(tmp_path), shards=1, num_servers=4))
        shard.open_journal()
        payload = shard.apply("a", 1.0, 1, False)
        shard.journal_event(payload)
        with pytest.raises(JournalCorruptError, match="non-contiguous sequence: expected 2, got 1"):
            shard.journal_event(payload)
        shard.flush_journal()
        shard.journal.close()
        assert len((tmp_path / "shard-0.jsonl").read_text().splitlines()) == 2


#: Final ``/stats`` digest of :func:`wal_scenario` at seed 0, computed
#: with ``json.dumps`` records and ``digest_value`` digests before the
#: shards formatted their own; CI's server smoke job pins it too.
PINNED_DIGEST = "eead403516e0b04e"


async def wal_scenario(journal_dir, seed=0):
    """A seeded stream through a two-shard server: 3,000 events in
    ``/batch`` calls of 64, each resending its first three, then five
    resends through ``/request``.  Returns the final ``/stats``, the
    resumed server's, and the replayed records each resumed shard kept."""
    config = ServerConfig(journal_dir=journal_dir, shards=2, num_servers=8)
    server = CacheServer(config)
    await server.start()
    client = HttpClient(config.host, server.port)
    events = synthetic_events(items=8, count=3000, num_servers=8, seed=seed)
    bodies = [{"item": i, "time": t, "server": s} for i, t, s in events]
    for k in range(0, len(bodies), 64):
        chunk = bodies[k : k + 64]
        await client.request("POST", "/batch", {"events": chunk + chunk[:3]})
    for body in bodies[:5]:
        await client.request("POST", "/request", body)
    _, stats, _ = await client.request("GET", "/stats")
    await client.close()
    await server.shutdown()
    resumed = CacheServer(
        ServerConfig(journal_dir=journal_dir, shards=2, num_servers=8, resume=True)
    )
    await resumed.start()
    kept = [len(shard.journal) for shard in resumed.shards.values()]
    again = resumed._stats()
    await resumed.shutdown()
    return stats, again, kept


class TestWalIdentity:
    def test_seeded_stream_pins_lines_digest_and_resume(self, tmp_path):
        stats, resumed, kept = asyncio.run(wal_scenario(str(tmp_path)))
        assert stats["processed"] == 3000
        assert stats["requests"]["duplicates"] == 47 * 3 + 5
        assert stats["digest"] == PINNED_DIGEST
        lines = [
            line
            for path in sorted(tmp_path.glob("shard-*.jsonl"))
            for line in path.read_text().splitlines(keepends=True)
        ]
        assert len(lines) == 3000 + 2
        for line in lines:
            assert line == json.dumps(json.loads(line), allow_nan=True) + "\n"
        assert resumed["replayed_events"] == 3000
        assert resumed["digest"] == PINNED_DIGEST
        assert kept == [0, 0]


class TestRetainedMemory:
    def test_bytes_kept_per_applied_event(self, tmp_path):
        # What a shard keeps per event: the solver's history and one
        # dedupe tuple; no journal record, no answer dict.
        count, batch = 20_000, 64
        events = synthetic_events(items=8, count=count + batch, num_servers=16, seed=1)
        bodies = [
            json.dumps(
                {"events": [{"item": i, "time": t, "server": s} for i, t, s in chunk]}
            ).encode()
            for chunk in (events[k : k + batch] for k in range(0, len(events), batch))
        ]

        async def run():
            server = CacheServer(ServerConfig(journal_dir=str(tmp_path), shards=4, num_servers=16))
            await server.start()
            await server._dispatch("POST", "/batch", bodies[0])  # warm up
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for body in bodies[1:]:
                    status, payload, _ = await server._dispatch("POST", "/batch", body)
                    assert status == 200
                del payload
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            processed = server._stats()["processed"]
            await server.shutdown()
            return kept, processed

        kept, processed = asyncio.run(run())
        assert processed == count + batch
        assert kept / count <= 600, f"{kept / count:.0f} B kept per event"
