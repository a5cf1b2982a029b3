"""Serving workloads: a durable ``repro.cli serve`` process driven over HTTP.

The server runs its durable default -- fsync on, WAL in the run's work
directory -- and one client process drives it over :data:`LANES`
keep-alive connections.  Items are pinned to lanes by their server
shard, so each shard is fed by one connection in a fixed order and its
decision digest depends only on the seed.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from . import inputs
from .drive import closed_loop, http_call, open_loop, percentile, request_bytes, windowed_percentile

SHARDS = 4
_CPUS = sorted(os.sched_getaffinity(0))
#: Usable CPUs cap the connection count.
LANES = min(2, len(_CPUS))
#: The server runs on the last usable CPU and the client on the first,
#: so neither migrates or competes with the other (one CPU: shared).
SERVER_CPU, CLIENT_CPU = _CPUS[-1], _CPUS[0]
#: Open-loop send rate of serve-request: the server is busy ~0.5 ms per
#: send on a 2-CPU host, so this loads it about a quarter.  The host's
#: CPU speed halves for minutes at a time; at 1000 sends/s the server
#: then neared saturation and p90 rose from 2 ms to 84 ms.  And the
#: share of sends that resend an answered event.
RATE = 500.0
RESEND_SHARE = 0.10
#: serve-request's latency percentiles are medians over the run's 1-s
#: windows (~500 sends a window) of each window's percentile.  Time the
#: host takes from the server -- its CPU, or an fsync it holds up --
#: delays the sends of the windows it falls in; the median leaves such
#: spells out while they cover fewer than half of a run.
WINDOW_S = 1.0
#: Events per ``POST /batch`` call.
BATCH = 64
#: serve-batch sends a fixed number of events, ``--seconds`` times this
#: rate (about its throughput on a 2-CPU host), so that the server's
#: memory and final digest depend on the seed alone.
BATCH_EVENTS_PER_S = 4500
#: Calls per lane that warm the server up before timing; on serve-batch
#: the same prefix feeds the reference server of the digest check.
WARMUP_CALLS = 16
WARMUP_S = 2.0
#: Server starts per run; ``setup_s`` is their median.
SETUP_STARTS = 9
HOST = "127.0.0.1"


class Server:
    """One server process with a fresh WAL directory."""

    def __init__(self, root: Path, workdir: Path, env: dict, spans: Optional[Path] = None):
        self.journal = workdir / f"wal-{time.monotonic_ns()}"
        self.spans = spans
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "launcher.py"), "--spans", str(spans)]
        self.cmd = cmd + ["--journal-dir", str(self.journal), "--shards", str(SHARDS), "-m", str(inputs.LONGTAIL.servers)]
        self.env = env
        self.log = workdir / f"{self.journal.name}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn, wait for ``/readyz`` 200; returns seconds from spawn."""
        t0 = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(self.cmd, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        meta = self.journal / "server.json"
        while time.perf_counter() - t0 < timeout:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: {self.log.read_text()[-2000:]}")
            if meta.exists():
                try:
                    self.port = int(json.loads(meta.read_text())["port"])
                    status, _ = asyncio.run(http_call(HOST, self.port, "GET", "/readyz", timeout=5.0))
                except (ValueError, KeyError, OSError):
                    status = 0
                if status == 200:
                    return time.perf_counter() - t0
            time.sleep(0.002)
        raise RuntimeError("server not ready in time")

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def hwm_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def wal_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.journal.glob("shard-*.jsonl"))

    def call(self, method: str, path: str):
        return asyncio.run(http_call(HOST, self.port, method, path))

    def stop(self) -> Optional[dict]:
        """SIGTERM (drain) and wait; returns the spans written at drain."""
        if self.proc is None or self.proc.poll() is not None:
            return None
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not drain")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exit code {self.proc.returncode}")
        if self.spans is not None:
            return json.loads(self.spans.read_text())
        return None

    def kill(self) -> None:
        """Make sure the process is gone (after an error)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _lane_of(item: str) -> int:
    from repro.service.server import route_item

    return route_item(item, SHARDS) % LANES


class _Inputs:
    """The seeded serving inputs, rebuilt identically for every server."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.columns = inputs.generate(inputs.LONGTAIL, seed)
        self.seconds = seconds
        names = {inputs.item_name(k) for k in range(inputs.LONGTAIL.items)}
        lanes = {n: _lane_of(n) for n in names}
        self.lane_of = lanes.__getitem__
        if workload == "serve-request":
            schedule = inputs.open_loop_schedule(
                *self.columns, self.lane_of, LANES, RATE, WARMUP_S + seconds, RESEND_SHARE, seed
            )
            self.sends = [
                [
                    (due, request_bytes("POST", "/request", {"item": i, "time": t, "server": s}))
                    for due, (i, t, s) in lane
                ]
                for lane in schedule
            ]

    def batch_lanes(self):
        return [
            ({"item": i, "time": t, "server": s} for i, t, s in stream)
            for stream in inputs.lane_streams(*self.columns, self.lane_of)
        ]


def _drive(server: Server, data: _Inputs) -> dict:
    """Warm up, then measure; returns the driver stats and server counts.

    The server's CPU time and peak RSS are read as soon as the driver
    returns, before the checks, whose ``/offline`` solve would add to both.
    """
    out: Dict[str, object] = {}
    if data.workload == "serve-request":
        cpu0 = server.cpu_s()
        stats = asyncio.run(open_loop(HOST, server.port, data.sends, measure_from=WARMUP_S))
        out["server_cpu_s"] = server.cpu_s() - cpu0
        out["window_s"] = data.seconds
        out["served"] = sum(len(lane) for lane in data.sends)
    else:
        lanes = data.batch_lanes()
        cpu0 = server.cpu_s()
        warm = asyncio.run(closed_loop(HOST, server.port, lanes, BATCH, calls=WARMUP_CALLS))
        _, st = server.call("GET", "/stats")
        out["warm_digest"] = st["digest"]
        stats = asyncio.run(closed_loop(HOST, server.port, lanes, BATCH, calls=batch_calls(data.seconds)))
        out["server_cpu_s"] = server.cpu_s() - cpu0
        out["window_s"] = stats.wall_s
        out["served"] = warm.sends + stats.sends
    out["rss_mb"] = server.hwm_mb()
    out["stats"] = stats
    return out


def batch_calls(seconds: float) -> int:
    """Measured ``/batch`` calls per lane of a serve-batch run."""
    return math.ceil(seconds * BATCH_EVENTS_PER_S / (BATCH * LANES))


def _finish(server: Server, out: dict) -> List[str]:
    """Post-run checks outside timing; returns the failed checks."""
    problems = []
    _, stats = server.call("GET", "/stats")
    status, offline = server.call("GET", "/offline")
    if status != 200 or offline.get("match") is not True:
        problems.append(f"/offline check failed: {status} {offline}")
    out["server_stats"] = stats
    out["final_digest"] = stats["digest"]
    out["wal_bytes"] = server.wal_bytes()
    out["spans"] = server.stop()
    return problems


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    workdir: Path,
    env: dict,
    golden: Optional[str] = None,
):
    """One serving run; returns ``(correct, attempted, failed, metrics, notes)``.

    ``setup_s`` is the median ready time of :data:`SETUP_STARTS` server
    starts, about half of them before the measured pass and the rest
    after it, so that they sample the host's speed over the whole run.

    serve-batch sends the same events on every run of a seed, so its
    ``/stats`` digest is checked three ways: after the warm-up prefix it
    must equal that of a reference server (the first start) fed the same
    prefix; at the end it must equal ``golden`` when given; and with
    tracing, the plain and traced servers' final digests must be equal.
    """
    os.sched_setaffinity(0, {CLIENT_CPU})
    data = _Inputs(workload, seed, seconds)
    started: List[Server] = []
    ready: List[float] = []

    def start(spans: Optional[Path] = None) -> Server:
        server = Server(root, workdir, env, spans)
        started.append(server)
        t = server.start()
        if spans is None:
            ready.append(t)
        return server

    def extra_starts(total: int) -> None:
        while len(ready) < total:
            start().stop()

    try:
        problems: List[str] = []
        reference = None
        if workload == "serve-batch":
            ref = start()
            asyncio.run(closed_loop(HOST, ref.port, data.batch_lanes(), BATCH, calls=WARMUP_CALLS))
            reference = ref.call("GET", "/stats")[1]["digest"]
            ref.stop()
        if not trace:
            extra_starts(SETUP_STARTS // 2)
        runs = []
        for spans in [None, workdir / "spans.json"] if trace else [None]:
            server = start(spans)
            out = _drive(server, data)
            problems += _finish(server, out)
            if reference is not None and out["warm_digest"] != reference:
                problems.append(f"/stats digest {out['warm_digest']} != reference {reference}")
            runs.append(out)
        if not trace:
            extra_starts(SETUP_STARTS)
    finally:
        for server in started:
            server.kill()

    finals = [r["final_digest"] for r in runs]
    if workload == "serve-batch":
        if len(set(finals)) > 1:
            problems.append(f"final /stats digests differ between passes: {finals}")
        if golden is not None and finals[0] != golden:
            problems.append(f"final /stats digest {finals[0]} != golden {golden}")
    plain = runs[0]
    notes = {
        "answers": plain["stats"].answers,
        "warm_digest": plain.get("warm_digest"),
        "final_digest": finals[0],
        "problems": problems,
    }
    attempted = sum(r["stats"].sends for r in runs)
    failed = sum(r["stats"].failed for r in runs)
    metrics = _per_layer(plain, runs[-1]) if trace else _end_to_end(plain, ready)
    return not problems, attempted, failed, metrics, notes


def golden_digest(seed: int, seconds: float, root: Path, workdir: Path, env: dict) -> str:
    """Final ``/stats`` digest of one serve-batch pass, for ``golden.json``."""
    os.sched_setaffinity(0, {CLIENT_CPU})
    server = Server(root, workdir, env)
    try:
        server.start()
        out = _drive(server, _Inputs("serve-batch", seed, seconds))
        problems = _finish(server, out)
    finally:
        server.kill()
    if problems or out["stats"].failed:
        raise RuntimeError(f"seed {seed}: {out['stats'].failed} failed sends, {problems}")
    return out["final_digest"]


def _latency_ms(stats, q: float) -> float:
    """serve-request: over 1-s windows (see :data:`WINDOW_S`); serve-batch: per call."""
    if not stats.due_s:  # closed loop
        return percentile(stats.latencies_ms, q)
    return windowed_percentile(stats.latencies_ms, stats.due_s, q, WINDOW_S)


def _end_to_end(run: dict, ready: List[float]) -> Dict[str, float]:
    stats = run["stats"]
    return {
        "setup_s": median(ready),
        "rss_mb": run["rss_mb"],
        "events_per_s": (stats.sends - stats.failed) / run["window_s"],
    }


def _per_layer(plain: dict, traced: dict) -> Dict[str, float]:
    stats = traced["stats"]
    served = traced["served"]
    spans = traced["spans"]["spans"]
    requests = traced["server_stats"]["requests"]

    def per_call(name: str, scale: float) -> float:
        row = spans.get(name)
        return row["total_s"] / row["count"] * scale if row and row["count"] else 0.0

    wrapped_cpu = sum(row["self_cpu_s"] for row in spans.values())
    appends = spans.get("journal.append", {}).get("count", 0)
    flushes = spans.get("journal.flush", {}).get("count", 0)
    events = traced["server_stats"]["processed"]
    return {
        "server.cpu_us_per_event": traced["server_cpu_s"] / served * 1e6,
        "server.plumbing_us_per_event": (traced["server_cpu_s"] - wrapped_cpu) / served * 1e6,
        "streaming.append_us": per_call("streaming.append", 1e6),
        "digest.us": per_call("digest", 1e6),
        "journal.append_us": per_call("journal.append", 1e6),
        "journal.flush_ms": per_call("journal.flush", 1e3),
        "journal.records_per_flush": appends / flushes if flushes else 0.0,
        "journal.bytes_per_event": traced["wal_bytes"] / events if events else 0.0,
        "admission.accepted": requests["accepted"],
        "admission.duplicates": requests["duplicates"],
        "admission.shed": requests["shed_429"] + requests["shed_503"],
        "admission.degraded": traced["server_stats"]["degraded_decisions"],
        "admission.conflicts": requests["conflicts"],
        "error_rate": stats.failed / stats.sends if stats.sends else 0.0,
        "p50_ms": _latency_ms(plain["stats"], 50),
        "p90_ms": _latency_ms(plain["stats"], 90),
        "p99_ms": percentile(plain["stats"].latencies_ms, 99),
        "loadgen.lateness_p99_ms": percentile(stats.lateness_ms, 99) if stats.lateness_ms else 0.0,
        "loadgen.cpu_share": stats.cpu_s / stats.wall_s if stats.wall_s else 0.0,
        "tracing.overhead": percentile(stats.latencies_ms, 50) / percentile(plain["stats"].latencies_ms, 50) - 1.0,
    }
