"""Command-line interface: ``repro-cache`` / ``python -m repro``.

Subcommands
-----------
``solve``
    Solve a trace off-line (optimal DP) and print the schedule.
``online``
    Replay a trace through an online policy and print cost + counters.
``compare``
    Off-line optimum vs online policies on one trace, as a table.
``generate``
    Emit a synthetic workload as a CSV trace.
``paper``
    Re-print the paper's worked examples (Figs. 2/6/7) with our numbers.
``chaos``
    Sweep seeded fault scenarios (server crashes, transfer loss) through
    the fault-tolerant SC-R policy and report resilience invariants.
    All scenarios are always swept; failures are collected and reported
    per seed.
``supervise``
    Crash-safe replay under a deadline budget with a write-ahead journal
    and periodic checkpoints; ``--resume`` continues a killed run from
    ``snapshot + journal tail``.
``service``
    Solve (and with ``--policy``, serve) a multi-item trace through the
    service layer: one batched kernel call for the whole service under
    ``--kernel auto``, the per-item loop otherwise.
``convert``
    Convert a CSV service log to the binary columnar container of
    :mod:`repro.workloads.columnar` (streaming, bounded memory).
``serve``
    Run the resilient live request-serving front-end
    (:mod:`repro.service.server`): asyncio HTTP/JSON, bounded queues +
    429 backpressure, deadline budgets, per-shard circuit breakers,
    write-ahead journals, graceful SIGTERM drain, ``--resume`` for
    crash-safe restart.
``loadgen``
    Replay a trace (or a synthetic workload) against a running server —
    open-loop at ``--rate`` req/s or closed-loop redrive-until-settled —
    and report latency percentiles, shed rate, and the decision digest.

Exit-code contract (stable; scripts and CI may rely on it):

* ``0`` — success; for ``chaos``, every scenario passed every invariant.
* ``1`` — invariant violation: at least one chaos scenario failed its
  assertions (each failure is listed per seed on stdout/stderr).
* ``2`` — usage or environment error (bad trace path, bad arguments).
* ``3`` — ``supervise`` only: the deadline budget expired and a valid
  *partial* result was produced (resume later with ``--resume``).

Traces use the CSV format of :mod:`repro.workloads.traces`; the
``service`` subcommand also accepts columnar containers (detected by
magic bytes, no flag needed).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.types import CostModel

__all__ = ["main", "build_parser"]

# Each handler imports what it runs, so a ``serve`` start loads neither
# the solvers nor the policies; the parser's choices are therefore
# literals, which ``tests/test_cli.py`` pins to the tables they name.

#: ``--policy`` values: the keys of :func:`_policies`, sorted.
_POLICY_CHOICES = (
    "always-transfer",
    "never-delete",
    "predictive",
    "randomized-ttl",
    "sc",
    "sc-r",
)

#: One ``--kernel`` flag covers both kernel families: ``KERNELS``
#: ("frontier"/"reference" pin the off-line sweep), then the
#: ``ONLINE_KERNELS`` it lacks ("event" pins the online replay); the
#: family a name does not belong to runs its "auto".
_KERNEL_CHOICES = ("auto", "frontier", "reference", "event")


def _policies() -> dict:
    """``--policy`` value -> factory of a fresh online policy."""
    from .online.baselines import AlwaysTransfer, NeverDelete, RandomizedTTL
    from .online.predictive import MarkovPredictor, PredictiveCaching
    from .online.resilient import SpeculativeCachingResilient
    from .online.speculative import SpeculativeCaching

    return {
        "sc": SpeculativeCaching,
        "sc-r": SpeculativeCachingResilient,
        "always-transfer": AlwaysTransfer,
        "never-delete": NeverDelete,
        # Seeded so repeated CLI invocations are byte-identical (the
        # repo-wide determinism contract); pass a different seed via the
        # library API.
        "randomized-ttl": lambda: RandomizedTTL(seed=0),
        "predictive": lambda: PredictiveCaching(MarkovPredictor()),
    }


def _dp_kernel(kernel: str) -> str:
    """The off-line-DP half of the global ``--kernel`` value."""
    from .offline.dp import KERNELS

    return kernel if kernel in KERNELS else "auto"


def _online_kernel(kernel: str) -> str:
    """The online-replay half of the global ``--kernel`` value."""
    from .kernels.online import ONLINE_KERNELS

    return kernel if kernel in ONLINE_KERNELS else "auto"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cache`` argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro-cache",
        description="Cost-driven data caching: optimal off-line DP and "
        "3-competitive online speculative caching (ICPP 2017 reproduction).",
    )
    p.add_argument("--mu", type=float, default=1.0, help="caching cost per time unit")
    p.add_argument("--lam", type=float, default=1.0, help="transfer cost")
    p.add_argument("--origin", type=int, default=0, help="initial data server")
    p.add_argument(
        "--kernel",
        choices=_KERNEL_CHOICES,
        default="auto",
        help="auto (default): the fastest path for each job — the batched "
        "DP sweep (compiled when it builds), one call per instance or "
        "multi-item service, and the vector kernel for plain SC/TTL online "
        "replays.  frontier (the sweep's Python O(n+m+P) loop per item) "
        "and reference (paper-shaped O(mn) DP) pin the off-line sweep; "
        "event pins the per-event online state machine.  Results are "
        "bit-identical whichever you pick",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="optimal off-line schedule for a trace")
    sp.add_argument("trace", help="CSV trace path")
    sp.add_argument("--item", default=None, help="item id to mine from the trace")
    sp.add_argument("--servers", type=int, default=None, help="fleet size m")
    sp.add_argument("--diagram", action="store_true", help="render ASCII diagram")

    op = sub.add_parser("online", help="replay a trace through an online policy")
    op.add_argument("trace", help="CSV trace path")
    op.add_argument("--item", default=None)
    op.add_argument("--servers", type=int, default=None)
    op.add_argument(
        "--policy", choices=_POLICY_CHOICES, default="sc", help="online policy"
    )
    op.add_argument("--epoch", type=int, default=None, help="SC epoch size")
    op.add_argument("--diagram", action="store_true")

    cp = sub.add_parser("compare", help="off-line optimum vs online policies")
    cp.add_argument("trace", help="CSV trace path")
    cp.add_argument("--item", default=None)
    cp.add_argument("--servers", type=int, default=None)

    gp = sub.add_parser("generate", help="emit a synthetic Poisson/Zipf trace")
    gp.add_argument("out", help="output CSV path")
    gp.add_argument("-n", type=int, default=200, help="number of requests")
    gp.add_argument("-m", type=int, default=8, help="number of servers")
    gp.add_argument("--rate", type=float, default=1.0, help="arrival rate")
    gp.add_argument("--zipf", type=float, default=1.0, help="Zipf skew s")
    gp.add_argument("--seed", type=int, default=0)

    sub.add_parser("paper", help="re-print the paper's worked examples")

    ch = sub.add_parser(
        "chaos", help="sweep seeded fault scenarios through SC-R"
    )
    ch.add_argument(
        "trace", nargs="?", default=None,
        help="CSV trace path (omit for a synthetic Poisson/Zipf workload)",
    )
    ch.add_argument("--item", default=None)
    ch.add_argument("--servers", type=int, default=None)
    ch.add_argument("-n", type=int, default=200, help="synthetic request count")
    ch.add_argument("-m", type=int, default=8, help="synthetic fleet size")
    ch.add_argument("--scenarios", type=int, default=20, help="scenario count")
    ch.add_argument("--seed", type=int, default=0, help="base scenario seed")
    ch.add_argument(
        "--crash-rate", type=float, default=1.0,
        help="expected outages per server over the horizon",
    )
    ch.add_argument(
        "--mean-outage", type=float, default=0.05,
        help="mean outage duration as a fraction of the horizon",
    )
    ch.add_argument(
        "--loss", type=float, default=0.05, help="per-attempt transfer loss rate"
    )
    ch.add_argument("-k", "--replicas", type=int, default=2, help="SC-R replica target")
    ch.add_argument("--retries", type=int, default=3, help="retries per source")
    ch.add_argument(
        "--kill-runner", action="store_true",
        help="also kill the runner at a seeded event boundary per scenario "
        "and assert kill/resume equivalence",
    )
    ch.add_argument(
        "--kill-server", action="store_true",
        help="instead of the SC-R sweep, SIGKILL a live serving front-end "
        "subprocess at seeded points under load and assert bit-identical "
        "resume (see `serve`)",
    )
    ch.add_argument(
        "--kill-points", type=int, default=5,
        help="distinct SIGKILL points for --kill-server",
    )
    ch.add_argument(
        "--items", type=int, default=6,
        help="synthetic item count for --kill-server",
    )
    ch.add_argument(
        "--shards", type=int, default=2, help="server shards for --kill-server"
    )
    ch.add_argument(
        "--kill-replica", action="store_true",
        help="cluster failover sweep: SIGKILL replicas of a live replicated "
        "cluster at seeded points under load and assert the merged decision "
        "stream is bit-identical to an uninterrupted single server",
    )
    ch.add_argument(
        "--partition", action="store_true",
        help="cluster failover sweep with network partitions (via per-replica "
        "chaos proxies): one partition that heals mid-batch without failover "
        "and one that rides through failover; implies a proxied cluster",
    )
    ch.add_argument(
        "--cluster-replicas", type=int, default=3,
        help="replica count for --kill-replica/--partition",
    )
    ch.add_argument(
        "--proxy-seed", type=int, default=None,
        help="optional NetworkFaultPlan seed to run the cluster sweep "
        "behind lossy chaos proxies (latency/duplicates/torn writes)",
    )

    sv = sub.add_parser(
        "supervise",
        help="crash-safe replay: journal, checkpoints, deadline budget",
    )
    sv.add_argument(
        "trace", nargs="?", default=None,
        help="CSV trace path (omit for a synthetic Poisson/Zipf workload)",
    )
    sv.add_argument("--item", default=None)
    sv.add_argument("--servers", type=int, default=None)
    sv.add_argument("-n", type=int, default=200, help="synthetic request count")
    sv.add_argument("-m", type=int, default=8, help="synthetic fleet size")
    sv.add_argument(
        "--policy", choices=_POLICY_CHOICES, default="sc-r", help="online policy"
    )
    sv.add_argument("--seed", type=int, default=0, help="workload/fault seed")
    sv.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="fault plan: expected outages per server (0 = no faults)",
    )
    sv.add_argument(
        "--mean-outage", type=float, default=0.05,
        help="fault plan: mean outage duration as a horizon fraction",
    )
    sv.add_argument(
        "--loss", type=float, default=0.0,
        help="fault plan: per-attempt transfer loss rate",
    )
    sv.add_argument("--journal", default=None, help="write-ahead journal path (JSONL)")
    sv.add_argument("--snapshot", default=None, help="checkpoint path")
    sv.add_argument(
        "--snapshot-every", type=int, default=64, help="checkpoint cadence (events)"
    )
    sv.add_argument(
        "--deadline-events", type=int, default=None,
        help="pause after this many delivered events (absolute)",
    )
    sv.add_argument(
        "--deadline-seconds", type=float, default=None,
        help="wall-clock budget for this invocation",
    )
    sv.add_argument(
        "--resume", action="store_true",
        help="continue from --snapshot + --journal instead of starting fresh",
    )

    mp = sub.add_parser(
        "service",
        help="solve/serve a multi-item trace via the service layer",
    )
    mp.add_argument(
        "trace", nargs="?", default=None,
        help="CSV trace path with an item column (omit for a synthetic "
        "Zipf-over-items workload)",
    )
    mp.add_argument("--servers", type=int, default=None, help="fleet size m")
    mp.add_argument("--items", type=int, default=16, help="synthetic item count")
    mp.add_argument("-n", type=int, default=800, help="synthetic total requests")
    mp.add_argument("-m", type=int, default=8, help="synthetic fleet size")
    mp.add_argument(
        "--item-zipf", type=float, default=1.0, help="synthetic item-volume skew"
    )
    mp.add_argument("--seed", type=int, default=0, help="synthetic workload seed")
    mp.add_argument(
        "--policy", choices=_POLICY_CHOICES, default=None,
        help="also serve the items online with this policy "
        "(omit for off-line solve only)",
    )
    mp.add_argument(
        "--top", type=int, default=10, help="breakdown rows to print"
    )

    cv = sub.add_parser(
        "convert",
        help="convert a CSV service log to the binary columnar container",
    )
    cv.add_argument("src", help="CSV trace path")
    cv.add_argument("dest", help="output columnar container path")
    cv.add_argument(
        "--chunk-rows", type=int, default=1 << 16,
        help="rows parsed per chunk (bounds peak memory)",
    )

    sa = sub.add_parser(
        "sample",
        help="hash-sample a columnar trace's items into a smaller container",
    )
    sa.add_argument("src", help="columnar container (or CSV trace) path")
    sa.add_argument("dest", help="output columnar container path")
    sa.add_argument(
        "--rate", type=float, default=0.1,
        help="item sampling rate p in (0, 1]; an item is kept iff "
        "hash(item, seed) < p * 2^64",
    )
    sa.add_argument("--seed", type=int, default=0, help="hash seed")
    sa.add_argument(
        "--window", default=None, metavar="T0:T1",
        help="keep only rows with T0 <= time < T1",
    )
    sa.add_argument(
        "--chunk-rows", type=int, default=1 << 20,
        help="rows scanned per chunk (bounds peak memory)",
    )
    sa.add_argument(
        "--estimate", action="store_true",
        help="also estimate the full-trace offline cost from the sample "
        "(Horvitz-Thompson + bootstrap CI)",
    )
    sa.add_argument(
        "--confidence", type=float, default=0.95,
        help="confidence level of the --estimate interval",
    )
    sa.add_argument(
        "--top-exact", type=int, default=64,
        help="heaviest items solved exactly by --estimate "
        "(certainty stratum)",
    )

    pf = sub.add_parser(
        "profile",
        help="single-pass workload profile of a columnar trace",
    )
    pf.add_argument("trace", help="columnar container (or CSV trace) path")
    pf.add_argument(
        "--bins", type=int, default=48,
        help="log-spaced interarrival histogram bins",
    )
    pf.add_argument(
        "--top", type=int, default=10, help="items in the per-item table"
    )
    pf.add_argument(
        "--predictability-items", type=int, default=8,
        help="heaviest items to run the LZ/Fano predictability estimate on",
    )
    pf.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the profile as JSON ('-' for stdout)",
    )

    rp = sub.add_parser(
        "serve", help="run the resilient live request-serving front-end"
    )
    rp.add_argument("--host", default="127.0.0.1")
    rp.add_argument(
        "--port", type=int, default=0, help="0 = ephemeral (see server.json)"
    )
    rp.add_argument("--shards", type=int, default=4, help="solver shard count")
    rp.add_argument("-m", type=int, default=8, help="fleet size m")
    rp.add_argument(
        "--queue-depth", type=int, default=256,
        help="bounded per-shard admission queue (429 past it)",
    )
    rp.add_argument(
        "--degrade-watermark", type=float, default=0.75,
        help="queue fraction past which service degrades to "
        "cheapest-feasible decisions",
    )
    rp.add_argument(
        "--deadline-ms", type=float, default=1000.0,
        help="default per-request deadline budget",
    )
    rp.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive shard failures that open the circuit breaker",
    )
    rp.add_argument(
        "--breaker-cooldown", type=float, default=1.0,
        help="seconds an open breaker sheds before the half-open probe",
    )
    rp.add_argument(
        "--journal-dir", default=None,
        help="per-shard write-ahead journal directory (omit = in-memory, "
        "not crash-safe)",
    )
    rp.add_argument(
        "--resume", action="store_true",
        help="replay existing journals in --journal-dir before serving",
    )
    rp.add_argument(
        "--no-sync", action="store_true",
        help="skip fsync on journal batches (faster, last-batch durability "
        "only as good as the page cache)",
    )
    rp.add_argument(
        "--dedupe-window", type=float, default=None,
        help="bound the per-shard (item,time) dedupe map to this sliding "
        "time window behind the shard frontier; evicted duplicates get 409 "
        "(omit = unbounded, exact dedupe forever)",
    )
    rp.add_argument(
        "--owned-shards", default=None,
        help="comma-separated subset of [0,--shards) this replica serves "
        "(requests for other shards get 421; used by the cluster supervisor)",
    )
    rp.add_argument(
        "--meta-name", default="server.json",
        help="discovery-file name inside --journal-dir",
    )
    rp.add_argument(
        "--replicas", type=int, default=1,
        help="run a replicated failover cluster of this many server "
        "subprocesses instead of one in-process server (requires "
        "--journal-dir; shards are partitioned round-robin and fail over "
        "across replicas via the shared per-shard WALs)",
    )
    rp.add_argument(
        "--proxy-seed", type=int, default=None,
        help="with --replicas > 1: put a seeded chaos proxy in front of "
        "every replica (NetworkFaultPlan seed; latency/duplication flags "
        "use their defaults)",
    )

    px = sub.add_parser(
        "proxy",
        help="deterministic wire-chaos proxy in front of a serving endpoint",
    )
    px.add_argument("--upstream-host", default="127.0.0.1")
    px.add_argument("--upstream-port", type=int, required=True)
    px.add_argument("--host", default="127.0.0.1")
    px.add_argument(
        "--port", type=int, default=0, help="0 = ephemeral (see --meta)"
    )
    px.add_argument(
        "--meta", default=None,
        help="write {host, port} discovery JSON here once bound",
    )
    px.add_argument("--seed", type=int, default=0, help="perturbation seed")
    px.add_argument(
        "--latency", type=float, default=0.0,
        help="base added latency per request (seconds)",
    )
    px.add_argument(
        "--jitter", type=float, default=0.0,
        help="uniform extra latency on top of --latency (seconds)",
    )
    px.add_argument(
        "--reset-rate", type=float, default=0.0,
        help="per-message probability of a mid-response connection reset",
    )
    px.add_argument(
        "--torn-rate", type=float, default=0.0,
        help="per-message probability of a byte-fragmented response",
    )
    px.add_argument(
        "--dup-rate", type=float, default=0.0,
        help="per-message probability the request is forwarded twice",
    )
    px.add_argument(
        "--reorder-rate", type=float, default=0.0,
        help="per-message probability the response is held (--reorder-hold) "
        "so concurrent connections overtake it",
    )
    px.add_argument(
        "--reorder-hold", type=float, default=0.05,
        help="hold duration for reordered responses (seconds)",
    )
    px.add_argument(
        "--blackhole", default=None, metavar="A:B[,C:D...]",
        help="uptime windows (seconds) during which requests are accepted "
        "but never answered",
    )
    px.add_argument(
        "--partition-window", default=None, metavar="A:B[,C:D...]",
        help="uptime windows (seconds) during which connections are dropped "
        "and live relays aborted",
    )

    lg = sub.add_parser(
        "loadgen", help="replay a trace against a running server"
    )
    lg.add_argument(
        "trace", nargs="?", default=None,
        help="columnar trace container (omit for a synthetic workload)",
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument(
        "--port", type=int, default=None,
        help="server port (required unless --cluster-map is given)",
    )
    lg.add_argument(
        "--cluster-map", default=None,
        help="drive a replicated cluster through its cluster.json routing "
        "map (closed-loop, failover-aware redrive) instead of one server",
    )
    lg.add_argument(
        "--connect-timeout", type=float, default=5.0,
        help="per-connect timeout (seconds)",
    )
    lg.add_argument(
        "--read-timeout", type=float, default=15.0,
        help="per-request response timeout (seconds); a timed-out "
        "connection is dropped and the event redriven through dedupe",
    )
    lg.add_argument(
        "--hedge-ms", type=float, default=None,
        help="cluster mode: fire a hedged duplicate on a fresh connection "
        "if no answer after this many ms (dedupe-safe)",
    )
    lg.add_argument(
        "--rate", type=float, default=None,
        help="open-loop target req/s (omit for closed-loop "
        "redrive-until-settled)",
    )
    lg.add_argument(
        "--concurrency", type=int, default=8, help="client lanes/connections"
    )
    lg.add_argument(
        "--retries", type=int, default=8,
        help="closed-loop retries per event before giving up",
    )
    lg.add_argument("--limit", type=int, default=None, help="event cap")
    lg.add_argument("--items", type=int, default=8, help="synthetic item count")
    lg.add_argument("-n", type=int, default=400, help="synthetic event count")
    lg.add_argument("-m", type=int, default=8, help="synthetic fleet size")
    lg.add_argument("--seed", type=int, default=0, help="synthetic seed")
    lg.add_argument(
        "--json", default=None, help="also write the report to this path"
    )

    ep = sub.add_parser(
        "experiment", help="regenerate a DESIGN.md experiment table"
    )
    ep.add_argument(
        "name",
        nargs="?",
        default=None,
        help="experiment id (omit to list available experiments)",
    )

    vp = sub.add_parser("svg", help="render a trace's optimal schedule as SVG")
    vp.add_argument("trace", help="CSV trace path")
    vp.add_argument("out", help="output .svg path")
    vp.add_argument("--item", default=None)
    vp.add_argument("--servers", type=int, default=None)
    vp.add_argument("--width", type=int, default=800)

    sp2 = sub.add_parser(
        "sensitivity", help="lambda-sensitivity table and breakpoints"
    )
    sp2.add_argument("trace", help="CSV trace path")
    sp2.add_argument("--item", default=None)
    sp2.add_argument("--servers", type=int, default=None)
    sp2.add_argument("--lo", type=float, default=0.1, help="lambda range start")
    sp2.add_argument("--hi", type=float, default=10.0, help="lambda range end")
    sp2.add_argument("--points", type=int, default=8, help="grid size")
    return p


def _load(args: argparse.Namespace):
    from .workloads.traces import mine_instance

    cost = CostModel(mu=args.mu, lam=args.lam)
    return mine_instance(
        args.trace,
        item=args.item,
        num_servers=args.servers,
        cost=cost,
        origin=args.origin,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    from .offline.dp import solve_offline
    from .schedule.diagram import render_schedule

    inst = _load(args)
    res = solve_offline(inst, kernel=_dp_kernel(args.kernel))
    sched = res.schedule()
    print(f"instance: {inst}")
    print(f"optimal cost C(n) = {res.optimal_cost:.6g} "
          f"(lower bound B_n = {res.lower_bound:.6g})")
    print(sched.describe(inst.cost))
    if args.diagram:
        print(render_schedule(sched, inst))
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from .offline.dp import solve_offline
    from .online.speculative import SpeculativeCaching
    from .schedule.diagram import render_schedule

    inst = _load(args)
    if args.policy == "sc" and args.epoch is not None:
        algo = SpeculativeCaching(epoch_size=args.epoch)
    else:
        algo = _policies()[args.policy]()
    run = algo.run(inst, kernel=_online_kernel(args.kernel))
    opt = solve_offline(inst, kernel=_dp_kernel(args.kernel)).optimal_cost
    print(f"instance: {inst}")
    print(f"policy {run.algorithm}: cost = {run.cost:.6g} "
          f"(optimal {opt:.6g}, ratio {run.cost / opt:.4f})")
    for key, value in sorted(run.counters.items()):
        print(f"  {key}: {value}")
    if args.diagram:
        print(render_schedule(run.schedule, inst))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .offline.dp import solve_offline

    inst = _load(args)
    opt = solve_offline(inst, kernel=_dp_kernel(args.kernel)).optimal_cost
    rows = [{"policy": "off-line optimal", "cost": opt, "ratio": 1.0}]
    policies = _policies()
    for key in _POLICY_CHOICES:
        # each factory yields a fresh policy
        run = policies[key]().run(inst, kernel=_online_kernel(args.kernel))
        rows.append(
            {"policy": run.algorithm, "cost": run.cost, "ratio": run.cost / opt}
        )
    print(f"instance: {inst}")
    print(format_table(rows, headers=["policy", "cost", "ratio"], precision=5))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads.synthetic import poisson_zipf_instance
    from .workloads.traces import TraceRecord, write_trace

    inst = poisson_zipf_instance(
        n=args.n,
        m=args.m,
        rate=args.rate,
        zipf_s=args.zipf,
        cost=CostModel(mu=args.mu, lam=args.lam),
        origin=args.origin,
        rng=args.seed,
    )
    records = [
        TraceRecord(time=float(inst.t[i]), server=int(inst.srv[i]))
        for i in range(1, inst.n + 1)
    ]
    write_trace(records, args.out)
    print(f"wrote {len(records)} requests over {args.m} servers to {args.out}")
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    from .offline.dp import solve_offline
    from .online.speculative import SpeculativeCaching
    from .paperdata import fig2_instance, fig6_instance, fig7_instance
    from .schedule.diagram import render_schedule

    inst = fig6_instance()
    res = solve_offline(inst)
    print("Fig 6 running example (m=4, mu=lam=1):")
    print(f"  C = {[round(float(c), 4) for c in res.C]}")
    print(f"  D = {[round(float(d), 4) for d in res.D]}")
    print(f"  optimal C(7) = {res.optimal_cost:.4g}  (paper: 8.9)")
    print(render_schedule(res.schedule(), inst))

    inst2 = fig2_instance()
    res2 = solve_offline(inst2)
    sched2 = res2.schedule()
    print("\nFig 2 standard-form example (m=3, mu=lam=1):")
    print(
        f"  caching {sched2.caching_cost(inst2.cost):.4g} "
        f"+ transfer {sched2.transfer_cost(inst2.cost):.4g} "
        f"= {res2.optimal_cost:.4g}  (paper: 3.2 + 4.0 = 7.2)"
    )

    inst7 = fig7_instance()
    run = SpeculativeCaching(epoch_size=5).run(inst7)
    print("\nFig 7 SC epoch (5 transfers, mu=lam=1):")
    print(f"  cost = {run.cost:.4g}, counters = {run.counters}")
    print(render_schedule(run.schedule, inst7))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import chaos
    from .online.resilient import SpeculativeCachingResilient
    from .workloads.synthetic import poisson_zipf_instance

    if args.kill_replica or args.partition:
        return _cmd_chaos_cluster(args)
    if args.kill_server:
        return _cmd_chaos_server(args)
    if args.trace is not None:
        inst = _load(args)
    else:
        inst = poisson_zipf_instance(
            n=args.n,
            m=args.servers if args.servers is not None else args.m,
            cost=CostModel(mu=args.mu, lam=args.lam),
            origin=args.origin,
            rng=args.seed,
        )
    plans = chaos.scenario_plans(
        inst,
        scenarios=args.scenarios,
        base_seed=args.seed,
        crash_rate=args.crash_rate,
        mean_outage=args.mean_outage,
        loss_rate=args.loss,
    )
    factory = lambda: SpeculativeCachingResilient(
        replicas=args.replicas, max_retries=args.retries
    )
    # Collect-all mode: every scenario is swept even after a failure, so
    # the report names every bad seed; the exit code then reflects the
    # sweep as a whole (0 = all held, 1 = at least one violation).
    outcomes = chaos.run_chaos_suite(
        inst, plans, factory, fail_fast=False, kill_runner=args.kill_runner
    )
    print(f"instance: {inst}")
    print(
        chaos.chaos_report(
            outcomes,
            title=f"chaos sweep: SC-R(k={args.replicas}), "
            f"{args.scenarios} scenarios, crash-rate {args.crash_rate:g}, "
            f"loss {args.loss:g}"
            + (", runner kills on" if args.kill_runner else ""),
        )
    )
    checks = "determinism, accounting, bounded recovery"
    if args.kill_runner:
        checks += ", kill/resume equivalence"
    return _chaos_exit(outcomes, "scenarios", f"all invariants held ({checks})")


def _chaos_exit(outcomes, noun: str, success: str) -> int:
    """Exit status of a chaos sweep: 0 after printing ``success`` if every
    outcome held; else every violation and the failed count on stderr, 1."""
    failed = [o for o in outcomes if not o.ok]
    if not failed:
        print(success)
        return 0
    for o in failed:
        for msg in o.violations:
            print(f"INVARIANT VIOLATION: {msg}", file=sys.stderr)
    print(f"{len(failed)}/{len(outcomes)} {noun} FAILED", file=sys.stderr)
    return 1


def _chaos_events(args: argparse.Namespace) -> list:
    """The wire events of a live chaos sweep: the trace, or synthetic."""
    from .service.loadgen import events_from_trace, synthetic_events

    if args.trace is not None:
        return events_from_trace(args.trace, limit=args.n)
    return synthetic_events(
        items=args.items,
        count=args.n,
        num_servers=args.servers if args.servers is not None else args.m,
        seed=args.seed,
    )


def _cmd_chaos_server(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .faults import chaos

    events = _chaos_events(args)
    outcomes = chaos.server_kill_resume_suite(
        events,
        kill_points=args.kill_points,
        base_seed=args.seed,
        shards=args.shards,
        num_servers=args.servers if args.servers is not None else args.m,
    )
    print(
        format_table(
            [o.row() for o in outcomes],
            title=f"server kill/resume: {len(events)} events, "
            f"{len(outcomes)} SIGKILL points, {args.shards} shards",
        )
    )
    return _chaos_exit(
        outcomes,
        "kill points",
        "all kill points resumed bit-identically "
        "(merged decision digests match the uninterrupted run)",
    )


def _cmd_chaos_cluster(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .faults import chaos

    events = _chaos_events(args)
    outcomes = chaos.cluster_failover_suite(
        events,
        scenarios=args.kill_points,
        base_seed=args.seed,
        shards=args.shards,
        replicas=args.cluster_replicas,
        num_servers=args.servers if args.servers is not None else args.m,
        include_kills=args.kill_replica or not args.partition,
        include_partitions=args.partition,
        proxy_seed=args.proxy_seed,
    )
    print(
        format_table(
            [o.row() for o in outcomes],
            title=f"cluster failover: {len(events)} events, "
            f"{args.cluster_replicas} replicas, {args.shards} shards, "
            f"{len(outcomes)} scenarios"
            + (f", proxy seed {args.proxy_seed}"
               if args.proxy_seed is not None else ""),
        )
    )
    return _chaos_exit(
        outcomes,
        "scenarios",
        "all scenarios converged bit-identically "
        "(merged cluster digests match the uninterrupted single server)",
    )


def _cmd_supervise(args: argparse.Namespace) -> int:
    from .faults.plan import FaultPlan
    from .runtime import RunBudget, Supervisor
    from .workloads.synthetic import poisson_zipf_instance

    if args.trace is not None:
        inst = _load(args)
    else:
        inst = poisson_zipf_instance(
            n=args.n,
            m=args.servers if args.servers is not None else args.m,
            cost=CostModel(mu=args.mu, lam=args.lam),
            origin=args.origin,
            rng=args.seed,
        )
    plan = None
    if args.crash_rate > 0 or args.loss > 0:
        plan = FaultPlan.generate(
            seed=args.seed,
            num_servers=inst.num_servers,
            start=float(inst.t[0]),
            end=float(inst.t[-1]),
            crash_rate=args.crash_rate,
            mean_outage=args.mean_outage,
            loss_rate=args.loss,
        )
    if args.resume and (args.snapshot is None or args.journal is None):
        print("error: --resume requires --snapshot and --journal", file=sys.stderr)
        return 2
    if plan is not None and args.policy != "sc-r":
        print(
            f"error: policy {args.policy!r} is not fault-aware; "
            f"use --policy sc-r with --crash-rate/--loss",
            file=sys.stderr,
        )
        return 2
    factory = _policies()[args.policy]
    supervisor = Supervisor(
        factory,
        inst,
        plan=plan,
        journal_path=args.journal,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
    )
    budget = RunBudget(
        max_events=args.deadline_events, max_seconds=args.deadline_seconds
    )
    run = supervisor.resume(budget) if args.resume else supervisor.run(budget)
    res = run.result
    status = "COMPLETE" if run.completed else "PARTIAL"
    print(f"instance: {inst}")
    print(
        f"{status}: {run.events_delivered}/{run.events_total} events "
        f"(completion {run.completion_fraction:.1%}), "
        f"schedule valid up to t={run.last_time:.6g}"
    )
    print(f"policy {res.algorithm}: cost = {res.cost:.6g}")
    if plan is not None:
        print(
            f"  penalties = {res.penalty_cost:.6g}, "
            f"blackouts = {len(res.blackouts)}, "
            f"fault log = {len(res.fault_log)} entries"
        )
    if args.journal:
        print(f"  journal: {args.journal} ({run.last_seq + 1} records)")
    if args.snapshot:
        print(f"  snapshot: {args.snapshot}")
    if not run.completed:
        print(
            "deadline budget exhausted; resume with --resume "
            "(same --journal/--snapshot)",
        )
        return 3
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .service import MultiItemInstance, MultiItemOnlineService
    from .service import multi_item_workload, solve_offline_multi
    from .workloads.columnar import is_columnar
    from .workloads.traces import read_trace

    cost = CostModel(mu=args.mu, lam=args.lam)
    if args.trace is not None:
        if is_columnar(args.trace):
            svc = MultiItemInstance.from_columnar(
                args.trace,
                num_servers=args.servers,
                cost=cost,
                origin=args.origin,
            )
        else:
            svc = MultiItemInstance.from_records(
                read_trace(args.trace),
                num_servers=args.servers,
                cost=cost,
                origin=args.origin,
            )
    else:
        svc = multi_item_workload(
            num_items=args.items,
            n_total=args.n,
            m=args.servers if args.servers is not None else args.m,
            item_zipf=args.item_zipf,
            cost=cost,
            rng=args.seed,
        )
    print(f"service: {svc}")
    off = solve_offline_multi(svc, kernel=_dp_kernel(args.kernel))
    online = None
    if args.policy is not None:
        online = MultiItemOnlineService(_policies()[args.policy]).run(
            svc, kernel=_online_kernel(args.kernel)
        )
    breakdown = off.cost_breakdown()
    rows = [
        {
            "item": name,
            "requests": svc.items[name].n,
            "opt cost": c,
            **(
                {"online cost": online.runs[name].cost}
                if online is not None
                else {}
            ),
        }
        for name, c in list(breakdown.items())[: args.top]
    ]
    print(format_table(rows, precision=5))
    if len(breakdown) > args.top:
        print(f"  ... and {len(breakdown) - args.top} more items")
    print(
        f"off-line optimal total = {off.total_cost:.6g} "
        f"(lower bound {off.total_lower_bound:.6g})"
    )
    if online is not None:
        print(
            f"policy {args.policy}: total = {online.total_cost:.6g} "
            f"(ratio {online.total_cost / off.total_cost:.4f})"
        )
        for key, value in sorted(online.counters().items()):
            print(f"  {key}: {value}")
    return 0


def _parse_windows(spec: Optional[str]):
    """``"A:B,C:D"`` -> ``((A, B), (C, D))`` for NetworkFaultPlan windows."""
    if not spec:
        return ()
    windows = []
    for part in spec.split(","):
        lo, _, hi = part.partition(":")
        windows.append((float(lo), float(hi)))
    return tuple(windows)


def _plan_from_args(args: argparse.Namespace):
    from .faults.plan import NetworkFaultPlan

    return NetworkFaultPlan(
        seed=args.seed,
        latency=args.latency,
        jitter=args.jitter,
        reset_rate=args.reset_rate,
        torn_rate=args.torn_rate,
        dup_rate=args.dup_rate,
        reorder_rate=args.reorder_rate,
        reorder_hold=args.reorder_hold,
        blackhole_windows=_parse_windows(args.blackhole),
        partition_windows=_parse_windows(args.partition_window),
    )


def _cmd_proxy(args: argparse.Namespace) -> int:
    from .service.proxy import run_proxy

    return run_proxy(
        args.upstream_host,
        args.upstream_port,
        plan=_plan_from_args(args),
        host=args.host,
        port=args.port,
        meta_path=args.meta,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServerConfig, run_server

    if args.replicas > 1:
        return _cmd_serve_cluster(args)
    owned = None
    if args.owned_shards is not None:
        owned = tuple(
            int(s) for s in args.owned_shards.split(",") if s.strip() != ""
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        num_servers=args.m,
        mu=args.mu,
        lam=args.lam,
        origin=args.origin,
        queue_depth=args.queue_depth,
        degrade_watermark=args.degrade_watermark,
        deadline_ms=args.deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        journal_dir=args.journal_dir,
        resume=args.resume,
        sync=not args.no_sync,
        owned_shards=owned,
        dedupe_window=args.dedupe_window,
        meta_name=args.meta_name,
    )
    return run_server(config)


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from .faults.plan import NetworkFaultPlan
    from .service.cluster import ClusterConfig, run_cluster

    if args.journal_dir is None:
        print(
            "error: --replicas > 1 requires --journal-dir "
            "(the shared per-shard WALs are what failover resumes from)",
            file=sys.stderr,
        )
        return 2
    plan = None
    if args.proxy_seed is not None:
        plan = NetworkFaultPlan(seed=args.proxy_seed)
    config = ClusterConfig(
        journal_dir=args.journal_dir,
        replicas=args.replicas,
        shards=args.shards,
        num_servers=args.m,
        mu=args.mu,
        lam=args.lam,
        origin=args.origin,
        host=args.host,
        queue_depth=args.queue_depth,
        degrade_watermark=args.degrade_watermark,
        deadline_ms=args.deadline_ms,
        dedupe_window=args.dedupe_window,
        sync=not args.no_sync,
        proxy_plan=plan,
    )
    return run_cluster(config)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from .service.loadgen import (
        events_from_trace,
        replay,
        replay_cluster,
        synthetic_events,
    )

    if args.cluster_map is None and args.port is None:
        print(
            "error: --port is required unless --cluster-map is given",
            file=sys.stderr,
        )
        return 2
    if args.trace is not None:
        events = events_from_trace(args.trace, limit=args.limit)
    else:
        events = synthetic_events(
            items=args.items, count=args.n, num_servers=args.m, seed=args.seed
        )
        if args.limit is not None:
            events = events[: args.limit]
    if args.cluster_map is not None:
        result = replay_cluster(
            args.cluster_map,
            events,
            concurrency=args.concurrency,
            retries=args.retries,
            connect_timeout=args.connect_timeout,
            read_timeout=args.read_timeout,
            hedge=args.hedge_ms / 1000.0 if args.hedge_ms else None,
        )
    else:
        result = replay(
            args.host,
            args.port,
            events,
            rate=args.rate,
            concurrency=args.concurrency,
            retries=args.retries,
            connect_timeout=args.connect_timeout,
            read_timeout=args.read_timeout,
        )
    report = result.to_dict()
    if args.cluster_map is not None:
        mode = "cluster closed-loop"
    elif args.rate:
        mode = f"open-loop @ {args.rate:g} req/s"
    else:
        mode = "closed-loop"
    print(
        f"{mode}: {report['sent']} events in {report['elapsed_s']:.2f}s "
        f"({report['achieved_rps']:.0f} req/s achieved)"
    )
    print(
        f"  accepted {report['accepted']}, shed events {report['shed_events']} "
        f"({report['shed_rate']:.1%}), shed answers {report['shed_answers']}, "
        f"degraded {report['degraded']}, duplicates {report['duplicates']}, "
        f"give-ups {report['give_ups']}"
    )
    print(
        f"  latency p50 {report['p50_ms']:.2f} ms, "
        f"p90 {report['p90_ms']:.2f} ms, p99 {report['p99_ms']:.2f} ms"
    )
    if report["digest"] is not None:
        print(
            f"  server digest {report['digest']}, optimal cost "
            f"{report['optimal_cost']:.6g}, baseline "
            f"{report['baseline_cost']:.6g}"
        )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"  report written to {args.json}")
    return 0 if report["give_ups"] == 0 else 1


def _cmd_convert(args: argparse.Namespace) -> int:
    import os

    from .workloads.columnar import convert_csv

    rows = convert_csv(args.src, args.dest, chunk_rows=args.chunk_rows)
    src_bytes = os.path.getsize(args.src)
    dest_bytes = os.path.getsize(args.dest)
    print(
        f"converted {rows} rows: {args.src} ({src_bytes} bytes) -> "
        f"{args.dest} ({dest_bytes} bytes, "
        f"{dest_bytes / max(src_bytes, 1):.2f}x)"
    )
    return 0


def _open_columnar(path: str) -> "object":
    """Open a columnar container, or columnarise a CSV trace in memory."""
    from .workloads.columnar import ColumnarTrace, is_columnar
    from .workloads.traces import read_trace

    if is_columnar(path):
        return ColumnarTrace.open(path)
    return ColumnarTrace.from_records(read_trace(path))


def _parse_window(spec: Optional[str]) -> Optional[tuple]:
    if spec is None:
        return None
    try:
        t0, t1 = spec.split(":", 1)
        return (float(t0), float(t1))
    except ValueError:
        raise ValueError(
            f"--window must look like T0:T1, got {spec!r}"
        ) from None


def _cmd_sample(args: argparse.Namespace) -> int:
    from .workloads.sampling import estimate_offline_cost, sample_columnar

    trace = _open_columnar(args.src)
    stats = sample_columnar(
        trace,
        args.dest,
        rate=args.rate,
        seed=args.seed,
        window=_parse_window(args.window),
        chunk_rows=args.chunk_rows,
    )
    print(
        f"sampled {args.src} -> {args.dest} at rate {stats.rate} "
        f"(seed {stats.seed}): kept {stats.rows_kept}/{stats.rows_in} rows "
        f"({stats.row_fraction:.2%}), {stats.items_kept}/{stats.items_in} "
        f"items"
    )
    if args.estimate:
        est = estimate_offline_cost(
            trace,
            rate=args.rate,
            seed=args.seed,
            cost=CostModel(mu=args.mu, lam=args.lam),
            origin=args.origin,
            confidence=args.confidence,
            top_exact=args.top_exact,
            chunk_rows=args.chunk_rows,
        )
        print(
            f"estimated offline cost {est.estimate:.6g} "
            f"[{est.ci_lo:.6g}, {est.ci_hi:.6g}]@{est.confidence:.0%} "
            f"(solved {est.items_solved}/{est.items_total} items, "
            f"{est.solve_fraction:.2%} of rows)"
        )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .workloads.profiler import profile_trace

    stats = profile_trace(
        _open_columnar(args.trace),
        bins=args.bins,
        predictability_items=args.predictability_items,
        top_items=args.top,
    )
    # With JSON going to stdout, keep stdout pipe-parseable: the human
    # table would otherwise prefix the payload and break json.load.
    if args.json != "-":
        print(stats.describe(top=args.top))
    if args.json is not None:
        payload = _json.dumps(stats.to_dict(top=args.top), indent=2)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
            print(f"wrote {args.json}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .analysis.experiments import list_experiments, run_experiment

    if args.name is None:
        print("available experiments:")
        for name in list_experiments():
            print(f"  {name}")
        return 0
    try:
        print(run_experiment(args.name))
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from .offline.dp import solve_offline
    from .schedule.svg import write_svg

    inst = _load(args)
    res = solve_offline(inst, kernel=_dp_kernel(args.kernel))
    write_svg(
        res.schedule(),
        inst,
        args.out,
        width=args.width,
        title=f"optimal schedule, C(n) = {res.optimal_cost:.6g}",
    )
    print(f"wrote {args.out} (optimal cost {res.optimal_cost:.6g})")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.tables import format_table
    from .offline.parametric import lambda_breakpoints, lambda_sensitivity

    inst = _load(args)
    grid = np.geomspace(args.lo, args.hi, args.points)
    points = lambda_sensitivity(inst, grid)
    rows = [
        {
            "lambda": p.lam,
            "optimal cost": p.optimal_cost,
            "transfers": p.transfers,
            "copy-time": p.copy_time,
        }
        for p in points
    ]
    print(format_table(rows, precision=5, title=f"instance: {inst}"))
    bps = lambda_breakpoints(inst, args.lo, args.hi)
    if bps:
        print("structure breakpoints at lambda ≈ " + ", ".join(f"{b:.4g}" for b in bps))
    else:
        print("no structure change in this lambda range")
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "online": _cmd_online,
    "compare": _cmd_compare,
    "generate": _cmd_generate,
    "paper": _cmd_paper,
    "chaos": _cmd_chaos,
    "supervise": _cmd_supervise,
    "service": _cmd_service,
    "serve": _cmd_serve,
    "proxy": _cmd_proxy,
    "loadgen": _cmd_loadgen,
    "convert": _cmd_convert,
    "sample": _cmd_sample,
    "profile": _cmd_profile,
    "experiment": _cmd_experiment,
    "svg": _cmd_svg,
    "sensitivity": _cmd_sensitivity,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
