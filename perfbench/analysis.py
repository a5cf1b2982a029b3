"""Analysis workloads: service log -> columnar -> per-item costs -> report.

One pipeline pass runs, in order, ``profile_trace``, the exact per-item
offline solve (``solve_trace_costs``, whose sum is ``exact_offline_cost``),
the batched SC replay (``online_trace_costs``), the sampled estimate with
its confidence interval (``estimate_offline_cost``) and the SC/OPT
report.  Passes repeat until the run's seconds are used up; the pass
time is the unit of latency.

Correctness, checked outside the timed passes: every pass yields the
same per-item OPT and SC costs; their hash equals the golden hash
computed with the oracle paths (when the seed has one); a sample of
items matches the oracle paths bit for bit on every seed; every per-item
SC/OPT ratio is at most 3; and the estimate's interval covers the exact
cost.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles
from typing import Callable, Dict, List, Optional

from perfbench import inputs
from perfbench.spans import Tracer, diff

#: Workload -> (log shape, estimate sample rate).  On the hot log the
#: rate keeps about 16 of the 32 tail items, above the ~10 the interval
#: needs to be calibrated.
SHAPES = {"analysis-hot": (inputs.HOT, 0.5)}
TOP_EXACT = 32
#: Seed of the estimate's item sample (a pipeline setting, not an input).
ESTIMATE_SEED = 7
CONFIDENCE = 0.999
#: The set-up is repeated, untimed by the passes, before every
#: this-many-th untraced pass as well as once before the first: the
#: host's speed changes over seconds, so samples spread over the run
#: give a steadier median than a block of them.  With ~5 samples a run
#: (every third pass) ten seeds spread ~0.4 of their median; every pass
#: would add ~10 s to a run.
SETUP_EVERY = 2
#: Oracle spot check per run: items taken in name-hash order while their
#: rows fit this budget.
ORACLE_ROWS = 20_000
ORACLE_ITEMS = 100
RATIO_LIMIT = 3.0 * (1 + 1e-12)


def cost_hash(opt: Dict[str, float], sc: Dict[str, float]) -> str:
    rows = sorted((name, repr(opt[name]), repr(sc[name])) for name in opt)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _rss_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field}")


class Setup:
    """The generated log as CSV, and its timed ``convert_csv`` + open."""

    def __init__(self, shape: inputs.TraceShape, seed: int, workdir: Path):
        self.workdir = workdir
        self.csv = workdir / "trace.csv"
        inputs.write_csv(self.csv, *inputs.generate(shape, seed))
        #: (convert + open, convert) seconds of every set-up.
        self.times: List[tuple] = []

    def _dest(self) -> Path:
        return self.workdir / f"trace-{len(self.times)}.col"

    def open(self):
        """Convert and open the log; returns the columnar trace."""
        from repro.workloads import ColumnarTrace
        from repro.workloads.columnar import convert_csv

        dest = self._dest()
        t0 = time.perf_counter()
        convert_csv(self.csv, dest)
        t1 = time.perf_counter()
        trace = ColumnarTrace.open(dest)
        self.times.append((time.perf_counter() - t0, t1 - t0))
        return trace

    def again(self) -> None:
        """One more timed set-up whose trace is dropped."""
        dest = self._dest()
        self.open().close()
        dest.unlink()


def install(tracer: Tracer) -> None:
    """Wrap the kernel calls where the sampling stages look them up."""
    from repro.kernels import batch, online
    from repro.workloads import sampling

    def extensions(tr: Tracer, runs) -> None:
        tr.add("extensions", sum(run.counters.get("extensions", 0) for run in runs))

    tracer.wrap(batch.BatchLayout, "from_columns", "batch.layout")
    tracer.wrap(batch, "solve_layout", "batch.sweep")
    tracer.wrap(online, "run_online_layout", "online.kernel", on_result=extensions)
    tracer.wrap(sampling, "bootstrap_ci", "bootstrap")
    tracer.wrap(sampling, "bootstrap_t_ci", "bootstrap")


def pipeline(trace, rate: float, tracer=None) -> dict:
    """One pass; returns per-item costs, the estimate and the report."""
    from repro.workloads import estimate_offline_cost, profile_trace
    from repro.workloads.sampling import online_trace_costs, solve_trace_costs

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("profiler"):
        profile_trace(trace)
    with span("sampling.solve"):
        opt = solve_trace_costs(trace)
    with span("sampling.online"):
        sc = online_trace_costs(trace)
    with span("sampling.estimate"):
        est = estimate_offline_cost(
            trace, rate=rate, seed=ESTIMATE_SEED, top_exact=TOP_EXACT, confidence=CONFIDENCE
        )
    exact = sum(opt.values())
    ratios = {name: sc[name] / opt[name] for name in opt}
    report = {"exact": exact, "online": sum(sc.values()), "max_ratio": max(ratios.values())}
    return {"opt": opt, "sc": sc, "estimate": est, "report": report}


def oracle_costs(trace, names: List[str]) -> tuple:
    """Per-item OPT and SC of ``names`` through the oracle paths."""
    from repro.online import SpeculativeCaching
    from repro.service.multi import MultiItemInstance, solve_offline_multi

    service = MultiItemInstance.from_columnar(trace)
    chosen = MultiItemInstance({name: service.items[name] for name in names})
    off = solve_offline_multi(chosen, kernel="frontier")
    opt = {name: off.per_item[name].optimal_cost for name in names}
    sc = {name: SpeculativeCaching().run(chosen.items[name], kernel="event").cost for name in names}
    return opt, sc


def spot_check_items(trace) -> List[str]:
    import numpy as np

    counts = np.bincount(np.asarray(trace.item_ids), minlength=len(trace.item_table))
    order = sorted(range(len(counts)), key=lambda k: hashlib.sha256(trace.item_table[k].encode()).digest())
    names, rows = [], 0
    for k in order:
        if counts[k] and rows + counts[k] <= ORACLE_ROWS and len(names) < ORACLE_ITEMS:
            names.append(trace.item_table[k])
            rows += int(counts[k])
    return names


def _passes(
    trace, rate: float, seconds: float, tracer=None, between: Optional[Callable[[], None]] = None
) -> List[dict]:
    """Timed passes until they add up to ``seconds`` (at least three).

    Between passes, untimed, each pass's costs are reduced to their hash
    (the first pass keeps them for the checks) and the garbage collector
    runs, so that no pass pays for its predecessors' objects.
    ``between()``, when given, runs before every :data:`SETUP_EVERY`-th
    pass.
    """
    out = []
    while sum(p["wall_s"] for p in out) < seconds or len(out) < 3:
        if between is not None and len(out) % SETUP_EVERY == 0:
            between()
        gc.collect()
        before = tracer.snapshot() if tracer is not None else None
        t0 = time.perf_counter()
        result = pipeline(trace, rate, tracer)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["spans"] = diff(tracer.snapshot(), before)
        result["hash"] = cost_hash(result["opt"], result["sc"])
        if out:
            del result["opt"], result["sc"]
        out.append(result)
    return out


def _check(trace, passes: List[dict], golden: Optional[str]) -> List[str]:
    problems = []
    first = passes[0]
    digest = first["hash"]
    if any(p["hash"] != digest for p in passes[1:]):
        problems.append("per-item costs differ between passes")
    if golden is not None and golden != digest:
        problems.append(f"cost hash {digest} != golden {golden}")
    names = spot_check_items(trace)
    opt, sc = oracle_costs(trace, names)
    wrong = [n for n in names if opt[n] != first["opt"][n] or sc[n] != first["sc"][n]]
    if wrong:
        problems.append(f"{len(wrong)} of {len(names)} items differ from the oracle, e.g. {wrong[:3]}")
    if first["report"]["max_ratio"] > RATIO_LIMIT:
        problems.append(f"SC/OPT ratio {first['report']['max_ratio']} above 3")
    if not first["estimate"].covers(first["report"]["exact"]):
        est = first["estimate"]
        problems.append(f"interval [{est.ci_lo}, {est.ci_hi}] misses {first['report']['exact']}")
    return problems


def run(workload: str, seed: int, seconds: float, trace_on: bool, workdir: Path, golden: Optional[str] = None):
    """One analysis run; returns ``(correct, attempted, failed, metrics, notes)``.

    ``setup_s`` is the median of the set-ups made before and between the
    untraced passes.  ``golden`` is the expected cost hash, if known.
    """
    shape, rate = SHAPES[workload]
    # One CPU for the whole run, the last usable one: no migrations.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup = Setup(shape, seed, workdir)
    trace = setup.open()
    base_kib = _rss_kib("VmRSS")
    plain = _passes(trace, rate, seconds, between=setup.again)
    peak_kib = _rss_kib("VmHWM")
    runs = list(plain)
    if trace_on:
        tracer = Tracer()
        install(tracer)
        traced = _passes(trace, rate, seconds, tracer)
        runs += traced
    problems = _check(trace, runs, golden)
    trace.close()
    walls = [p["wall_s"] for p in plain]
    notes = {
        "cost_hash": plain[0]["hash"],
        "pass_s": [round(w, 3) for w in walls],
        "setup_s": [round(total, 3) for total, _ in setup.times],
        "problems": problems,
    }
    if not trace_on:
        metrics = {
            "setup_s": median(total for total, _ in setup.times),
            "rss_mb": (peak_kib - base_kib) / 1024.0,
            "events_per_s": shape.rows / median(walls),
        }
    else:
        convert_s = median(convert for _, convert in setup.times)
        metrics = _per_layer(traced, shape.rows, convert_s, walls)
    return not problems, len(runs), 0, metrics, notes


def _per_layer(traced: List[dict], rows: int, convert_s: float, plain_walls: List[float]) -> Dict[str, float]:
    def per_pass(fn) -> float:
        return median(fn(p["spans"]) for p in traced)

    def total(*names):
        return lambda s: sum(s["spans"].get(n, {}).get("total_s", 0.0) for n in names)

    def self_time(*names):
        return lambda s: sum(s["spans"].get(n, {}).get("self_s", 0.0) for n in names)

    return {
        "columnar.convert_s": convert_s,
        "profiler.s": per_pass(total("profiler")),
        "sampling.prep_s": per_pass(self_time("sampling.solve", "sampling.online", "sampling.estimate")),
        "batch.layout_s": per_pass(total("batch.layout")),
        "batch.sweep_s": per_pass(total("batch.sweep")),
        "online.kernel_s": per_pass(total("online.kernel")),
        "online.extensions_per_row": per_pass(lambda s: s["counts"].get("extensions", 0) / rows),
        "bootstrap.s": per_pass(total("bootstrap")),
        "estimate.solve_fraction": traced[0]["estimate"].solve_fraction,
        "p50_ms": median(plain_walls) * 1e3,
        "p90_ms": quantiles(plain_walls, n=10, method="inclusive")[8] * 1e3,
        "p99_ms": quantiles(plain_walls, n=100, method="inclusive")[98] * 1e3,
        "tracing.overhead": median(p["wall_s"] for p in traced) / median(plain_walls) - 1.0,
    }


def golden_hash(workload: str, seed: int, workdir: Path) -> str:
    """Cost hash of every item through the oracle paths alone."""
    trace = Setup(SHAPES[workload][0], seed, workdir).open()
    opt, sc = oracle_costs(trace, list(trace.items_in_order()))
    trace.close()
    return cost_hash(opt, sc)
