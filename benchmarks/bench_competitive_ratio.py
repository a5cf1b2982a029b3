"""C2/P10 — batched competitive-ratio harness: identity gate + speedup gate.

Standalone script (also runnable under pytest) benchmarking the
``repro.kernels.online`` batched harness against the historic per-seed
loop and writing ``BENCH_online_kernels.json`` at the repository root:

Every identity gate compares the harness against the oracle built
explicitly: per instance, the per-event replay
(``run_online(..., kernel="event")``) over ``solve_offline``'s OPT.

* **workload panels** — ratio distribution of SC vs OPT across Poisson×
  Zipf, bursty MMPP, and Markov-trajectory instances.  Two gates, both
  unconditional (``--quick`` included): the empirical worst ratio never
  exceeds the Theorem 3 bound of 3, and the batched harness
  (:func:`repro.analysis.ratio_statistics`) reproduces the oracle's
  ratios *exactly* — same floats, same decision digests, not
  approximately.
* **ratio-sweep speedup gate** — the headline: one
  :func:`repro.analysis.ratio_statistics` call over the seeds' instances
  (ONE batched online-kernel call + ONE batched DP call for the whole
  block) vs the historic loop (per-seed
  ``SpeculativeCaching().run(inst, kernel="event")`` plus a per-seed
  ``solve_offline``).  The ratio lists must match exactly; the ≥10x
  wall-clock gate is hard in full mode on boxes with ≥4 CPUs and
  soft-warns elsewhere (``--quick``, or 1–3 CPU runners).
* **TTL γ-grid series** — :func:`repro.analysis.ttl_gamma_sweep` (one
  packed instance block, one batched online-kernel call per γ) vs the
  per-event per-γ loop: identical rows (exact), measured speedup.
* **adversarial panel** — the cyclic gap sweep locating SC's empirically
  worst regime (per-server revisit period just past the speculative
  window); rows must equal the oracle's and stay under the bound.

Usage::

    PYTHONPATH=src python benchmarks/bench_competitive_ratio.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # standalone invocation without install
    sys.path.insert(0, str(ROOT / "src"))

from repro import CostModel, solve_offline  # noqa: E402
from repro.analysis import (  # noqa: E402
    adversarial_gap_sweep,
    cyclic_adversary,
    format_table,
    ratio_statistics,
    ttl_gamma_sweep,
)
from repro.kernels import batch_sweep_backend  # noqa: E402
from repro.kernels.online import decision_digest  # noqa: E402
from repro.network import Cluster  # noqa: E402
from repro.online import SpeculativeCaching  # noqa: E402
from repro.sim.engine import run_online  # noqa: E402
from repro.workloads import (  # noqa: E402
    MarkovMobility,
    mmpp_instance,
    poisson_zipf_instance,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _util import emit  # noqa: E402

JSON_PATH = ROOT / "BENCH_online_kernels.json"

#: Headline gate: one batched ratio_statistics call vs the historic
#: per-seed loop.  Hard in full mode on >=4-CPU boxes; soft elsewhere.
SWEEP_SPEEDUP_GATE = 10.0
SWEEP_GATE_MIN_CPUS = 4

#: Ratio-sweep workload shape.
RATIO_N, RATIO_M = 200, 8


def _ratio_workload(seed: int):
    return poisson_zipf_instance(
        RATIO_N, RATIO_M, rate=1.2, zipf_s=0.9, rng=seed
    )


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def workload_panels(per_panel: int = 10):
    panels = {}
    panels["poisson-zipf"] = [
        poisson_zipf_instance(120, 6, rate=1.2, zipf_s=1.0, rng=s)
        for s in range(per_panel)
    ]
    panels["bursty-mmpp"] = [
        mmpp_instance(120, 6, rate_low=0.2, rate_high=8.0, rng=s)
        for s in range(per_panel)
    ]
    cluster = Cluster.grid(2, 3, cost=CostModel())
    mob = MarkovMobility(cluster, locality=0.85, request_rate=1.0)
    panels["markov-trajectory"] = [
        mob.instance(num_users=2, duration=60.0, rng=s)
        for s in range(per_panel)
    ]
    return panels


def _event_ratio(algo, inst, opt=None):
    """The oracle ratio: per-event replay cost over OPT (solved unless given)."""
    cost = run_online(algo, inst, kernel="event").cost
    opt = solve_offline(inst).optimal_cost if opt is None else opt
    return cost / opt if opt > 0 else float("inf")


def _historic_ratio_loop(seeds):
    """The pre-batching harness: per-seed event replay + per-seed DP."""
    return [_event_ratio(SpeculativeCaching(), _ratio_workload(s)) for s in seeds]


def _batched_ratio_sweep(seeds):
    """The same sweep through the harness: one batched call per kernel."""
    insts = [_ratio_workload(s) for s in seeds]
    return ratio_statistics(insts).ratios.tolist()


def _event_gamma_ratios(insts, gammas):
    """Per-γ oracle ratio lists, OPT solved once per instance."""
    opts = [solve_offline(inst).optimal_cost for inst in insts]
    return [
        [
            _event_ratio(SpeculativeCaching(window_factor=g), inst, opt)
            for inst, opt in zip(insts, opts)
        ]
        for g in gammas
    ]


def _event_gap_rows(m, rounds, gap_factors):
    """The adversarial sweep's rows, rebuilt from per-event replays."""
    rows = []
    for gf in gap_factors:
        inst = cyclic_adversary(m, rounds, gf)
        sc_cost = run_online(SpeculativeCaching(), inst, kernel="event").cost
        opt = solve_offline(inst).optimal_cost
        rows.append(
            {
                "gap_factor": gf,
                "sc_cost": sc_cost,
                "opt_cost": opt,
                "ratio": sc_cost / opt if opt else float("inf"),
            }
        )
    return rows


def run_bench(quick: bool) -> dict:
    repeats = 1 if quick else 3
    per_panel = 6 if quick else 10
    sweep_seeds = list(range(16 if quick else 96))
    gammas = [0.5, 1.0, 2.0] if quick else [0.25, 0.5, 1.0, 2.0, 4.0]
    cpus = os.cpu_count() or 1

    failures = []

    # Panel 1: ratio distributions, harness vs per-event oracle — exact
    # identity.
    panels = workload_panels(per_panel)
    panel_rows = []
    for name, insts in panels.items():
        vec = ratio_statistics(insts)
        ev = [_event_ratio(SpeculativeCaching(), inst) for inst in insts]
        identical = vec.ratios.tolist() == ev
        if not identical:
            failures.append(f"panel '{name}': vector ratios != event ratios")
        digests_equal = all(
            decision_digest(SpeculativeCaching().run(inst, kernel="auto"))
            == decision_digest(SpeculativeCaching().run(inst, kernel="event"))
            for inst in insts
        )
        if not digests_equal:
            failures.append(f"panel '{name}': decision digests diverge")
        if not vec.worst <= 3.0 + 1e-6:
            failures.append(
                f"panel '{name}': worst ratio {vec.worst} exceeds bound 3"
            )
        panel_rows.append(
            {
                "workload": name,
                "instances": len(insts),
                "mean ratio": vec.mean,
                "p95 ratio": vec.p95,
                "worst ratio": vec.worst,
                "bound": 3.0,
                "identical": identical and digests_equal,
            }
        )

    # Panel 2: the headline sweep.  Historic per-seed loop vs one
    # ratio_statistics call over the same instances (the ratios must
    # match exactly).  Both sides build their instances inside the
    # timed region.
    t_loop, ratios_loop = _best_of(
        lambda: _historic_ratio_loop(sweep_seeds), repeats
    )
    t_batch, ratios_batch = _best_of(
        lambda: _batched_ratio_sweep(sweep_seeds), repeats
    )
    sweep_identical = ratios_loop == ratios_batch
    if not sweep_identical:
        failures.append("ratio sweep: batched study != historic loop")
    sweep_row = {
        "seeds": len(sweep_seeds),
        "n": RATIO_N,
        "m": RATIO_M,
        "cpus": cpus,
        "historic_loop_s": t_loop,
        "batched_study_s": t_batch,
        "speedup": t_loop / t_batch if t_batch > 0 else float("inf"),
        "identical": sweep_identical,
    }

    # Panel 3: TTL γ-grid — one packed block, one batched call per γ, vs
    # the per-event per-γ loop.
    gamma_insts = [
        poisson_zipf_instance(150, 6, rate=1.0, zipf_s=0.9, rng=1000 + s)
        for s in range(per_panel)
    ]
    t_gvec, rows_gvec = _best_of(
        lambda: ttl_gamma_sweep(gamma_insts, gammas), repeats
    )
    t_gev, ratios_gev = _best_of(
        lambda: _event_gamma_ratios(gamma_insts, gammas), repeats
    )
    gamma_identical = [r["ratios"] for r in rows_gvec] == ratios_gev
    if not gamma_identical:
        failures.append("ttl γ-grid: vector rows != event rows")
    gamma_rows = [
        {
            "gamma": r["gamma"],
            "mean ratio": r["mean"],
            "worst ratio": r["worst"],
        }
        for r in rows_gvec
    ]
    gamma_series = {
        "instances": len(gamma_insts),
        "gammas": gammas,
        "event_s": t_gev,
        "vector_s": t_gvec,
        "speedup": t_gev / t_gvec if t_gvec > 0 else float("inf"),
        "identical": gamma_identical,
        "rows": gamma_rows,
    }

    # Panel 4: adversarial gap sweep — agreement with the oracle + bound.
    adv_rounds = 10 if quick else 25
    adv_vec = adversarial_gap_sweep(m=4, rounds=adv_rounds)
    adv_ev = _event_gap_rows(4, adv_rounds, [r["gap_factor"] for r in adv_vec])
    adv_identical = adv_vec == adv_ev
    if not adv_identical:
        failures.append("adversarial sweep: vector rows != event rows")
    adv_worst = max(r["ratio"] for r in adv_vec)
    if not adv_worst <= 3.0 + 1e-9:
        failures.append(f"adversarial sweep: worst ratio {adv_worst} > 3")
    if not adv_worst > 1.5:
        failures.append(
            f"adversarial sweep: worst ratio {adv_worst} <= 1.5 "
            f"(the adversary should hurt SC)"
        )

    if quick or cpus < SWEEP_GATE_MIN_CPUS:
        sweep_status = (
            f"not_run (hard only in full mode on >= {SWEEP_GATE_MIN_CPUS} "
            f"CPUs; {'quick mode' if quick else f'{cpus} CPUs here'})"
        )
    elif sweep_row["speedup"] >= SWEEP_SPEEDUP_GATE:
        sweep_status = "pass"
    else:
        sweep_status = "fail"
    return {
        "benchmark": "online_kernels",
        "quick": quick,
        "repeats": repeats,
        "cpus": cpus,
        "backend": batch_sweep_backend(),
        "identity": "vector harness ratios, rows and decision digests "
        "equal the per-event oracle exactly (no tolerances)",
        "sweep_gate": {
            "threshold": SWEEP_SPEEDUP_GATE,
            "hard_min_cpus": SWEEP_GATE_MIN_CPUS,
            "measured": sweep_row["speedup"],
            "status": sweep_status,
        },
        "workload_panels": panel_rows,
        "ratio_sweep": sweep_row,
        "ttl_gamma_series": gamma_series,
        "adversarial": {
            "m": 4,
            "rounds": adv_rounds,
            "identical": adv_identical,
            "worst_ratio": adv_worst,
            "rows": adv_vec,
        },
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small panels for CI smoke: identity gates still hard, "
        "speedup gate soft-warns",
    )
    ap.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help=f"output path (default {JSON_PATH}; quick runs don't overwrite "
        "the committed artefact unless asked)",
    )
    args = ap.parse_args(argv)

    payload = run_bench(args.quick)
    out = args.json
    if out is None:
        # A --quick run on a laptop/CI box must not clobber the committed
        # full-scale artefact that README/EXPERIMENTS cite.
        out = JSON_PATH if not args.quick else None
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "online_kernels",
        format_table(payload["workload_panels"], precision=4)
        + "\n\nratio sweep (historic per-seed loop vs one ratio_statistics call):\n"
        + format_table([payload["ratio_sweep"]], precision=4)
        + "\n\nTTL γ-grid (one packed block, one batched call per γ):\n"
        + format_table(payload["ttl_gamma_series"]["rows"], precision=4)
        + f"\nγ-grid: event {payload['ttl_gamma_series']['event_s']:.4f}s, "
        f"vector {payload['ttl_gamma_series']['vector_s']:.4f}s "
        f"({payload['ttl_gamma_series']['speedup']:.2f}x)\n"
        + "\nadversarial gap sweep (m=4):\n"
        + format_table(payload["adversarial"]["rows"], precision=4),
        header="C2/P10: SC/OPT ratios on the batched online-kernel harness "
        "(identity vs per-event oracle asserted everywhere; "
        f"sweep gate ≥{SWEEP_SPEEDUP_GATE}x: {payload['sweep_gate']['status']}; "
        f"SC step backend {payload['backend']})",
    )

    if payload["failures"]:
        for msg in payload["failures"]:
            print(f"IDENTITY VIOLATION: {msg}", file=sys.stderr)
        return 1

    gate = payload["sweep_gate"]
    cpus = payload["cpus"]
    if gate["measured"] < SWEEP_SPEEDUP_GATE:
        msg = (
            f"sweep speedup gate: measured {gate['measured']:.2f}x < "
            f"{SWEEP_SPEEDUP_GATE}x ({cpus} CPUs)"
        )
        # The threshold and the >=4-CPU rule date from when seed blocks
        # fanned out across a process pool.  The pool is gone (it never
        # beat one batched call); both stay as they were until the gate
        # itself is reconsidered.
        if args.quick or cpus < SWEEP_GATE_MIN_CPUS:
            print(f"WARNING (soft): {msg}", file=sys.stderr)
        else:
            print(f"FAILED: {msg}", file=sys.stderr)
            return 1
    else:
        print(
            f"sweep speedup gate passed: {gate['measured']:.2f}x >= "
            f"{SWEEP_SPEEDUP_GATE}x ({cpus} CPUs)"
        )
    return 0


def test_online_kernels_quick():
    """Pytest entry: the quick panels' identity gates must hold."""
    payload = run_bench(quick=True)
    assert payload["failures"] == []


if __name__ == "__main__":
    sys.exit(main())
