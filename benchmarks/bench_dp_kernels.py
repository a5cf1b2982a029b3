"""P2 — array-native DP kernels: identity gate + speedup gate.

Standalone script (also runnable under pytest) benchmarking the
``repro.kernels`` fast paths against the reference solvers and writing
``BENCH_dp_kernels.json`` at the repository root:

* **kernel grid** — ``solve_offline(kernel="frontier")`` vs
  ``kernel="reference"`` over an (n, m) grid.  At *every* point the two
  results must be byte-identical in ``C``, ``D``, ``served_by_cache``
  and the backtracking metadata, and the reconstructed schedules must
  have identical transfer counts and costs.  This gate is unconditional:
  any violation exits non-zero, in ``--quick`` mode too.
* **speedup gate** — the headline point (``n=100_000, m=64``) must show
  the frontier kernel ≥3× faster than the reference sweep.  Hard
  failure in full mode; in ``--quick`` mode (CI smoke on shared
  runners) the grid shrinks and the gate only soft-warns, because
  timings on noisy boxes are advisory.
* **batch series** — ``solve_offline_batch`` (one instance-major kernel
  call over a whole Zipf-skewed multi-item workload) vs the per-item
  frontier loop.  Identity across every item and every result field is
  unconditional — quick mode included; the ≥5x batch speedup gate is
  hard in full mode when the compiled C sweep is available and
  soft-warns otherwise (``--quick``, or Python-sweep fallback boxes
  with no C compiler).
* **replay series** — the online vector kernel (``run_online`` with
  ``kernel="auto"`` on plain SC) vs the stepwise ``ReplayDriver``
  (``kernel="event"``): identical cost/counters (asserted) plus the
  measured speedup.

Usage::

    PYTHONPATH=src python benchmarks/bench_dp_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # standalone invocation without install
    sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    SpeculativeCaching,
    multi_item_workload,
    solve_offline,
    solve_offline_batch,
)
from repro.analysis import format_table  # noqa: E402
from repro.kernels import (  # noqa: E402
    batch_sweep_backend,
    solve_offline_frontier,
)
from repro.sim.engine import run_online  # noqa: E402
from repro.workloads import poisson_zipf_instance  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _util import emit  # noqa: E402

JSON_PATH = ROOT / "BENCH_dp_kernels.json"

#: Headline grid point of the ISSUE's speedup gate.
HEADLINE = {"n": 100_000, "m": 64}
SPEEDUP_GATE = 3.0

#: Batched-kernel gate: one solve_offline_batch call over the service
#: workload must beat the per-item frontier loop by this factor (hard in
#: full mode with the compiled C sweep; soft otherwise).
BATCH_SPEEDUP_GATE = 5.0


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _identical(a, b) -> bool:
    """Byte-identity across every result field plus schedule agreement."""
    if not (
        a.C.tobytes() == b.C.tobytes()
        and a.D.tobytes() == b.D.tobytes()
        and a.served_by_cache.tobytes() == b.served_by_cache.tobytes()
        and a.choice_d_tag.tobytes() == b.choice_d_tag.tobytes()
        and a.choice_d_k.tobytes() == b.choice_d_k.tobytes()
    ):
        return False
    sa, sb = a.schedule(), b.schedule()
    cost = a.instance.cost
    return (
        len(sa.transfers) == len(sb.transfers)
        and sa.transfers == sb.transfers
        and sa.total_cost(cost) == sb.total_cost(cost)
    )


def run_bench(quick: bool) -> dict:
    repeats = 1 if quick else 3
    if quick:
        grid = [(1_000, 8), (2_000, 64)]
        replay_n, replay_m = 2_000, 16
    else:
        grid = [(2_000, 8), (10_000, 16), (50_000, 32), (100_000, 64)]
        replay_n, replay_m = 50_000, 32

    failures = []
    kernel_rows = []
    for n, m in grid:
        inst = poisson_zipf_instance(n, m, rate=1.0, zipf_s=0.9, rng=n + m)
        t_ref, res_ref = _best_of(
            lambda: solve_offline(inst, kernel="reference"), repeats
        )
        t_fro, res_fro = _best_of(lambda: solve_offline_frontier(inst), repeats)
        identical = _identical(res_ref, res_fro)
        if not identical:
            failures.append(f"bit-identity violated at n={n}, m={m}")
        kernel_rows.append(
            {
                "n": n,
                "m": m,
                "reference_s": t_ref,
                "frontier_s": t_fro,
                "speedup": t_ref / t_fro if t_fro > 0 else float("inf"),
                "bit_identical": identical,
            }
        )

    # Batched instance-major kernel vs the per-item frontier loop over a
    # multi-item service workload (identity unconditional; speedup gated).
    if quick:
        b_items, b_total, b_m = 24, 24 * 250, 8
    else:
        b_items, b_total, b_m = 96, 96 * 1600, 24
    svc = multi_item_workload(b_items, b_total, b_m, rng=96)
    t_item, res_item = _best_of(
        lambda: {
            name: solve_offline_frontier(inst)
            for name, inst in svc.items.items()
        },
        repeats,
    )
    t_batch, res_batch = _best_of(
        lambda: solve_offline_batch(svc.items), repeats
    )
    batch_identical = all(
        res_batch[k].C.tobytes() == res_item[k].C.tobytes()
        and res_batch[k].D.tobytes() == res_item[k].D.tobytes()
        and res_batch[k].served_by_cache.tobytes()
        == res_item[k].served_by_cache.tobytes()
        and res_batch[k].choice_d_tag.tobytes()
        == res_item[k].choice_d_tag.tobytes()
        and res_batch[k].choice_d_k.tobytes()
        == res_item[k].choice_d_k.tobytes()
        for k in svc.items
    )
    if not batch_identical:
        failures.append(
            f"batch kernel diverged from per-item frontier "
            f"(items={b_items}, n_total={b_total}, m={b_m})"
        )
    batch_row = {
        "items": b_items,
        "n_total": b_total,
        "m": b_m,
        "backend": batch_sweep_backend(),
        "per_item_frontier_s": t_item,
        "batch_s": t_batch,
        "speedup": t_item / t_batch if t_batch > 0 else float("inf"),
        "bit_identical": batch_identical,
    }

    # Replay series: the stepwise driver (kernel="event") vs the path
    # kernel="auto" picks for plain SC, the batched online kernel.  The
    # kernel must reproduce the driver's cost/counters/transfers exactly.
    inst = poisson_zipf_instance(replay_n, replay_m, rate=1.0, rng=3)
    t_step, run_step = _best_of(
        lambda: run_online(SpeculativeCaching(), inst, kernel="event"), repeats
    )
    t_run, run = _best_of(
        lambda: run_online(SpeculativeCaching(), inst, kernel="auto"), repeats
    )
    same = (
        run.cost == run_step.cost
        and run.counters == run_step.counters
        and run.schedule.transfers == run_step.schedule.transfers
        and run.schedule.intervals == run_step.schedule.intervals
    )
    if not same:
        failures.append("vector kernel diverged from stepwise driver")
    replay_rows = [
        {
            "n": replay_n,
            "m": replay_m,
            "policy": "sc",
            "path": "vector",
            "driver_s": t_step,
            "path_s": t_run,
            "speedup": t_step / t_run if t_run > 0 else float("inf"),
            "identical": same,
        }
    ]

    headline = next(
        (
            r
            for r in kernel_rows
            if r["n"] == HEADLINE["n"] and r["m"] == HEADLINE["m"]
        ),
        None,
    )
    payload = {
        "benchmark": "dp_kernels",
        "quick": quick,
        "repeats": repeats,
        "identity": "C/D/served_by_cache/choice vectors byte-identical and "
        "reconstructed schedules equal, per grid point",
        "speedup_gate": {
            "at": HEADLINE,
            "threshold": SPEEDUP_GATE,
            "measured": headline["speedup"] if headline else None,
        },
        "batch_gate": {
            "threshold": BATCH_SPEEDUP_GATE,
            "measured": batch_row["speedup"],
            "backend": batch_row["backend"],
        },
        "kernel_grid": kernel_rows,
        "batch_series": [batch_row],
        "replay_fast_path": replay_rows,
        "failures": failures,
    }
    return payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI smoke: identity gate still hard, "
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
        # full-grid artefact that README/EXPERIMENTS cite.
        out = JSON_PATH if not args.quick else None
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "dp_kernels",
        format_table(payload["kernel_grid"], precision=4)
        + "\n\nbatch kernel (one call vs per-item frontier loop):\n"
        + format_table(payload["batch_series"], precision=4)
        + "\n\nreplay series (stepwise driver vs vector kernel):\n"
        + format_table(payload["replay_fast_path"], precision=4),
        header="P2: DP kernel grid — frontier vs reference "
        f"(identity asserted per point; gate ≥{SPEEDUP_GATE}x at "
        f"n={HEADLINE['n']}, m={HEADLINE['m']})",
    )

    if payload["failures"]:
        for msg in payload["failures"]:
            print(f"IDENTITY VIOLATION: {msg}", file=sys.stderr)
        return 1

    gate = payload["speedup_gate"]
    if gate["measured"] is None:
        print(
            f"speedup gate: headline point n={HEADLINE['n']}, "
            f"m={HEADLINE['m']} not in this grid "
            f"({'quick mode' if args.quick else 'unexpected'}); skipped"
        )
    elif gate["measured"] < SPEEDUP_GATE:
        msg = (
            f"speedup gate: measured {gate['measured']:.2f}x < "
            f"{SPEEDUP_GATE}x at n={HEADLINE['n']}, m={HEADLINE['m']}"
        )
        if args.quick:
            print(f"WARNING (soft in --quick): {msg}", file=sys.stderr)
        else:
            print(f"FAILED: {msg}", file=sys.stderr)
            return 1
    else:
        print(
            f"speedup gate passed: {gate['measured']:.2f}x >= "
            f"{SPEEDUP_GATE}x at n={HEADLINE['n']}, m={HEADLINE['m']}"
        )

    bgate = payload["batch_gate"]
    if bgate["measured"] < BATCH_SPEEDUP_GATE:
        msg = (
            f"batch speedup gate: measured {bgate['measured']:.2f}x < "
            f"{BATCH_SPEEDUP_GATE}x (backend={bgate['backend']})"
        )
        # Hard only where it's meaningful: full mode with the compiled
        # sweep.  Quick CI smoke and Python-fallback boxes soft-warn.
        if args.quick or bgate["backend"] != "c":
            print(f"WARNING (soft): {msg}", file=sys.stderr)
        else:
            print(f"FAILED: {msg}", file=sys.stderr)
            return 1
    else:
        print(
            f"batch speedup gate passed: {bgate['measured']:.2f}x >= "
            f"{BATCH_SPEEDUP_GATE}x (backend={bgate['backend']})"
        )
    return 0


def test_dp_kernels_quick():
    """Pytest entry: the quick grid's identity gate must hold."""
    payload = run_bench(quick=True)
    assert payload["failures"] == []


if __name__ == "__main__":
    sys.exit(main())
