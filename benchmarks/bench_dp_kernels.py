"""P2/P8 — DP kernels: identity gates + speedup gates.

``python benchmarks/bench_dp_kernels.py [--quick] [--json PATH]`` times
the ``repro.kernels`` paths against the reference solvers and writes
``BENCH_dp_kernels.json`` (envelope, write rules and gate statuses:
``_util.py``):

* **kernel grid** — ``solve_offline(kernel="frontier")`` (the Python
  frontier loop) vs ``kernel="reference"`` over an (n, m) grid, with the
  production ``solve_offline(inst)`` (the batched sweep on a one-item
  layout, compiled when ``backend`` is ``"c"``) recorded beside them.
  At every point all three results must be byte-identical in ``C``,
  ``D``, ``served_by_cache`` and the backtracking metadata, and the
  reconstructed schedules must have identical transfer counts and
  costs (hard everywhere).
* **speedup gate** — at the headline point (``n=100_000, m=64``) the
  frontier loop must be ≥3× faster than the reference sweep: both are
  Python, so this is the algorithmic ``O(n + m + P)`` vs ``O(mn)`` gap.
  The quick grid does not reach the headline point.
* **batch series** — ``solve_offline_batch`` (one instance-major kernel
  call over a whole Zipf-skewed multi-item workload) vs the per-item
  ``kernel="frontier"`` loop.  Identity across every item and every
  result field is hard everywhere; the ≥5× speedup gate is hard in full
  mode with the compiled C sweep.
* **replay series** — the online block-step kernel (``run_online``
  with ``kernel="auto"`` on plain SC; compiled when ``backend`` is
  ``"c"``) vs the stepwise ``ReplayDriver`` (``kernel="event"``):
  identical cost/counters/schedule (hard) plus the measured speedup.
"""

from __future__ import annotations

import sys

from _util import main, speedup, table

from repro import (
    SpeculativeCaching,
    multi_item_workload,
    solve_offline,
    solve_offline_batch,
)
from repro.sim.engine import run_online
from repro.workloads import poisson_zipf_instance

#: Headline grid point of the frontier speedup gate.
HEADLINE = {"n": 100_000, "m": 64}
SPEEDUP_GATE = 3.0

#: One solve_offline_batch call over the service workload must beat the
#: per-item frontier loop by this factor.
BATCH_SPEEDUP_GATE = 5.0


def _same_arrays(a, b) -> bool:
    return all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("C", "D", "served_by_cache", "choice_d_tag", "choice_d_k")
    )


def _identical(a, b) -> bool:
    """Byte-identity across every result field plus schedule agreement."""
    if not _same_arrays(a, b):
        return False
    sa, sb = a.schedule(), b.schedule()
    cost = a.instance.cost
    return (
        len(sa.transfers) == len(sb.transfers)
        and sa.transfers == sb.transfers
        and sa.total_cost(cost) == sb.total_cost(cost)
    )


def run_bench(run):
    if run.quick:
        grid = [(1_000, 8), (2_000, 64)]
        replay_n, replay_m = 2_000, 16
        b_items, b_total, b_m = 24, 24 * 250, 8
    else:
        grid = [(2_000, 8), (10_000, 16), (50_000, 32), (100_000, 64)]
        replay_n, replay_m = 50_000, 32
        b_items, b_total, b_m = 96, 96 * 1600, 24

    kernel_rows = []
    for n, m in grid:
        inst = poisson_zipf_instance(n, m, rate=1.0, zipf_s=0.9, rng=n + m)
        t_ref, res_ref = run.time(lambda: solve_offline(inst, kernel="reference"))
        t_fro, res_fro = run.time(lambda: solve_offline(inst, kernel="frontier"))
        t_auto, res_auto = run.time(lambda: solve_offline(inst))
        kernel_rows.append(
            {
                "n": n,
                "m": m,
                "reference_s": t_ref,
                "frontier_s": t_fro,
                "speedup": speedup(t_ref, t_fro),
                "auto_s": t_auto,
                "bit_identical": _identical(res_ref, res_fro)
                and _identical(res_ref, res_auto),
            }
        )
    run.gate("kernel_grid_identical", all(r["bit_identical"] for r in kernel_rows))
    headline = [
        r["speedup"]
        for r in kernel_rows
        if (r["n"], r["m"]) == (HEADLINE["n"], HEADLINE["m"])
    ]
    run.speedup_gate(
        "frontier_speedup", headline[0] if headline else None, SPEEDUP_GATE
    )

    # Batched instance-major kernel vs the per-item Python frontier loop
    # over a multi-item service workload.
    svc = multi_item_workload(b_items, b_total, b_m, rng=96)
    t_item, res_item = run.time(
        lambda: {
            name: solve_offline(inst, kernel="frontier")
            for name, inst in svc.items.items()
        }
    )
    t_batch, res_batch = run.time(lambda: solve_offline_batch(svc.items))
    batch_row = {
        "items": b_items,
        "n_total": b_total,
        "m": b_m,
        "per_item_frontier_s": t_item,
        "batch_s": t_batch,
        "speedup": speedup(t_item, t_batch),
        "bit_identical": all(
            _same_arrays(res_batch[k], res_item[k]) for k in svc.items
        ),
    }
    run.gate("batch_identical", batch_row["bit_identical"])
    run.speedup_gate(
        "batch_speedup", batch_row["speedup"], BATCH_SPEEDUP_GATE, c_sweep=True
    )

    # Replay series: the stepwise driver (kernel="event") vs the path
    # kernel="auto" picks for plain SC, the batched online kernel.
    inst = poisson_zipf_instance(replay_n, replay_m, rate=1.0, rng=3)
    t_step, run_step = run.time(
        lambda: run_online(SpeculativeCaching(), inst, kernel="event")
    )
    t_run, res = run.time(
        lambda: run_online(SpeculativeCaching(), inst, kernel="auto")
    )
    replay_row = {
        "n": replay_n,
        "m": replay_m,
        "policy": "sc",
        "driver_s": t_step,
        "kernel_s": t_run,
        "speedup": speedup(t_step, t_run),
        "identical": res.cost == run_step.cost
        and res.counters == run_step.counters
        and res.schedule.transfers == run_step.schedule.transfers
        and res.schedule.intervals == run_step.schedule.intervals,
    }
    run.gate("replay_identical", replay_row["identical"])

    series = {
        "identity": "C/D/served_by_cache/choice vectors byte-identical and "
        "reconstructed schedules equal, per grid point",
        "kernel_grid": kernel_rows,
        "batch_series": [batch_row],
        "replay_series": [replay_row],
    }
    report = (
        "P2: DP kernel grid — frontier vs reference, auto = production "
        f"solve_offline (backend {run.host['batch_sweep_backend']}; timings "
        f"median±MAD of {run.repeats})\n"
        + table(kernel_rows)
        + "\n\nP8: batch kernel (one call vs per-item frontier loop):\n"
        + table([batch_row])
        + "\n\nreplay series (stepwise driver vs vector kernel):\n"
        + table([replay_row])
    )
    return series, report


if __name__ == "__main__":
    sys.exit(main("dp_kernels", __doc__, run_bench))
