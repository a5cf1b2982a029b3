"""C2/P10 — batched competitive-ratio harness: identity + Theorem 3 gates.

``python benchmarks/bench_competitive_ratio.py [--quick] [--json PATH]``
times the ``repro.kernels.online`` batched harness against the historic
per-seed loop and writes ``BENCH_online_kernels.json`` (envelope, write
rules and gate statuses: ``_util.py``).

Every identity gate compares the harness against the oracle built
explicitly: per instance, the per-event replay
(``run_online(..., kernel="event")``) over ``solve_offline``'s OPT.
Every gate here is hard everywhere, ``--quick`` included.

* **workload panels** — ratio distribution of SC vs OPT across Poisson×
  Zipf, bursty MMPP, and Markov-trajectory instances: the empirical
  worst ratio never exceeds the Theorem 3 bound of 3, and the batched
  harness (:func:`repro.analysis.ratio_statistics`) reproduces the
  oracle's ratios and decision digests *exactly*.
* **ratio sweep** — one :func:`repro.analysis.ratio_statistics` call
  over the seeds' instances (ONE batched online-kernel call + ONE
  batched DP call) vs the historic loop (per-seed
  ``SpeculativeCaching().run(inst, kernel="event")`` plus a per-seed
  ``solve_offline``): the ratio lists must match exactly; the speedup
  is a plain row (its old ≥10× gate measured a process pool that no
  longer exists).
* **TTL γ-grid series** — :func:`repro.analysis.ttl_gamma_sweep` (one
  packed instance block, one batched online-kernel call per γ) vs the
  per-event per-γ loop: identical rows (exact), measured speedup.
* **adversarial panel** — the cyclic gap sweep locating SC's empirically
  worst regime (per-server revisit period just past the speculative
  window); rows must equal the oracle's, stay under the bound, and the
  adversary must push SC above 1.5.
"""

from __future__ import annotations

import sys

from _util import main, speedup, table

from repro import CostModel, solve_offline
from repro.analysis import (
    adversarial_gap_sweep,
    cyclic_adversary,
    ratio_statistics,
    ttl_gamma_sweep,
)
from repro.kernels.online import decision_digest
from repro.network import Cluster
from repro.online import SpeculativeCaching
from repro.sim.engine import run_online
from repro.workloads import (
    MarkovMobility,
    mmpp_instance,
    poisson_zipf_instance,
)

#: Ratio-sweep workload shape.
RATIO_N, RATIO_M = 200, 8


def _ratio_workload(seed: int):
    return poisson_zipf_instance(
        RATIO_N, RATIO_M, rate=1.2, zipf_s=0.9, rng=seed
    )


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


def run_bench(run):
    per_panel = 6 if run.quick else 10
    sweep_seeds = list(range(16 if run.quick else 96))
    gammas = [0.5, 1.0, 2.0] if run.quick else [0.25, 0.5, 1.0, 2.0, 4.0]

    # Panel 1: ratio distributions, harness vs per-event oracle — exact
    # identity.
    panel_rows = []
    for name, insts in workload_panels(per_panel).items():
        vec = ratio_statistics(insts)
        ev = [_event_ratio(SpeculativeCaching(), inst) for inst in insts]
        panel_rows.append(
            {
                "workload": name,
                "instances": len(insts),
                "mean ratio": vec.mean,
                "p95 ratio": vec.p95,
                "worst ratio": vec.worst,
                "ratios_identical": vec.ratios.tolist() == ev,
                "digests_identical": all(
                    decision_digest(SpeculativeCaching().run(inst, kernel="auto"))
                    == decision_digest(
                        SpeculativeCaching().run(inst, kernel="event")
                    )
                    for inst in insts
                ),
            }
        )
    run.gate("panel_ratios_identical", all(r["ratios_identical"] for r in panel_rows))
    run.gate("panel_digests_identical", all(r["digests_identical"] for r in panel_rows))
    panel_worst = max(r["worst ratio"] for r in panel_rows)
    run.gate("panel_worst_ratio", panel_worst <= 3.0 + 1e-6, panel_worst, "<= 3 + 1e-6")

    # Panel 2: the ratio sweep.  Historic per-seed loop vs one
    # ratio_statistics call over the same instances; both sides build
    # their instances inside the timed region.
    t_loop, ratios_loop = run.time(lambda: _historic_ratio_loop(sweep_seeds))
    t_batch, ratios_batch = run.time(lambda: _batched_ratio_sweep(sweep_seeds))
    sweep_row = {
        "seeds": len(sweep_seeds),
        "n": RATIO_N,
        "m": RATIO_M,
        "historic_loop_s": t_loop,
        "batched_study_s": t_batch,
        "speedup": speedup(t_loop, t_batch),
        "identical": ratios_loop == ratios_batch,
    }
    run.gate("ratio_sweep_identical", sweep_row["identical"])

    # Panel 3: TTL γ-grid — one packed block, one batched call per γ, vs
    # the per-event per-γ loop.
    gamma_insts = [
        poisson_zipf_instance(150, 6, rate=1.0, zipf_s=0.9, rng=1000 + s)
        for s in range(per_panel)
    ]
    t_gvec, rows_gvec = run.time(lambda: ttl_gamma_sweep(gamma_insts, gammas))
    t_gev, ratios_gev = run.time(lambda: _event_gamma_ratios(gamma_insts, gammas))
    gamma_series = {
        "instances": len(gamma_insts),
        "gammas": gammas,
        "event_s": t_gev,
        "vector_s": t_gvec,
        "speedup": speedup(t_gev, t_gvec),
        "identical": [r["ratios"] for r in rows_gvec] == ratios_gev,
        "rows": [
            {"gamma": r["gamma"], "mean ratio": r["mean"], "worst ratio": r["worst"]}
            for r in rows_gvec
        ],
    }
    run.gate("gamma_grid_identical", gamma_series["identical"])

    # Panel 4: adversarial gap sweep — agreement with the oracle + bound.
    adv_rounds = 10 if run.quick else 25
    adv_vec = adversarial_gap_sweep(m=4, rounds=adv_rounds)
    adv_ev = _event_gap_rows(4, adv_rounds, [r["gap_factor"] for r in adv_vec])
    adv_identical = adv_vec == adv_ev
    adv_worst = max(r["ratio"] for r in adv_vec)
    run.gate("adversarial_identical", adv_identical)
    run.gate("adversarial_worst_ratio", adv_worst <= 3.0 + 1e-9, adv_worst, "<= 3 + 1e-9")
    run.gate("adversary_hurts_sc", adv_worst > 1.5, adv_worst, "> 1.5")

    series = {
        "identity": "vector harness ratios, rows and decision digests "
        "equal the per-event oracle exactly (no tolerances)",
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
    }
    report = (
        "C2/P10: SC/OPT ratios on the batched online-kernel harness "
        f"(bound 3; SC step backend {run.host['batch_sweep_backend']}; "
        f"timings median±MAD of {run.repeats})\n"
        + table(panel_rows)
        + "\n\nratio sweep (historic per-seed loop vs one ratio_statistics call):\n"
        + table([sweep_row])
        + "\n\nTTL γ-grid (one packed block, one batched call per γ):\n"
        + table(gamma_series["rows"])
        + "\n"
        + table([{k: gamma_series[k] for k in ("event_s", "vector_s", "speedup")}])
        + "\n\nadversarial gap sweep (m=4):\n"
        + table(adv_vec)
    )
    return series, report


if __name__ == "__main__":
    sys.exit(main("online_kernels", __doc__, run_bench))
