"""P9 — hash-sampled trace solving: error-vs-rate + speedup-vs-rate.

``python benchmarks/bench_trace_sampling.py [--quick] [--json PATH]``
benchmarks ``repro.workloads.sampling`` and ``repro.workloads.profiler``
on a synthetic Zipf trace (1M rows in full mode) and writes
``BENCH_trace_sampling.json`` (envelope, write rules and gate statuses:
``_util.py``):

* **error gates (hard everywhere)** — at every sample rate in the grid,
  ``estimate_offline_cost``'s confidence interval must cover the exact
  full-trace solve, and the point estimate must sit within 10% of it.
* **determinism gate (hard everywhere)** — sampling a row-permuted,
  re-interned copy of the trace with different ``chunk_rows`` must
  produce a byte-identical container file (sha256 compared).
* **speedup gate** — at the headline rate the estimate's *solve*
  wall-time (gather + pack + DP sweep of the selected items, i.e.
  ``CostEstimate.solve_s``) must be >= 10x below the exact solve; the
  end-to-end estimate time — which adds the O(rows) counting pass and
  the bootstrap, both fixed-cost — is reported alongside.  Hard in full
  mode, where the solve is long enough for stable timing; nothing it
  times uses a second CPU.
* **profiler RSS gate (hard everywhere)** — ``profile_trace`` over the
  full trace must grow this process's VmRSS by at most a fixed budget
  (memmap-native sweep, no record materialisation).
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile

import numpy as np

from _util import main, speedup, table, timing

from repro.workloads import (
    ColumnarTrace,
    estimate_offline_cost,
    exact_offline_cost,
    profile_trace,
    sample_columnar,
    zipf_weights,
)

#: Sample-rate grid (full mode); the 1-10% regime.
RATES = (0.01, 0.02, 0.05, 0.1)
RATES_QUICK = (0.02, 0.05, 0.1)

#: Headline speedup gate: estimate at this rate vs the exact solve.
HEADLINE_RATE = 0.05
SPEEDUP_GATE = 10.0

#: Point-estimate error budget (CI coverage is gated separately).
REL_ERROR_GATE = 0.10

#: Profiler RSS growth budget in KiB (1M rows of flat arrays is ~30 MB;
#: record materialisation would be ~400+ MB).
RSS_GATE_KB = 500_000

SEED = 7

#: Certainty-stratum size.  Solving the head exactly is what keeps the
#: estimator calibrated, but its rows are solved at rate 1.0 — the
#: stratum must stay a small *row* share or it caps the speedup.  With
#: the long-tailed catalog below (zipf s=0.5 over 20k items) the top 32
#: items hold ~4% of rows.
TOP_EXACT = 32

#: Popularity skew.  A catalog-scale long tail (many items, mild Zipf) —
#: the regime where sampling pays; a head-heavy s=1.0 catalog should be
#: solved exactly instead (its certainty stratum IS most of the rows).
ZIPF_S = 0.5


def _rss_kb(pid: int) -> int:
    """VmRSS of ``pid`` in KiB, from /proc (no psutil dependency)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS line for pid {pid}")


def _sha(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_trace(rows: int, items: int, m: int, seed: int) -> ColumnarTrace:
    """Zipf-popularity Poisson-arrival synthetic service log."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(items, size=rows, p=zipf_weights(items, ZIPF_S))
    return ColumnarTrace(
        np.cumsum(rng.exponential(0.01, size=rows)),
        rng.integers(0, m, size=rows),
        np.full(rows, -1),
        ids,
        tuple(f"item-{k:05d}" for k in range(items)),
    )


def permuted_copy(trace: ColumnarTrace, seed: int) -> ColumnarTrace:
    """Same row set, shuffled row order AND shuffled interning order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(trace.rows)
    n_items = len(trace.item_table)
    reorder = rng.permutation(n_items)
    old_to_new = np.empty(n_items, dtype=np.int64)
    old_to_new[reorder] = np.arange(n_items)
    return ColumnarTrace(
        np.asarray(trace.times)[perm],
        np.asarray(trace.servers)[perm],
        np.asarray(trace.users)[perm],
        old_to_new[np.asarray(trace.item_ids)[perm]],
        tuple(trace.item_table[int(i)] for i in reorder),
    )


def striped_chunk(rows: int) -> int:
    """An awkward chunk size (not a divisor, not a power of two)."""
    return max(1, rows // 7 + 3)


def run_bench(run):
    if run.quick:
        rows, items, m = 100_000, 2_000, 8
        rates = RATES_QUICK
    else:
        rows, items, m = 1_000_000, 20_000, 16
        rates = RATES
    trace = synth_trace(rows, items, m, seed=5)

    # Exact full-trace solve (the baseline every gate compares against).
    exact_s, exact = run.time(lambda: exact_offline_cost(trace))

    rate_rows = []
    for rate in rates:
        ests = []

        def estimate():
            ests.append(
                estimate_offline_cost(
                    trace, rate=rate, seed=SEED, top_exact=TOP_EXACT
                )
            )

        est_s, _ = run.time(estimate)
        est, solve_s = ests[-1], timing([e.solve_s for e in ests])
        rate_rows.append(
            {
                "rate": rate,
                "estimate": est.estimate,
                "ci_lo": est.ci_lo,
                "ci_hi": est.ci_hi,
                "ci_covers_exact": est.covers(exact),
                "rel_error": abs(est.estimate - exact) / exact,
                "rel_ci_width": (est.ci_hi - est.ci_lo) / exact,
                "solve_fraction": est.solve_fraction,
                "items_solved": est.items_solved,
                "estimate_s": est_s,
                "solve_s": solve_s,
                "speedup_total": speedup(exact_s, est_s),
                "solve_speedup": speedup(exact_s, solve_s),
            }
        )
    run.gate("ci_covers_exact", all(r["ci_covers_exact"] for r in rate_rows))
    worst_error = max(r["rel_error"] for r in rate_rows)
    run.gate(
        "rel_error",
        worst_error <= REL_ERROR_GATE,
        worst_error,
        f"<= {REL_ERROR_GATE} at every rate",
    )
    headline = next(r for r in rate_rows if r["rate"] == HEADLINE_RATE)
    run.speedup_gate("solve_speedup", headline["solve_speedup"], SPEEDUP_GATE)

    # Byte-determinism: permuted + re-interned copy, different chunking
    # (the test suite adds a process boundary).
    with tempfile.TemporaryDirectory() as td:
        tdp = pathlib.Path(td)
        sample_columnar(trace, tdp / "a.col", 0.1, seed=SEED, chunk_rows=1 << 20)
        sample_columnar(
            permuted_copy(trace, seed=13),
            tdp / "b.col",
            0.1,
            seed=SEED,
            chunk_rows=striped_chunk(rows),
        )
        sha_a, sha_b = _sha(tdp / "a.col"), _sha(tdp / "b.col")
    run.gate("determinism", sha_a == sha_b)

    # Profiler sweep with the RSS gate.
    rss_before = _rss_kb(os.getpid())
    profile_s, stats = run.time(lambda: profile_trace(trace))
    rss_growth = _rss_kb(os.getpid()) - rss_before
    run.gate(
        "profiler_rss_kb", rss_growth <= RSS_GATE_KB, rss_growth, f"<= {RSS_GATE_KB}"
    )

    series = {
        "rows": rows,
        "items": items,
        "m": m,
        "zipf_s": ZIPF_S,
        "seed": SEED,
        "top_exact": TOP_EXACT,
        "exact_cost": exact,
        "exact_solve_s": exact_s,
        "rates": rate_rows,
        "determinism": {
            "sha256_original": sha_a,
            "sha256_permuted_rechunked": sha_b,
        },
        "profiler": {
            "profile_s": profile_s,
            "rss_growth_kb": rss_growth,
            "zipf_exponent": stats.zipf_exponent,
            "mean_max_predictability": stats.mean_max_predictability,
        },
    }
    report = (
        "P9: hash-sampled trace solving — error/speedup vs rate "
        f"(rows={rows}, items={items}, m={m}, backend "
        f"{run.host['batch_sweep_backend']}; timings median±MAD of "
        f"{run.repeats})\n"
        + table(rate_rows)
        + "\n\n"
        + table(
            [
                {
                    "exact_cost": exact,
                    "exact_solve_s": exact_s,
                    "profile_s": profile_s,
                    "profiler_rss_growth_kb": rss_growth,
                }
            ]
        )
    )
    return series, report


if __name__ == "__main__":
    sys.exit(main("trace_sampling", __doc__, run_bench))
