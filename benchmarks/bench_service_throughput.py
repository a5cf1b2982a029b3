"""P3 — serial multi-item solve + columnar ingest (supersedes the P1 grid).

Two measured sections, written to ``BENCH_service_throughput.json`` (at
the repository root) plus a human-readable table under ``benchmarks/out/``:

1. **Serial grid** — ``solve_offline_multi`` over the item grid: the
   batched instance-major kernel (``serial``, the ``kernel="auto"``
   default) against the per-item frontier loop (``serial-frontier``)
   on the same workload.
2. **Ingestion** — building a :class:`MultiItemInstance` from the same
   log as CSV (``read_trace`` + ``from_records``) versus columnar
   (``from_columnar`` over mmap columns), plus the streaming converter's
   rate and a subprocess peak-RSS check that conversion memory is
   bounded by the chunk size, not the log length.

Hard checks ride along with the timings:

* **bit-identity** — the per-item loop's canonical cost dump must be
  byte-identical to the batched kernel's at every grid point, and the
  columnar-ingested service must equal the CSV-ingested one item by
  item.  Asserted unconditionally, on any machine.
* **ingest rate** — columnar ingestion must be ≥10× CSV ingestion at
  the full-mode log size (1M rows); single-threaded, so asserted
  whenever the full grid runs.
* **batch kernel** — the serial multi-item solve must be ≥5× the
  per-item frontier loop at the largest grid point.  Identity is
  unconditional; the speedup is hard on full runs with the compiled C
  sweep.

``SERVICE_BENCH_SMOKE=1`` shrinks everything to seconds for CI smoke
jobs (items=8, 20k-row ingest log).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import (
    MultiItemInstance,
    convert_csv,
    multi_item_workload,
    solve_offline_multi,
)
from repro.analysis import format_table
from repro.kernels import batch_sweep_backend
from repro.workloads.traces import TraceRecord, read_trace, write_trace

from _util import emit

#: Minimum serial speedup of the batched kernel over the per-item
#: frontier loop at the largest grid point (hard when the compiled sweep
#: is available on a full run; recorded honestly either way).
BATCH_SPEEDUP_GATE = 5.0

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_service_throughput.json"

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
M = 24
if SMOKE:
    ITEM_GRID = [8]
    PER_ITEM = 40
    REPEATS = 1
    INGEST_ROWS = 20_000
else:
    ITEM_GRID = [16, 96]
    PER_ITEM = 1600
    REPEATS = 2
    INGEST_ROWS = 1_000_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _canonical_costs(off) -> str:
    """Canonical JSON dump of the full cost surface (byte-comparable)."""
    return json.dumps(
        {
            "total": off.total_cost,
            "per_item": {k: v for k, v in off.cost_breakdown().items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _synth_log(rows, items, m, seed):
    """A mixed multi-item log: Poisson times, random servers/items."""
    g = np.random.default_rng(seed)
    times = np.cumsum(g.exponential(1.0, size=rows))
    servers = g.integers(0, m, size=rows)
    ids = g.integers(0, items, size=rows)
    return [
        TraceRecord(time=float(times[i]), server=int(servers[i]),
                    item=f"obj-{int(ids[i])}")
        for i in range(rows)
    ]


def _convert_rss_kb(csv_path, dest, chunk_rows):
    """Peak RSS (KiB) of converting ``csv_path`` in a fresh interpreter."""
    script = (
        "import resource, sys\n"
        "from repro.workloads.columnar import convert_csv\n"
        "convert_csv(sys.argv[1], sys.argv[2], chunk_rows=int(sys.argv[3]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(dest), str(chunk_rows)],
        capture_output=True, text=True, check=True, env=env,
    )
    return int(out.stdout.strip())


def _bench_grid():
    """Section 1: batched kernel vs per-item loop, unconditional identity.

    The ``serial`` row is the batched instance-major kernel (the default
    for multi-item solves since P8); the ``serial-frontier`` row times
    the per-item loop on the same workload, so the JSON records the
    batch kernel's speedup, gated ≥5x at the largest grid point when the
    compiled sweep is available.
    """
    rows, json_rows = [], []
    batch_gate = None
    for num_items in ITEM_GRID:
        svc = multi_item_workload(
            num_items, num_items * PER_ITEM, M, rng=num_items
        )
        t_serial, off_serial = _best_of(lambda: solve_offline_multi(svc), REPEATS)
        canon_serial = _canonical_costs(off_serial)
        t_item, off_item = _best_of(
            lambda: solve_offline_multi(svc, kernel="frontier"), REPEATS
        )
        # Semantics gate (unconditional): the batched kernel must not
        # move the cost surface a single byte vs the per-item path.
        canon_item = _canonical_costs(off_item)
        assert canon_item == canon_serial, (
            f"batch kernel cost surface diverged from per-item frontier "
            f"at items={num_items}"
        )
        batch_gate = {
            "items": num_items,
            "per_item_frontier_seconds": t_item,
            "batch_seconds": t_serial,
            "serial_speedup": t_item / t_serial if t_serial > 0 else float("inf"),
            "backend": batch_sweep_backend(),
            "threshold": BATCH_SPEEDUP_GATE,
        }
        for path, seconds, canon in (
            ("serial", t_serial, canon_serial),
            ("serial-frontier", t_item, canon_item),
        ):
            speedup = t_serial / seconds if seconds > 0 else float("inf")
            rows.append(
                {
                    "items": num_items,
                    "requests": svc.total_requests,
                    "path": path,
                    "seconds": seconds,
                    "speedup": speedup,
                    "costs == serial": "yes",
                }
            )
            json_rows.append(
                {
                    "items": num_items,
                    "requests": svc.total_requests,
                    "m": M,
                    "path": path,
                    "seconds": seconds,
                    "speedup_vs_serial": speedup,
                    "costs_match_serial": canon == canon_serial,
                    "total_cost": off_serial.total_cost,
                    "canonical_costs_sha": hashlib.sha256(
                        canon.encode()
                    ).hexdigest()[:16],
                }
            )
    # Perf gate: serial batch ≥5x serial per-item frontier at the
    # largest grid point.  Hard only on full runs with the compiled
    # sweep — the Python fallback records its honest ratio instead.
    if not SMOKE and batch_gate["backend"] == "c":
        assert batch_gate["serial_speedup"] >= BATCH_SPEEDUP_GATE, (
            f"batch kernel only {batch_gate['serial_speedup']:.2f}x the "
            f"per-item frontier loop at items={batch_gate['items']} "
            f"(gate {BATCH_SPEEDUP_GATE}x)"
        )
    return rows, json_rows, batch_gate


def _bench_ingest(tmp):
    """Section 3: CSV vs columnar ingestion + converter bounded RSS."""
    csv_path = tmp / "ingest.csv"
    col_path = tmp / "ingest.col"
    write_trace(_synth_log(INGEST_ROWS, 32, M, seed=11), csv_path)

    t_convert, _ = _best_of(
        lambda: convert_csv(csv_path, col_path, chunk_rows=1 << 16), 1
    )
    t_csv, svc_csv = _best_of(
        lambda: MultiItemInstance.from_records(read_trace(csv_path)), 1
    )
    t_col, svc_col = _best_of(
        lambda: MultiItemInstance.from_columnar(col_path), 1
    )
    # Identity gate: both ingestion paths must build the same service.
    assert list(svc_csv.items) == list(svc_col.items)
    for k in svc_csv.items:
        a, b = svc_csv.items[k], svc_col.items[k]
        assert a == b and np.array_equal(a.t, b.t) and np.array_equal(a.srv, b.srv)

    # Bounded memory: converting a 10x longer log at the same chunk size
    # must not cost proportionally more peak RSS.
    small_csv = tmp / "ingest_small.csv"
    write_trace(_synth_log(max(INGEST_ROWS // 10, 1000), 32, M, seed=12), small_csv)
    rss_small = _convert_rss_kb(small_csv, tmp / "s.col", 8192)
    rss_big = _convert_rss_kb(csv_path, tmp / "b.col", 8192)
    assert rss_big < rss_small * 2.5, (
        f"converter RSS scales with log length: {rss_small} KiB -> "
        f"{rss_big} KiB for 10x the rows"
    )

    ratio = t_csv / t_col if t_col > 0 else float("inf")
    if not SMOKE:
        assert ratio >= 10.0, (
            f"columnar ingest only {ratio:.1f}x CSV at {INGEST_ROWS} rows"
        )
    return {
        "rows": INGEST_ROWS,
        "csv_seconds": t_csv,
        "csv_rows_per_s": INGEST_ROWS / t_csv,
        "columnar_seconds": t_col,
        "columnar_rows_per_s": INGEST_ROWS / t_col,
        "ingest_ratio": ratio,
        "ingest_ratio_gate": ">=10x, asserted on the full grid",
        "convert_seconds": t_convert,
        "convert_rows_per_s": INGEST_ROWS / t_convert,
        "convert_rss_small_kb": rss_small,
        "convert_rss_big_kb": rss_big,
        "csv_bytes": os.path.getsize(csv_path),
        "columnar_bytes": os.path.getsize(col_path),
    }


def test_service_throughput(benchmark):
    cpus = _usable_cpus()
    rows, json_rows, batch_gate = _bench_grid()
    with tempfile.TemporaryDirectory() as d:
        ingest = _bench_ingest(pathlib.Path(d))

    payload = {
        "benchmark": "service_throughput",
        "grid": {"items": ITEM_GRID, "m": M},
        "per_item_requests": PER_ITEM,
        "repeats": REPEATS,
        "smoke": SMOKE,
        "usable_cpus": cpus,
        "identity": "per grid point, the per-item frontier loop's cost "
        "surface byte-identical to the batched kernel's (canonical JSON "
        "dump compared); columnar ingest equals CSV ingest item by item",
        "batch_gate": batch_gate,
        "rows": json_rows,
        "ingest": ingest,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "service_throughput",
        format_table(rows, precision=4)
        + "\n\nserial batch kernel ({backend} sweep, items={items}): "
        "per-item {per_item_frontier_seconds:.4f}s, batch "
        "{batch_seconds:.4f}s ({serial_speedup:.1f}x, gate "
        "{threshold}x)".format(**batch_gate)
        + "\ningest {rows} rows: csv {csv_rows_per_s:,.0f} rows/s, columnar "
        "{columnar_rows_per_s:,.0f} rows/s ({ingest_ratio:.1f}x)".format(
            **ingest
        ),
        header=f"P3: serial multi-item solve + columnar ingest "
        f"(m={M}, {PER_ITEM} req/item, {cpus} usable cpu(s), "
        f"best of {REPEATS})",
    )

    svc_small = multi_item_workload(ITEM_GRID[0], ITEM_GRID[0] * 30, 8, rng=7)
    benchmark(lambda: solve_offline_multi(svc_small).total_cost)
