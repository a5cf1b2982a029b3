"""P3 — columnar ingest: CSV vs columnar, converter memory bound.

``python benchmarks/bench_service_throughput.py [--quick] [--json PATH]``
builds a :class:`MultiItemInstance` from the same log as CSV
(``read_trace`` + ``from_records``) and as columnar (``from_columnar``
over mmap columns), times the streaming converter, and writes
``BENCH_service_throughput.json`` (envelope, write rules and gate
statuses: ``_util.py``):

* **identity (hard everywhere)** — the columnar-ingested service must
  equal the CSV-ingested one item by item.
* **converter RSS (hard everywhere)** — converting a 10× longer log at
  the same chunk size must not cost proportionally more peak RSS (the
  subprocess's ``VmHWM``, ``ru_maxrss`` where ``/proc`` is missing).
* **ingest rate** — columnar ingestion must be ≥10× CSV ingestion;
  single-threaded, so hard in every full run (1M rows).

Batch-kernel vs per-item identity and speedup live in
``bench_dp_kernels.py``'s batch series.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from _util import ROOT, main, speedup, table

from repro import MultiItemInstance, convert_csv
from repro.workloads.traces import TraceRecord, read_trace, write_trace

M = 24
INGEST_GATE = 10.0


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
    """Peak RSS (KiB) of converting ``csv_path`` in a fresh interpreter.

    Linux's ``ru_maxrss`` keeps the spawning process's high-water mark
    across the exec (it read this bench's own ~370 MiB for both logs),
    so the child reports ``VmHWM``, which starts afresh with its own
    image, where ``/proc`` has it.
    """
    script = (
        "import resource, sys\n"
        "from repro.workloads.columnar import convert_csv\n"
        "convert_csv(sys.argv[1], sys.argv[2], chunk_rows=int(sys.argv[3]))\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
        "except OSError:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(dest), str(chunk_rows)],
        capture_output=True, text=True, check=True, env=env,
    )
    return int(out.stdout.strip())


def _same_service(a, b) -> bool:
    return list(a.items) == list(b.items) and all(
        a.items[k] == b.items[k]
        and np.array_equal(a.items[k].t, b.items[k].t)
        and np.array_equal(a.items[k].srv, b.items[k].srv)
        for k in a.items
    )


def run_bench(run):
    rows = 20_000 if run.quick else 1_000_000
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        csv_path, col_path = tmp / "ingest.csv", tmp / "ingest.col"
        write_trace(_synth_log(rows, 32, M, seed=11), csv_path)

        t_convert, _ = run.time(
            lambda: convert_csv(csv_path, col_path, chunk_rows=1 << 16)
        )
        t_csv, svc_csv = run.time(
            lambda: MultiItemInstance.from_records(read_trace(csv_path))
        )
        t_col, svc_col = run.time(lambda: MultiItemInstance.from_columnar(col_path))
        run.gate("ingest_identical", _same_service(svc_csv, svc_col))

        # Bounded memory: converting a 10x longer log at the same chunk
        # size must not cost proportionally more peak RSS.
        small_csv = tmp / "ingest_small.csv"
        write_trace(_synth_log(max(rows // 10, 1000), 32, M, seed=12), small_csv)
        rss_small = _convert_rss_kb(small_csv, tmp / "s.col", 8192)
        rss_big = _convert_rss_kb(csv_path, tmp / "b.col", 8192)
        csv_bytes, col_bytes = os.path.getsize(csv_path), os.path.getsize(col_path)

    rss_ratio = rss_big / rss_small
    run.gate("convert_rss_bounded", rss_ratio < 2.5, rss_ratio, "< 2.5 (10x the rows)")
    ratio = speedup(t_csv, t_col)
    run.speedup_gate("ingest_ratio", ratio, INGEST_GATE)
    ingest = {
        "rows": rows,
        "csv_s": t_csv,
        "csv_rows_per_s": rows / t_csv["median"],
        "columnar_s": t_col,
        "columnar_rows_per_s": rows / t_col["median"],
        "ingest_ratio": ratio,
        "convert_s": t_convert,
        "convert_rows_per_s": rows / t_convert["median"],
        "convert_rss_small_kb": rss_small,
        "convert_rss_big_kb": rss_big,
        "csv_bytes": csv_bytes,
        "columnar_bytes": col_bytes,
    }
    report = (
        f"P3: columnar ingest (m={M}, 32 items, timings median±MAD of "
        f"{run.repeats})\n" + table([ingest])
    )
    return {"ingest": ingest}, report


if __name__ == "__main__":
    sys.exit(main("service_throughput", __doc__, run_bench))
