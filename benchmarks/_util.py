"""Shared helpers for the benchmark suite.

Two kinds of script live in ``benchmarks/``.  The experiments (paper
figures, ablations, extensions; DESIGN.md §4) are pytest files that
``pytest benchmarks/ --benchmark-only`` regenerates: each prints its
table and writes it under ``benchmarks/out/`` through :func:`emit`.

The four benches (``bench_dp_kernels``, ``bench_competitive_ratio``,
``bench_trace_sampling``, ``bench_service_throughput``) are scripts,
``python benchmarks/bench_<x>.py [--quick] [--json PATH]``, built on
:func:`main` and :class:`Run`.  Each writes one envelope::

    {"benchmark": name, "quick": bool, "host": {...}, "gates": {...},
     <series>...}

* ``host`` is perfbench's host record (``perfbench.host.envelope``):
  usable CPUs (the process's affinity set), Python, numpy, sweep
  backend, source digest;
* every timing is ``{"median": s, "mad": s, "repeats": n}`` over the
  run's repeats;
* ``gates`` gives each gate ``pass``, ``fail`` or ``not_run`` (with the
  reason, and the measured value kept).  Identity and bound gates are
  hard everywhere, ``--quick`` included; a timing gate is hard only in
  full mode on a host that meets its conditions.  The script exits 1
  if and only if some gate reads ``fail``.

The JSON and its table are one artefact: full mode writes both to their
committed paths (``BENCH_<name>.json`` at the repository root and
``benchmarks/out/<name>.txt``); ``--quick`` writes neither unless
``--json PATH`` is given, and then the table goes next to PATH.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).parent / "out"
for _path in (ROOT, ROOT / "src"):  # standalone runs need no install
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.host import envelope  # noqa: E402
from repro.analysis import format_table  # noqa: E402


def emit(name: str, text: str, header: Optional[str] = None) -> None:
    """Print a report block and persist it to ``benchmarks/out/<name>.txt``."""
    OUT_DIR.mkdir(exist_ok=True)
    block = f"{header}\n{text}" if header else text
    (OUT_DIR / f"{name}.txt").write_text(block + "\n")
    print(f"\n=== {name} ===\n{block}")


def timing(samples: Sequence[float]) -> dict:
    """Median and median absolute deviation of ``samples``, with their count."""
    med = statistics.median(samples)
    mad = statistics.median(abs(s - med) for s in samples)
    return {"median": med, "mad": mad, "repeats": len(samples)}


def speedup(slow: dict, fast: dict) -> float:
    """Ratio of two timings' medians."""
    return slow["median"] / fast["median"] if fast["median"] > 0 else float("inf")


def table(rows: Sequence[dict]) -> str:
    """:func:`format_table` with each timing shown as ``median±MAD``."""

    def cell(value):
        if isinstance(value, dict):
            return f"{value['median']:.4g}±{value['mad']:.2g}"
        return value

    return format_table(
        [{k: cell(v) for k, v in row.items()} for row in rows], precision=4
    )


class Run:
    """One bench run: its mode, host record, timings and gates."""

    def __init__(self, name: str, quick: bool) -> None:
        self.name = name
        self.quick = quick
        self.repeats = 1 if quick else 5
        self.host = envelope(ROOT, pathlib.Path(tempfile.gettempdir()), None)
        self.gates: Dict[str, dict] = {}

    def time(self, fn: Callable[[], object]) -> Tuple[dict, object]:
        """Call ``fn`` once per repeat: ``(timing, last result)``."""
        samples = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            result = fn()
            samples.append(time.perf_counter() - t0)
        return timing(samples), result

    def gate(self, name: str, ok: bool, measured=None, threshold=None) -> None:
        """Record a gate that is hard everywhere: ``pass`` or ``fail``."""
        self.gates[name] = {"status": "pass" if ok else "fail"}
        if threshold is not None:
            self.gates[name].update(measured=measured, threshold=threshold)

    def speedup_gate(
        self,
        name: str,
        measured: Optional[float],
        threshold: float,
        min_cpus: int = 1,
        c_sweep: bool = False,
    ) -> None:
        """Record the timing gate ``measured >= threshold``.

        It is hard only in full mode, with at least ``min_cpus`` usable
        CPUs and, if ``c_sweep``, the compiled sweep; elsewhere it reads
        ``not_run`` with the reason.
        """
        cpus = self.host["usable_cpus"]
        backend = self.host["batch_sweep_backend"]
        reasons = [
            why
            for unmet, why in (
                (self.quick, "quick mode"),
                (cpus < min_cpus, f"{cpus} usable CPU(s), needs {min_cpus}"),
                (c_sweep and backend != "c", f"{backend} sweep, needs c"),
            )
            if unmet
        ]
        ok = measured is not None and measured >= threshold
        self.gate(name, ok, measured, f">= {threshold}")
        if reasons:
            self.gates[name].update(status="not_run", reason="; ".join(reasons))

    def write(self, series: dict, report: str, json_path: Optional[pathlib.Path]) -> int:
        """Print the report and gates, write the artefact; the exit status."""
        lines = []
        for name, g in self.gates.items():
            line = f"  {name}: {g['status']}"
            if "reason" in g:
                line += f" ({g['reason']})"
            if "threshold" in g:
                m = g["measured"]
                m = f"{m:.4g}" if isinstance(m, float) else m
                line += f", measured {m}, threshold {g['threshold']}"
            lines.append(line)
        text = f"{report}\n\ngates:\n" + "\n".join(lines)
        print(f"\n=== {self.name} ===\n{text}")
        table_path = None
        if json_path is not None:
            table_path = json_path.with_suffix(".txt")
        elif not self.quick:
            json_path = ROOT / f"BENCH_{self.name}.json"
            table_path = OUT_DIR / f"{self.name}.txt"
        if json_path is not None:
            payload = {
                "benchmark": self.name,
                "quick": self.quick,
                "host": self.host,
                "gates": self.gates,
                **series,
            }
            json_path.write_text(json.dumps(payload, indent=2) + "\n")
            table_path.write_text(text + "\n")
        return int(any(g["status"] == "fail" for g in self.gates.values()))


def main(
    name: str,
    doc: str,
    bench: Callable[[Run], Tuple[dict, str]],
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Command line of a script bench: ``[--quick] [--json PATH]``.

    ``bench(run)`` measures, records its gates on ``run`` and returns
    ``(series, report)``: the JSON's series and the table text.
    """
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small inputs for CI smoke: identity and bound gates stay "
        "hard, timing gates read not_run; writes nothing unless --json",
    )
    ap.add_argument(
        "--json",
        type=pathlib.Path,
        help=f"write the JSON here and its table next to it (default in "
        f"full mode: BENCH_{name}.json and benchmarks/out/{name}.txt)",
    )
    args = ap.parse_args(argv)
    run = Run(name, args.quick)
    series, report = bench(run)
    return run.write(series, report, args.json)
