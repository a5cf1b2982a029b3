"""Run one benchmark workload, or all of them, and print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-request --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload, tracing off

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes an untraced and a traced pass and reports the
per-layer metrics plus the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every correctness check passed.

``--golden 0-9`` instead records the golden values of ``--workload``
for seeds 0 to 9 in ``perfbench/golden.json``: analysis cost hashes
computed with the oracle paths alone, or serve-batch's final ``/stats``
digest at ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("serve-request", "serve-batch", "analysis-hot")


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def golden_key(workload: str, seconds: float) -> Optional[str]:
    """Key of ``workload``'s golden values in ``golden.json``, if it has any.

    Analysis results do not depend on the run length; serve-batch's final
    digest does, through the number of events sent.
    """
    if workload == "serve-batch":
        return f"{workload}@{seconds:g}s"
    return workload if workload.startswith("analysis-") else None


def _prepare(name: str) -> Tuple[dict, Path]:
    """Import paths, build and run directories inside the checkout.

    Returns the environment for server processes and a fresh work
    directory.  Build products (the compiled sweep, the compiler's
    temporary files) and run files stay inside the checkout.
    """
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "repro-kernels")
    os.environ["TMPDIR"] = str(build / "tmp")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return env, workdir


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    env, workdir = _prepare(workload)
    from perfbench import host

    key = golden_key(workload, seconds)
    golden = json.loads(GOLDEN.read_text()).get(key, {}).get(str(seed)) if key else None
    try:
        envelope = host.envelope(ROOT, workdir, seed)
        envelope.update(host.compare(envelope, HERE / "baseline_host.json"))
        print(json.dumps({"workload": workload, "trace": int(trace), "envelope": envelope}), flush=True)
        if workload.startswith("serve-"):
            from perfbench import serving

            result = serving.run(workload, seed, seconds, trace, ROOT, workdir, env, golden)
        else:
            from perfbench import analysis

            result = analysis.run(workload, seed, seconds, trace, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, values, notes = result

    declared = _manifest()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(values) - names or (not trace and names - set(values)):
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(names ^ set(values))}")
    # A layer the workload does not run reads zero calls and zero time.
    values = {name: values.get(name, 0.0) for name in names}
    print(json.dumps({"notes": notes}, default=str))
    for m in declared:
        print(f"{workload}  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; fails if any run fails."""
    summary, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary[workload] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode or (summary[workload] is None)
    correct = code == 0
    print(json.dumps({"correct": correct, "workloads": summary}))
    return code


def record_golden(workload: str, seeds: List[int], seconds: float) -> int:
    key = golden_key(workload, seconds)
    if key is None:
        print(f"error: {workload} has no golden values", file=sys.stderr)
        return 2
    env, workdir = _prepare(f"golden-{workload}")
    try:
        for seed in seeds:
            if workload == "serve-batch":
                from perfbench import serving

                value = serving.golden_digest(seed, seconds, ROOT, workdir, env)
            else:
                from perfbench import analysis

                value = analysis.golden_hash(workload, seed, workdir)
            table = json.loads(GOLDEN.read_text())
            table.setdefault(key, {})[str(seed)] = value
            GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            print(key, seed, value, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    # On SIGTERM unwind normally, so servers are stopped and run files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", metavar="LO-HI", help="record golden values for these seeds instead")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(_manifest()["run_seconds"])
    if args.golden:
        lo, _, hi = args.golden.partition("-")
        return record_golden(args.workload, list(range(int(lo), int(hi or lo) + 1)), seconds)
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
