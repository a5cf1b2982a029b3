"""Host envelope recorded with every run, and the comparability rule."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

#: Envelope fields that change the numbers by integer factors: a Python
#: fallback sweep instead of the compiled one, or a WAL whose fsync is a
#: no-op (tmpfs).  A run that differs from the baseline in one of them is
#: not comparable with it.
COMPARED = ("batch_sweep_backend", "wal_fs")


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path``, from ``/proc/mounts``."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1].replace("\\040", " ")
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha(root: Path) -> str:
    """Digest of the sources under test, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def envelope(root: Path, workdir: Path, seed: int) -> dict:
    import numpy

    from repro.kernels import batch_sweep_backend

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batch_sweep_backend": batch_sweep_backend(),
        "wal_fs": filesystem_type(workdir),
        "git_sha": _git_sha(root),
        "source_sha": source_sha(root),
        "seed": seed,
    }


def compare(env: dict, baseline_path: Path) -> dict:
    """``{"comparable": bool, "differs": {field: [baseline, run]}}``."""
    baseline = json.loads(baseline_path.read_text())
    differs = {k: [baseline.get(k), env.get(k)] for k in COMPARED if baseline.get(k) != env.get(k)}
    return {"comparable": not differs, "differs": differs}
