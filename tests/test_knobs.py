"""Pin the execution-path knobs to the oracle entry points.

Each job has one production path.  A slower twin survives only as a test
oracle, reached through a ``kernel=`` argument on one of the entry
points in :data:`ALLOWED` (the last two split the CLI's ``--kernel``
flag between them).  The compiled kernels' backend is picked by the
``REPRO_BATCH_SWEEP`` environment variable alone, and nothing under
``src/repro`` runs a process pool.

A new function parameter named ``kernel``, ``processes`` or
``block_size`` anywhere under ``src/repro`` fails this test until the
allowlist below is edited, so adding one is a reviewed change.
"""

import ast
from pathlib import Path

KNOBS = {"kernel", "processes", "block_size"}

#: ``(module, qualified function name)`` of every allowed knob parameter.
ALLOWED = {
    ("repro/offline/dp.py", "solve_offline"),
    ("repro/sim/engine.py", "run_online"),
    ("repro/online/base.py", "OnlineAlgorithm.run"),
    ("repro/service/multi.py", "solve_offline_multi"),
    ("repro/service/multi.py", "MultiItemOnlineService.run"),
    ("repro/cli.py", "_dp_kernel"),
    ("repro/cli.py", "_online_kernel"),
}

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules():
    for path in sorted((SRC / "repro").rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _knob_sites(node, module, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            args = child.args
            if any(
                a.arg in KNOBS
                for a in args.posonlyargs + args.args + args.kwonlyargs
            ):
                yield module, name
            yield from _knob_sites(child, module, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _knob_sites(child, module, prefix + child.name + ".")
        else:
            yield from _knob_sites(child, module, prefix)


def test_knob_parameters_only_on_oracle_entry_points():
    sites = {
        site for module, tree in _modules() for site in _knob_sites(tree, module)
    }
    assert sorted(sites) == sorted(ALLOWED)


def _pool_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_process_pool():
    pooled = {
        module
        for module, tree in _modules()
        for name in _pool_names(tree)
        if name == "ProcessPoolExecutor" or name.split(".")[0] == "multiprocessing"
    }
    assert pooled == set()
