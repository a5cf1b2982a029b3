"""The package surface: exports resolve on first use, and a server start
imports only what it runs.

Each package ``__init__`` names its exports once, in the table that
``repro._lazy.exports`` turns into the package's ``__getattr__``,
``__dir__`` and ``__all__``.  Importing a package therefore imports none
of its submodules, so ``repro.cli`` and ``repro.service.server`` load
only the streaming decision path, the WAL and the HTTP front end.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

PACKAGES = sorted(
    name
    for _, name, ispkg in pkgutil.walk_packages(repro.__path__, "repro.")
    if ispkg
)

#: Modules a server start never runs.
UNUSED_BY_SERVING = (
    "networkx",
    "repro.analysis",
    "repro.emulator",
    "repro.faults.plan",
    "repro.kernels.online",
    "repro.offline.beam",
    "repro.offline.dp",
    "repro.runtime.supervisor",
    "repro.schedule.diagram",
    "repro.schedule.spacetime",
    "repro.sim.engine",
    "repro.workloads.synthetic",
)


def fresh(code):
    """Run ``code`` in a new interpreter; what it prints, parsed as JSON."""
    src = Path(repro.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.server"])
def test_serving_entry_points_import_only_what_they_run(module):
    loaded = fresh(
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {list(UNUSED_BY_SERVING)!r} "
        f"if m in sys.modules]))"
    )
    assert loaded == []


@pytest.mark.parametrize("package", ["repro", *PACKAGES])
def test_every_export_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    assert len(set(mod.__all__)) == len(mod.__all__)
    listing = dir(mod)
    for name in mod.__all__:
        value = getattr(mod, name)
        assert not isinstance(value, types.ModuleType), name
        assert name in listing


@pytest.mark.parametrize("package", ["repro", *PACKAGES])
def test_unknown_name_raises_attribute_error(package):
    mod = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        mod.no_such_export


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_function_named_like_its_submodule_stays_the_export():
    # ``repro.online.double_transfer`` is both a submodule and the
    # function it defines; importing the submodule first must not turn
    # the package's export into the module.
    kind = fresh(
        "import json, repro.online.double_transfer\n"
        "from repro.online import double_transfer\n"
        "print(json.dumps([callable(double_transfer), "
        "type(double_transfer).__name__]))"
    )
    assert kind == [True, "function"]
