"""The script benches' shared envelope (``benchmarks/_util.py``).

Gate statuses and the exit code, the host's usable-CPU count, and the
write rules: full mode writes the JSON and its table to the committed
paths, ``--quick`` writes neither unless ``--json PATH`` is given.
"""

import importlib.util
import json
import os
import pathlib

import pytest

UTIL = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "_util.py"


@pytest.fixture
def util(tmp_path, monkeypatch):
    """``_util`` loaded by path, its committed paths moved under tmp."""
    spec = importlib.util.spec_from_file_location("bench_util", UTIL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "ROOT", tmp_path / "repo")
    monkeypatch.setattr(mod, "OUT_DIR", tmp_path / "repo" / "benchmarks" / "out")
    mod.OUT_DIR.mkdir(parents=True)
    return mod


def committed(util):
    return [util.ROOT / "BENCH_x.json", util.OUT_DIR / "x.txt"]


def test_hard_gate_below_threshold_fails_and_exits_1(util):
    run = util.Run("x", quick=False)
    run.speedup_gate("speedup", 2.0, 3.0)
    run.gate("identical", True)
    assert run.gates["speedup"] == {
        "status": "fail", "measured": 2.0, "threshold": ">= 3.0"
    }
    assert run.gates["identical"] == {"status": "pass"}
    assert run.write({}, "report", None) == 1


def test_passing_gates_exit_0(util):
    run = util.Run("x", quick=False)
    run.speedup_gate("speedup", 4.0, 3.0)
    run.gate("bound", True, 1.5, "<= 3")
    assert [g["status"] for g in run.gates.values()] == ["pass", "pass"]
    assert run.write({}, "report", None) == 0


def test_unmet_hard_condition_reads_not_run_with_reason_and_value(util, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run = util.Run("x", quick=False)
    run.speedup_gate("speedup", 2.0, 10.0, min_cpus=4)
    gate = run.gates["speedup"]
    assert gate["status"] == "not_run"
    assert gate["reason"] == "1 usable CPU(s), needs 4"
    assert gate["measured"] == 2.0
    assert run.write({}, "report", None) == 0


def test_c_sweep_condition(util):
    run = util.Run("x", quick=False)
    run.host["batch_sweep_backend"] = "python"
    run.speedup_gate("batch", 12.0, 5.0, c_sweep=True)
    assert run.gates["batch"]["status"] == "not_run"
    assert run.gates["batch"]["reason"] == "python sweep, needs c"


def test_identity_failure_fails_in_quick_mode(util):
    run = util.Run("x", quick=True)
    run.gate("identical", False)
    run.speedup_gate("speedup", 1.0, 3.0)
    assert run.gates["identical"]["status"] == "fail"
    assert run.gates["speedup"]["status"] == "not_run"
    assert run.gates["speedup"]["reason"] == "quick mode"
    assert run.write({}, "report", None) == 1


def test_usable_cpus_is_the_affinity_set(util, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert util.Run("x", quick=False).host["usable_cpus"] == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert util.Run("x", quick=False).host["usable_cpus"] == 4


def test_timings_are_median_and_mad(util):
    assert util.timing([3.0, 1.0, 2.0, 10.0, 2.5]) == {
        "median": 2.5, "mad": 0.5, "repeats": 5
    }
    run = util.Run("x", quick=False)
    t, result = run.time(lambda: "done")
    assert result == "done" and t["repeats"] == run.repeats > 1


def fake_bench(run):
    run.gate("identical", True)
    run.speedup_gate("speedup", 4.0, 3.0)
    return {"rows": [1, 2]}, "the table"


def test_quick_run_writes_nothing(util, tmp_path):
    assert util.main("x", "doc", fake_bench, ["--quick"]) == 0
    assert not any(p.exists() for p in committed(util))
    assert list(tmp_path.rglob("*.json")) == []


def test_quick_run_with_json_writes_only_there(util, tmp_path):
    out = tmp_path / "elsewhere" / "quick.json"
    out.parent.mkdir()
    assert util.main("x", "doc", fake_bench, ["--quick", "--json", str(out)]) == 0
    assert not any(p.exists() for p in committed(util))
    payload = json.loads(out.read_text())
    assert payload["quick"] is True
    assert payload["gates"]["speedup"]["status"] == "not_run"
    assert "the table" in out.with_suffix(".txt").read_text()


def test_full_run_writes_both_committed_paths(util):
    assert util.main("x", "doc", fake_bench, []) == 0
    json_path, table_path = committed(util)
    payload = json.loads(json_path.read_text())
    assert list(payload)[:4] == ["benchmark", "quick", "host", "gates"]
    assert payload["benchmark"] == "x" and payload["quick"] is False
    assert payload["rows"] == [1, 2]
    assert payload["host"]["usable_cpus"] == len(os.sched_getaffinity(0))
    assert payload["gates"]["speedup"]["status"] == "pass"
    text = table_path.read_text()
    assert "the table" in text and "speedup: pass" in text
