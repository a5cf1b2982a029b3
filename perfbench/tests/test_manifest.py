"""BENCHMARK.json: names, units and the keys the runner depends on."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench.run import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def test_names_use_only_letters_digits_underscore_dot_dash():
    names = [w["name"] for w in MANIFEST["workloads"]]
    names += [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))


def test_metric_entries():
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_workloads_match_the_runner():
    assert tuple(w["name"] for w in MANIFEST["workloads"]) == WORKLOADS
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in MANIFEST["workloads"])
