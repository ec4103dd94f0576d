"""BENCHMARK.json is generated from ``qsbench.spec`` and keeps to the contract."""

import json
import os
import re

from conftest import ROOT
from qsbench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_committed_file_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.render_benchmark_json()


def test_spec_keeps_to_the_contract():
    doc = spec.benchmark_doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(doc["paths"]) <= 16 and all(PATH.match(p) for p in doc["paths"])
    assert len(doc["command"]) <= 32 and all(len(c) <= 200 for c in doc["command"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(doc["end_to_end"]) <= 16
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(doc["per_layer"]) <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in doc["end_to_end"]) == setup[0]["bound"]
    assert len(json.dumps(doc).encode()) <= 64 * 1024


def test_failure_and_miss_counters_are_lower_is_better():
    better = {m["name"]: m["better"] for m in spec.PER_LAYER}
    for name, direction in better.items():
        if name.startswith("obs.") and name.rsplit(".", 1)[1] in (
            "errors", "misses", "evictions", "created", "repairs"
        ):
            assert direction == "lower", name
    assert better["obs.serve.pool.hits"] == "higher"
    assert better["daemon.errors"] == better["obs.serve.errors"] == "lower"
