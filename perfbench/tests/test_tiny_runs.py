"""Every workload, tiny-sized, emits every metric of BENCHMARK.json with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from qsbench import spec


def _run(cwd, workload, trace, env_extra=None, timeout=170):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    proc = _run(ROOT, workload, trace, {"PERFBENCH_TINY": "1", "CARGO_TARGET_DIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        assert any(name.startswith("overhead.") for name in result["metrics"])
    # the human-readable report names each end-to-end metric with its unit
    for m in spec.END_TO_END:
        assert any(
            line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
            for line in proc.stdout.splitlines()
        )


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "serve_tor", 0, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
