"""Smoke test of the benchmark: every workload at 2 solves prints every declared metric.

Runs bench/run.py as BENCHMARK.json declares it, in a subprocess, so the
benchmark's BLAS and environment settings apply as in a real run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (".calls", ".out_bytes", "solver.iters.", "solver.backtracks", ".stages", "rejected_steps")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--solves", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(workload, trace, group):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared


def test_traced_counts_repeat_exactly():
    first, second = (result("plateau-cli", 1)["metrics"] for _ in range(2))
    counts = [name for name in first if any(tag in name for tag in COUNTS)]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
