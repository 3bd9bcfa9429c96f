"""Smoke test of the benchmark at tiny shapes, run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload must print every end-to-end metric when untraced and every
per-layer metric when traced, each by name and with the unit BENCHMARK.json
gives it, in the human-readable lines and in the final JSON line.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    proc = run_bench(ROOT, workload, trace, seed=3)
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        line = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)}( |$)", re.MULTILINE)
        assert line.search(proc.stdout), f"{name} is not printed with unit {unit}"
    assert re.search(r"^error_rate = \S+ ratio ", proc.stdout, re.MULTILINE)


@pytest.mark.parametrize("workload", ["digits_pipeline", "head_wide"])
@pytest.mark.parametrize("seed", [3, 4])
def test_no_operation_fails(workload, seed):
    proc = run_bench(ROOT, workload, 0, seed)
    assert last_json(proc)["failed"] == 0
    assert "inputs reproducible from the seed: yes" in proc.stdout


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "head_wide", 0, seed=3)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_operations_counted_once_per_run():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import count_operations

    body = {"ops": [{"op": "a", "ok": True, "reason": None},
                    {"op": "b", "ok": False, "reason": "loss above base"}]}
    assert count_operations(2, [body] * 5, crashed=0)[:2] == (2, 1)
    assert count_operations(2, [body], crashed=0)[:2] == (2, 1)
    assert count_operations(2, [body], crashed=1)[:2] == (2, 2)
