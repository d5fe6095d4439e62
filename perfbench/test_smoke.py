"""Smoke test of the benchmark at a tiny size (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced; the test checks the output
contract, not the speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, trace: int):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    full = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), full


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    lines, last, full = result(workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert units(last["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    assert any(line.strip().startswith("operations: attempted") for line in lines)

    lines, traced, traced_full = result(workload, 1)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] >= 1
    assert units(traced["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert traced_full["digest"] == full["digest"]

    _, again, again_full = result(workload, 0)
    assert again_full["digest"] == full["digest"]


def test_benchmark_json_matches_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.per_layer_spec()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("train", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_leaves_ten_samples_above():
    assert run.tail(list(range(19))) is None
    p, value = run.tail(list(range(100)))
    assert (p, value) == (90, 89)
    assert sum(1 for v in range(100) if v > value) == 10
