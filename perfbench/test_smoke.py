"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_traced_counts_agree(workload):
    plain = run.run(workload, seed=3, seconds=0, trace=False, tiny=True)
    traced = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    for record, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        result = record["result"]
        assert result["correct"] and result["failed"] == 0, record["errors"]
        assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in spec}
    assert traced["work_per_cycle"] == plain["work_per_cycle"]
    assert traced["traced_work_per_cycle"] == {
        key: plain["work_per_cycle"].get(key, 0) for key in traced["traced_work_per_cycle"]
    }
    assert all(value > 0 for value in plain["work_per_cycle"].values())


def test_last_line_is_the_result():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mc_single", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        assert f"{m['name']} " in out.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
