"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def smoke(*args: str) -> list:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def test_config_names_match_the_code():
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)
    assert ([m["name"] for m in CONFIG["per_layer"]]
            == list(workloads.LAYER_METRICS))


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit_and_checks_pass(trace, key):
    results = smoke("--trace", str(trace))
    assert len(results) == len(CONFIG["workloads"])
    expected = {m["name"]: m["unit"] for m in CONFIG[key]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            if trace == 0:
                assert metric["value"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
