"""Smoke test for the machine-readable benchmark (bench_json.py --quick).

Runs the real script on tiny workloads and validates the record against
benchmarks/bench_schema.json — the JSON contract, not the performance,
is what the test suite gates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.bench_json import (  # noqa: E402
    SCHEMA_PATH,
    main,
    validate_schema,
)

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def bench_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_pipeline.json"
    assert main(["--quick", "--quiet", "--enforce-budget",
                 "--output", str(out)]) == 0
    return json.loads(out.read_text())


def test_quick_record_matches_schema(bench_record):
    schema = json.loads(SCHEMA_PATH.read_text())
    validate_schema(bench_record, schema)
    assert bench_record["quick"] is True


def test_quick_record_contents(bench_record):
    assert len(bench_record["fig18_iteration_scaling"]) == 2
    assert len(bench_record["fig19_chare_scaling"]) == 2
    ab = bench_record["backend_ab"]
    assert ab["identical"] is True
    assert ab["python_seconds"] > 0
    assert ab["columnar_seconds"] > 0
    assert ab["speedup"] > 0
    for row in bench_record["fig19_chare_scaling"]:
        assert row["total_seconds"] >= 0
        assert row["stage_seconds"]
    ro = bench_record["repair_overhead"]
    assert ro["off_seconds"] > 0 and ro["warn_seconds"] > 0
    assert ro["overhead"] > 0


def test_quick_record_budget(bench_record):
    budget = bench_record["budget"]
    assert budget["hot_stages"] == ["initial", "dependency_merge"]
    assert 0 <= budget["hot_fraction"] <= 1
    assert budget["within_budget"] is True
    assert budget["hot_seconds"] <= budget["total_seconds"]


def test_validator_catches_shape_errors():
    schema = json.loads(SCHEMA_PATH.read_text())
    with pytest.raises(ValueError, match="missing required"):
        validate_schema({"schema_version": 1}, schema)
    with pytest.raises(ValueError, match="expected integer"):
        validate_schema({"schema_version": "one"},
                        {"properties": schema["properties"]})


def test_committed_record_matches_schema():
    committed = REPO_ROOT / "benchmarks" / "BENCH_pipeline.json"
    if not committed.exists():
        pytest.skip("no committed BENCH_pipeline.json")
    schema = json.loads(SCHEMA_PATH.read_text())
    record = json.loads(committed.read_text())
    validate_schema(record, schema)
