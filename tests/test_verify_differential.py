"""Full-pipeline strict verification across every bundled app generator.

For each application trace the differential harness runs the pipeline
under the whole option matrix (reordered/physical × infer on/off, plus
the index tie-break) and asserts every invariant in every variant plus
the cross-variant facts.  Also covers the ``repro verify`` CLI
acceptance path: exit 0 with a clean trace, non-zero with a report
naming the violated invariant on a corrupted one.
"""

import json

import pytest

from repro.apps import (
    btsweep,
    jacobi2d,
    lassen,
    lulesh,
    mergetree,
    multigrid,
    nasbt,
    pdes,
    sssp,
)
from repro.cli import main
from repro.trace import write_trace
from repro.verify import default_variants, run_differential
from tests.helpers import SyntheticTrace, random_trace

pytestmark = pytest.mark.verify

APP_TRACES = {
    "jacobi2d": lambda: jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=7),
    "lulesh-charm": lambda: lulesh.run_charm(chares=8, pes=2, iterations=2, seed=3),
    "lulesh-mpi": lambda: lulesh.run_mpi(ranks=8, iterations=2, seed=3),
    "lassen-charm": lambda: lassen.run_charm(chares=8, pes=8, iterations=3, seed=1),
    "lassen-mpi": lambda: lassen.run_mpi(ranks=8, iterations=3, seed=1),
    "nasbt": lambda: nasbt.run(ranks=9, iterations=2, seed=1),
    "sssp": lambda: sssp.run(nodes=40, edges=90, parts=6, pes=3, seed=2)[0],
    "mergetree": lambda: mergetree.run(ranks=16, seed=2, imbalance=4.0),
    "pdes": lambda: pdes.run(chares=8, pes=2, seed=1),
    "multigrid": lambda: multigrid.run(fine=(4, 4), pes=4, cycles=2, seed=0),
    "btsweep": lambda: btsweep.run(tiles=(4, 4), pes=4, iterations=2, seed=0),
}


@pytest.mark.parametrize("app", sorted(APP_TRACES))
def test_app_passes_differential_verification(app):
    trace = APP_TRACES[app]()
    report = run_differential(trace)
    assert report.ok, "\n".join(
        f"[{v.invariant}] {v.message}" for v in report.all_violations()[:10]
    )
    assert len(report.results) == len(default_variants())
    # every variant actually produced a structure with stepped events
    for result in report.results:
        assert result.ok
        assert result.structure.max_step >= 0


def test_variant_matrix_shape():
    base = [
        "reordered/infer",
        "reordered/noinfer",
        "physical/infer",
        "physical/noinfer",
        "reordered/infer/index",
    ]
    backend_twins = ["reordered/infer/columnar", "physical/noinfer/columnar"]
    names = [name for name, _ in default_variants()]
    assert names == base + backend_twins
    assert [name for name, _ in default_variants(backends=False)] == base
    assert [name for name, _ in
            default_variants(tie_breaks=False, backends=False)] == base[:4]
    # Base variants pin the reference backend; twins request the
    # columnar backend, named by their suffix.
    for name, options in default_variants():
        expected = "columnar" if name.endswith("/columnar") else "python"
        assert options.backend == expected, name


def test_report_is_machine_readable():
    trace = random_trace(seed=3, chares=5, pes=2, rounds=2, runtime=True)
    report = run_differential(trace)
    assert report.ok
    report.assert_ok()  # must not raise on a clean report
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["cross_violations"] == []
    for row in payload["variants"]:
        assert row["violations"] == []
        assert row["phases"] >= 1
    json.dumps(payload)  # JSON-serializable end to end


# ---------------------------------------------------------------------------
# CLI acceptance: `repro verify`
# ---------------------------------------------------------------------------
def _corrupt_trace():
    """A trace whose receive physically precedes its matching send."""
    tr = SyntheticTrace(num_pes=2)
    a = tr.chare("A", pe=0)
    b = tr.chare("B", pe=1)
    tr.block(a, "work", 0, 4.0, 6.0, [("send", "m0", 5.0)])
    tr.block(b, "work", 1, 0.5, 1.5, [("recv", "m0", 1.0)])
    return tr.build()


def test_cli_verify_clean_trace_exits_zero(tmp_path, capsys):
    trace = random_trace(seed=5, chares=5, pes=2, rounds=2, runtime=True)
    path = tmp_path / "clean.jsonl"
    write_trace(trace, str(path))
    assert main(["verify", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_verify_differential_json(tmp_path, capsys):
    trace = random_trace(seed=6, chares=4, pes=2, rounds=2, runtime=True)
    path = tmp_path / "clean.jsonl"
    write_trace(trace, str(path))
    assert main(["verify", str(path), "--differential", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["invariants_violated"] == []
    assert len(payload["differential"]["variants"]) == len(default_variants())


def test_cli_verify_corrupted_trace_reports_invariant(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    write_trace(_corrupt_trace(), str(path))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "recv-after-send" in out  # names the violated invariant
    assert "FAIL" in out


def test_cli_verify_stage_table(tmp_path, capsys):
    trace = random_trace(seed=8, chares=4, pes=2, rounds=2, runtime=True)
    path = tmp_path / "clean.jsonl"
    write_trace(trace, str(path))
    assert main(["verify", str(path), "--stages"]) == 0
    out = capsys.readouterr().out
    for stage in ("initial", "dependency_merge", "local_steps", "global_steps"):
        assert stage in out
