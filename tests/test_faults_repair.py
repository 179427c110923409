"""Fault injection and trace repair: the ingestion-hardening suite.

Covers the contract of :mod:`repro.trace.faults` (every kind produces a
constructible, deterministic, genuinely damaged trace) and
:mod:`repro.trace.repair` (``fix`` restores validity and extractability,
``warn`` observes without touching, clean traces pass through
bit-identically), plus the batch/CLI surface that reports repairs.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.api import (
    FAULT_KINDS,
    BatchExtractor,
    PipelineOptions,
    RepairReport,
    detect_defects,
    extract,
    fault_corpus,
    inject_fault,
    inject_faults,
    repair_trace,
    trace_digest,
    validate_trace,
    write_trace,
)
from repro.apps import jacobi2d
from repro.cli import main
from repro.trace.repair import TraceRepairError
from repro.trace.validate import TraceValidationError

from .helpers import random_trace, structures_equal

pytestmark = pytest.mark.faults

SEVERITY = 0.3  # low severities can land a truncation cut in benign records


@pytest.fixture(scope="module")
def clean_trace():
    return jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=1)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_is_constructible_and_deterministic(clean_trace, kind):
    bad = inject_fault(clean_trace, kind, seed=7, severity=SEVERITY)
    # Constructible: ids dense, derived as a ColumnarTrace.
    assert bad.events is not None
    again = inject_fault(clean_trace, kind, seed=7, severity=SEVERITY)
    assert trace_digest(bad) == trace_digest(again)
    other = inject_fault(clean_trace, kind, seed=8, severity=SEVERITY)
    # Different seed gives different damage (truncate ignores the rng and
    # is legitimately seed-independent).
    if kind != "truncate":
        assert trace_digest(bad) != trace_digest(other)


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_changes_the_trace(clean_trace, kind):
    bad = inject_fault(clean_trace, kind, seed=0, severity=SEVERITY)
    assert trace_digest(bad) != trace_digest(clean_trace)


@pytest.mark.parametrize(
    "kind", [k for k in FAULT_KINDS if k != "drop_messages"]
)
def test_fault_injects_detectable_defects(clean_trace, kind):
    # drop_messages is excluded: losing a message record degrades the
    # recovered structure but violates no physical invariant.
    bad = inject_fault(clean_trace, kind, seed=0, severity=SEVERITY)
    assert detect_defects(bad), f"{kind} produced no detectable defect"


def test_fault_corpus_covers_all_kinds(clean_trace):
    corpus = fault_corpus(clean_trace, seed=3, severity=SEVERITY)
    assert set(corpus) == set(FAULT_KINDS)


def test_compound_faults(clean_trace):
    bad = inject_faults(clean_trace, ["orphan_recv", "clock_skew"], seed=1,
                        severity=SEVERITY)
    defects = detect_defects(bad)
    assert "orphan-event" in defects


def test_unknown_fault_kind_rejected(clean_trace):
    with pytest.raises(ValueError, match="unknown fault kind"):
        inject_fault(clean_trace, "gamma_rays")


def test_faulted_trace_roundtrips_through_io(clean_trace, tmp_path):
    bad = inject_fault(clean_trace, "truncate", severity=SEVERITY)
    path = tmp_path / "bad.jsonl"
    write_trace(bad, path)
    from repro.api import read_trace

    assert detect_defects(read_trace(path)) == detect_defects(bad)


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------
def test_repair_mode_validation(clean_trace):
    with pytest.raises(TraceRepairError):
        repair_trace(clean_trace, mode="aggressive")
    with pytest.raises(ValueError, match="repair"):
        PipelineOptions(repair="aggressive")
        extract(clean_trace, PipelineOptions().with_overrides(
            repair="aggressive"))


def test_repair_off_is_identity(clean_trace):
    bad = inject_fault(clean_trace, "orphan_recv", severity=SEVERITY)
    fixed, report = repair_trace(bad, mode="off")
    assert fixed is bad
    assert report.mode == "off" and not report.detected


def test_repair_warn_reports_without_touching(clean_trace):
    bad = inject_fault(clean_trace, "negative_duration", severity=SEVERITY)
    observed, report = repair_trace(bad, mode="warn")
    assert observed is bad
    assert report.detected and not report.changed and not report.repaired


@pytest.mark.parametrize("kind", [k for k in FAULT_KINDS])
def test_repair_fix_restores_validity(clean_trace, kind):
    bad = inject_fault(clean_trace, kind, seed=2, severity=SEVERITY)
    fixed, report = repair_trace(bad, mode="fix")
    validate_trace(fixed, check_pe_overlap=False)
    structure = extract(fixed)
    assert structure.phases
    if detect_defects(bad):
        assert report.detected
        assert not report.residual, (kind, report.residual)


@pytest.mark.parametrize("kind", ["truncate", "orphan_recv", "clock_skew"])
def test_acceptance_fix_recovers_named_faults(clean_trace, kind):
    # The issue's named recovery set: these kinds must repair to a trace
    # the extractor handles, with a populated report.
    defects = detect_defects(inject_fault(clean_trace, kind, seed=0,
                                          severity=SEVERITY))
    bad = inject_fault(clean_trace, kind, seed=0, severity=SEVERITY)
    assert defects
    if any(k != "orphan-event" for k in defects):
        # orphan events are tolerated by the validator (detected by the
        # repair layer only); everything else must fail validation.
        with pytest.raises(TraceValidationError):
            validate_trace(bad, check_pe_overlap=False)
    fixed, report = repair_trace(bad, mode="fix")
    validate_trace(fixed, check_pe_overlap=False)
    extract(fixed)
    assert report.detected and report.repaired and report.changed


def test_repair_clean_trace_is_noop(clean_trace):
    fixed, report = repair_trace(clean_trace, mode="fix")
    assert fixed is clean_trace
    assert report.clean and not report.changed and report.rounds == 0


def test_repair_report_roundtrip():
    report = RepairReport(mode="fix", detected={"exec-recv": 3},
                          repaired={"reset-dangling-recv": 3}, rounds=1,
                          changed=True)
    assert RepairReport.from_dict(report.to_dict()) == report
    assert "reset-dangling-recv" in report.summary()


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------
def test_pipeline_repair_warn_warns_and_reports(clean_trace):
    from repro.api import PipelineStats

    bad = inject_fault(clean_trace, "clock_skew", severity=SEVERITY)
    stats = PipelineStats()
    with pytest.warns(RuntimeWarning, match="trace defects detected"):
        extract(bad, repair="warn", stats=stats)
    assert stats.repair is not None and stats.repair["detected"]
    assert "repair" in stats.stage_seconds


def test_pipeline_repair_fix_clean_trace_bit_identical(clean_trace):
    base = extract(clean_trace, repair="off")
    fixed = extract(clean_trace, repair="fix")
    assert structures_equal(base, fixed)


def test_pipeline_repair_off_no_stats(clean_trace):
    from repro.api import PipelineStats

    stats = PipelineStats()
    extract(clean_trace, stats=stats)
    assert stats.repair is None


# ---------------------------------------------------------------------------
# Property tests: random traces × fault kinds
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_property_fix_always_recovers(seed, kind):
    trace = random_trace(seed=seed, chares=5, pes=3, rounds=3)
    bad = inject_fault(trace, kind, seed=seed, severity=SEVERITY)
    fixed, report = repair_trace(bad, mode="fix")
    validate_trace(fixed, check_pe_overlap=False)
    extract(fixed)  # must not raise
    assert not report.residual


@pytest.mark.parametrize("seed", range(4))
def test_property_clean_repair_noop(seed):
    trace = random_trace(seed=seed, chares=5, pes=3, rounds=3)
    assert structures_equal(extract(trace, repair="off"),
                            extract(trace, repair="fix"))


# ---------------------------------------------------------------------------
# Batch + CLI over a fault corpus
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_dir(clean_trace, tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for kind, bad in fault_corpus(clean_trace, seed=0,
                                  severity=SEVERITY).items():
        write_trace(bad, root / f"j.{kind}.jsonl")
    write_trace(clean_trace, root / "j.clean.jsonl")
    (root / "j.garbage.jsonl").write_text("not json\n")
    return root


def test_batch_over_fault_corpus_completes(corpus_dir):
    # Acceptance: a corpus containing every fault kind (plus an unreadable
    # file) completes — no hang, no crash — with per-trace failure rows.
    paths = sorted(str(p) for p in corpus_dir.glob("*.jsonl"))
    report = BatchExtractor(
        PipelineOptions(repair="fix"), jobs=2, timeout=120.0,
    ).run(paths)
    assert len(report.results) == len(paths)
    by_name = {r.source.rsplit("/", 1)[-1]: r for r in report.results}
    assert not by_name["j.garbage.jsonl"].ok
    assert not report.ok  # exit status reflects the failure row
    for name, r in by_name.items():
        if name != "j.garbage.jsonl":
            assert r.ok, (name, r.error)
    # Repaired rows carry a populated RepairReport in the JSON summary.
    truncated = by_name["j.truncate.jsonl"].summary["repair"]
    assert truncated["detected"] and truncated["repaired"]
    assert by_name["j.clean.jsonl"].summary["repair"]["clean"]


def test_cli_faults_corpus_and_batch_json(clean_trace, tmp_path, capsys):
    src = tmp_path / "clean.jsonl"
    write_trace(clean_trace, src)
    out = tmp_path / "corpus"
    assert main(["faults", str(src), "--corpus", str(out),
                 "--severity", str(SEVERITY), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["variants"]) == set(FAULT_KINDS)
    assert doc["variants"]["truncate"]["defects"]

    paths = sorted(str(p) for p in out.glob("*.jsonl"))
    assert main(["batch", *paths, "--repair", "fix", "--json"]) == 0
    batch = json.loads(capsys.readouterr().out)
    assert batch["ok"]
    repaired = [r for r in batch["results"]
                if r["summary"].get("repair", {}).get("repaired")]
    assert repaired


def test_cli_faults_single_variant(clean_trace, tmp_path, capsys):
    src = tmp_path / "clean.jsonl"
    write_trace(clean_trace, src)
    out = tmp_path / "skewed.jsonl"
    assert main(["faults", str(src), "--kind", "clock_skew",
                 "-o", str(out)]) == 0
    assert out.exists()
    assert "defects:" in capsys.readouterr().out


def test_cli_faults_requires_kind_or_corpus(clean_trace, tmp_path):
    src = tmp_path / "clean.jsonl"
    write_trace(clean_trace, src)
    assert main(["faults", str(src)]) == 2


def test_cli_analyze_repair_json(clean_trace, tmp_path, capsys):
    bad = inject_fault(clean_trace, "orphan_recv", severity=SEVERITY)
    src = tmp_path / "bad.jsonl"
    write_trace(bad, src)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["analyze", str(src), "--repair", "fix",
                     "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["repair"]["repaired"]
