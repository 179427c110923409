"""One column layout per trace: ``TraceColumns.of`` and its readers.

Every column reader — the pipeline kernels, defect detection, repair,
the document and :func:`repro.batch.trace_digest` — reads a trace
through :meth:`~repro.trace.columns.TraceColumns.of`: a chunk-ingested
trace's own columns, or columns extracted from an object-backed trace's
records once and cached on it.  These tests pin the digest to its
per-record oracle, the one-build-per-trace property, the lazy message
partner column, ``Trace.end_time`` on both forms, and the object-backed
reader's rejection of an event whose owner no execution has.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.batch import trace_digest
from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.report import analysis_document
from repro.trace import write_trace
from repro.trace.columns import TraceColumns
from repro.trace.events import NO_ID, EventKind
from repro.trace.faults import FAULT_KINDS, fault_corpus, inject_faults
from repro.trace.model import TraceBuilder
from repro.trace.reader import TraceFormatError, read_trace, read_trace_chunked
from repro.trace.repair import detect_defects
from repro.trace.source import open_trace
from repro.trace.validate import collect_trace_problems
from tests.helpers import reference_trace_digest
from tests.test_batch_robustness import FIELD_FLIPS, _base_kwargs, _build
from tests.test_detection import PING
from tests.test_document import APPS

pytestmark = pytest.mark.ingest


@pytest.fixture(scope="module")
def app_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("column-apps")
    paths = {}
    for name, run in APPS.items():
        paths[name] = root / f"{name}.jsonl"
        write_trace(run(), paths[name])
    return paths


def _ping(owner=0, first_end="1.0", second_end="4.0"):
    return PING.replace("EXTRA", "").replace("OWNER", str(owner)).replace(
        '"x": 1.0', f'"x": {first_end}').replace(
        '"x": 4.0', f'"x": {second_end}')


# ----------------------------------------------------------------------
# trace_digest equals the per-record oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(APPS))
def test_digest_matches_record_oracle_on_apps(app, app_files):
    path = app_files[app]
    generated = APPS[app]()
    eager = read_trace(path)
    chunked = open_trace(path).trace()
    for trace in (generated, eager, chunked):
        assert trace_digest(trace) == reference_trace_digest(trace)
    assert trace_digest(eager) == trace_digest(chunked)


def test_digest_matches_record_oracle_on_builder_traces():
    base = _build(_base_kwargs())
    assert trace_digest(base) == reference_trace_digest(base)
    for label, (key, value) in sorted(FIELD_FLIPS.items()):
        kw = _base_kwargs()
        kw[key] = value
        trace = _build(kw)
        assert trace_digest(trace) == reference_trace_digest(trace), label


def test_digest_matches_record_oracle_with_no_ids():
    b = TraceBuilder(num_pes=1)
    b.add_chare("lonely")
    b.add_entry("noop")
    b.add_execution(0, 0, 0, 0.0, 1.0, recv_event=NO_ID)
    b.add_message(NO_ID, NO_ID)
    trace = b.build()
    assert trace_digest(trace) == reference_trace_digest(trace)


@pytest.mark.parametrize("app", sorted(APPS))
def test_digest_matches_record_oracle_on_fault_corpus(app, tmp_path):
    base = APPS[app]()
    variants = {**fault_corpus(base, seed=3, severity=0.3),
                "compound": inject_faults(base, FAULT_KINDS, seed=3,
                                          severity=0.3)}
    for label, trace in variants.items():
        path = tmp_path / f"{label}.jsonl"
        write_trace(trace, path)
        for form in (trace, read_trace_chunked(path)):
            assert trace_digest(form) == reference_trace_digest(form), label


# ----------------------------------------------------------------------
# One column build per trace
# ----------------------------------------------------------------------
def _count_builds(monkeypatch):
    builds = []
    from_trace = TraceColumns.from_trace

    def counted(trace):
        builds.append(trace)
        return from_trace(trace)

    monkeypatch.setattr(TraceColumns, "from_trace", staticmethod(counted))
    return builds


def _hardened_round(trace, tmp_path):
    trace_digest(trace)
    stats = PipelineStats()
    structure = extract_logical_structure(trace, PipelineOptions(
        repair="warn", on_error="fallback", checkpoint_dir=str(tmp_path)),
        stats=stats)
    analysis_document(structure, stats)
    collect_trace_problems(trace)
    assert structure.trace is trace


@pytest.mark.parametrize("app", sorted(APPS))
def test_object_backed_trace_builds_its_columns_once(app, tmp_path,
                                                     monkeypatch):
    trace = APPS[app]()
    builds = _count_builds(monkeypatch)
    _hardened_round(trace, tmp_path)
    assert builds == [trace]


@pytest.mark.parametrize("app", sorted(APPS))
def test_chunk_ingested_trace_builds_no_columns(app, app_files, tmp_path,
                                                monkeypatch):
    trace = open_trace(app_files[app]).trace()
    builds = _count_builds(monkeypatch)
    _hardened_round(trace, tmp_path)
    assert builds == []


# ----------------------------------------------------------------------
# The message partner column
# ----------------------------------------------------------------------
def _ping_builder():
    b = TraceBuilder(num_pes=2)
    entry = b.add_entry("go")
    a, c = b.add_chare("A"), b.add_chare("B", home_pe=1)
    xa = b.add_execution(a, entry, 0, 0.0, 2.0)
    xc = b.add_execution(c, entry, 1, 3.0, 5.0)
    return b, a, c, xa, xc


def test_detection_leaves_the_partner_column_underived():
    # A receive id past the event range would make the partner scatter
    # raise; detection must report it instead.
    b, a, c, xa, xc = _ping_builder()
    send = b.add_event(EventKind.SEND, a, 0, 1.0, xa)
    recv = b.add_event(EventKind.RECV, c, 1, 4.0, xc)
    b.add_message(send_event=send, recv_event=recv)
    trace = b.build()
    trace.messages[0].recv_event = 12345
    problems = collect_trace_problems(trace)
    assert [(v.invariant, v.subjects) for v in problems] == [
        ("message-ids", (0,))]
    assert detect_defects(trace) == {"message-ids": 1}
    with pytest.raises(IndexError):
        TraceColumns.of(trace).partner_send


def test_partner_send_keeps_the_overwrite_rule():
    # Two messages claim one receive (the later wins); a third receive's
    # message lost its send endpoint (stays -1).
    b, a, c, xa, xc = _ping_builder()
    s1 = b.add_event(EventKind.SEND, a, 0, 0.5, xa)
    s2 = b.add_event(EventKind.SEND, a, 0, 1.0, xa)
    r1 = b.add_event(EventKind.RECV, c, 1, 3.5, xc)
    r2 = b.add_event(EventKind.RECV, c, 1, 4.0, xc)
    b.add_message(send_event=s1, recv_event=r1)
    b.add_message(send_event=s2, recv_event=r1)
    b.add_message(send_event=NO_ID, recv_event=r2)
    trace = b.build()
    assert TraceColumns.of(trace).partner_send.tolist() == [-1, -1, s2, -1]


@pytest.mark.parametrize("app", sorted(APPS))
def test_partner_send_composes_message_by_recv(app, app_files):
    for trace in (APPS[app](), open_trace(app_files[app]).trace()):
        expected = [NO_ID if mid == NO_ID else trace.messages[mid].send_event
                    for mid in trace.message_by_recv]
        assert TraceColumns.of(trace).partner_send.tolist() == expected


# ----------------------------------------------------------------------
# Trace.end_time: one rule on both forms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ends, expected", [
    (("NaN", "4.0"), 4.0),
    (("1.0", "NaN"), 1.0),
    (("1.0", "4.0"), 4.0),
])
def test_end_time_skips_a_nan_end_on_both_forms(ends, expected):
    text = _ping(first_end=ends[0], second_end=ends[1])
    for reader in (read_trace, read_trace_chunked):
        assert reader(io.StringIO(text)).end_time() == expected


def test_end_time_is_nan_only_when_every_end_is():
    text = _ping(first_end="NaN", second_end="NaN")
    for reader in (read_trace, read_trace_chunked):
        assert math.isnan(reader(io.StringIO(text)).end_time())
    assert TraceBuilder(num_pes=1).build().end_time() == 0.0


@pytest.mark.parametrize("app", sorted(APPS))
def test_end_time_is_unchanged_on_a_clean_trace(app, app_files):
    generated = APPS[app]()
    expected = max(ex.end for ex in generated.executions)
    assert generated.end_time() == expected
    assert open_trace(app_files[app]).trace().end_time() == expected


# ----------------------------------------------------------------------
# read_trace rejects an owner no execution has
# ----------------------------------------------------------------------
@pytest.mark.parametrize("owner", [7, -3])
def test_read_trace_rejects_an_owner_no_execution_has(owner):
    with pytest.raises(TraceFormatError) as info:
        read_trace(io.StringIO(_ping(owner=owner)))
    assert info.value.kind == "event"
    assert info.value.line == 7  # the event record's line
    assert f"event 0 names execution {owner}" in str(info.value)
    assert "2 executions" in str(info.value)


@pytest.mark.parametrize("owner", [-2, -1, 0, 1])
def test_read_trace_accepts_an_owner_python_can_index(owner):
    trace = read_trace(io.StringIO(_ping(owner=owner)))
    assert trace.events[0].execution == owner
