"""Defect detection over columns equals the per-record oracle.

:func:`repro.trace.validate.collect_trace_problems` checks a trace as
boolean masks over its :class:`~repro.trace.columns.TraceColumns` and
builds a record only to word a flagged row's message.  It must agree
with the record loop it replaced (``tests/helpers.py``,
``reference_trace_problems``) on every violation — invariant, message,
subjects and order — and so must ``detect_defects`` (key order
included) and the ``RepairReport`` of ``repair_trace`` in both modes:
over the fault corpus of the nine apps on both ingest paths, and over
random traces full of out-of-range ids, NaN and infinite times,
duplicate receives, overlapping executions and out-of-range idle PEs.
"""

from __future__ import annotations

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import trace_digest
from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.trace import write_trace
from repro.trace.columns import ColumnarTrace, TraceColumns
from repro.trace.events import (
    Chare,
    DepEvent,
    EntryMethod,
    EventKind,
    Execution,
    IdleInterval,
    Message,
)
from repro.trace.faults import FAULT_KINDS, fault_corpus, inject_faults
from repro.trace.model import Trace
from repro.trace.reader import read_trace, read_trace_chunked
from repro.trace.repair import detect_defects, repair_trace
from repro.trace.source import open_trace
from repro.trace.validate import collect_trace_problems
from tests.helpers import reference_defects, reference_trace_problems
from tests.test_document import APPS

pytestmark = pytest.mark.faults


def oracle_repair(trace, mode):
    """``repair_trace`` with the record loop as its detector."""
    with mock.patch("repro.trace.repair.collect_trace_problems",
                    reference_trace_problems):
        return repair_trace(trace, mode=mode)


def assert_matches_oracle(trace, label=""):
    assert collect_trace_problems(trace) == reference_trace_problems(trace), \
        label
    assert (collect_trace_problems(trace, check_pe_overlap=False)
            == reference_trace_problems(trace, check_pe_overlap=False)), label
    assert list(detect_defects(trace).items()) == list(
        reference_defects(trace).items()), label
    for mode in ("warn", "fix"):
        fixed, report = repair_trace(trace, mode=mode)
        ref_fixed, ref_report = oracle_repair(trace, mode)
        assert (json.dumps(report.to_dict())
                == json.dumps(ref_report.to_dict())), (label, mode)
        assert trace_digest(fixed) == trace_digest(ref_fixed), (label, mode)


@pytest.mark.parametrize("app", sorted(APPS))
def test_fault_corpus_matches_oracle(app, tmp_path):
    base = APPS[app]()
    variants = {"clean": base, **fault_corpus(base, seed=3, severity=0.3),
                "compound": inject_faults(base, FAULT_KINDS, seed=3,
                                          severity=0.3)}
    for label, trace in variants.items():
        path = tmp_path / f"{label}.jsonl"
        write_trace(trace, path)
        for ingest in ("chunked", "eager"):
            ingested = (read_trace(path) if ingest == "eager"
                        else open_trace(path).trace())
            assert isinstance(ingested, ColumnarTrace) == (ingest == "chunked")
            assert_matches_oracle(ingested, (label, ingest))


# ----------------------------------------------------------------------
# Random traces with every kind of bad reference and time
# ----------------------------------------------------------------------
#: NaN, infinities, ties, and pairs closer than the 1e-9 tolerance.
SPECIAL_TIMES = [math.nan, math.inf, -math.inf, 0.0, 1.0 - 5e-10, 1.0,
                 1.0 + 5e-10, 2.5]
times = st.one_of(st.sampled_from(SPECIAL_TIMES), st.integers(0, 3),
                  st.floats(-4, 8, allow_nan=False))


@st.composite
def raw_traces(draw):
    """Registries plus record lists whose ids may point anywhere
    (mostly in range, so the checks behind the id checks run too)."""
    n_chares = draw(st.integers(1, 3))
    n_entries = draw(st.integers(1, 2))
    num_pes = draw(st.integers(0, 2))
    n_exec = draw(st.integers(0, 6))
    n_events = draw(st.integers(0, 8))

    def ref(n):
        return st.one_of(st.integers(-1, n - 1), st.integers(-3, n + 1))

    executions = [
        Execution(i, draw(ref(n_chares)), draw(ref(n_entries)),
                  draw(st.integers(-1, num_pes)), draw(times), draw(times),
                  draw(ref(n_events)))
        for i in range(n_exec)
    ]
    events = [
        DepEvent(i, EventKind(draw(st.integers(0, 1))), draw(ref(n_chares)),
                 draw(ref(num_pes)), draw(times), draw(ref(n_exec)))
        for i in range(n_events)
    ]
    messages = [Message(i, draw(ref(n_events)), draw(ref(n_events)))
                for i in range(draw(st.integers(0, 6)))]
    idles = [IdleInterval(draw(ref(num_pes)), draw(times), draw(times))
             for _ in range(draw(st.integers(0, 3)))]
    chares = [Chare(i, f"C[{i}]") for i in range(n_chares)]
    entries = [EntryMethod(i, f"e{i}") for i in range(n_entries)]
    return chares, entries, executions, events, messages, idles, num_pes


def columnar(chares, entries, executions, events, messages, idles, num_pes):
    """A chunk-ingest-style trace over raw records (lazy indexes, so any
    reference is representable)."""
    def col(values, dtype):
        return np.array(values, dtype)

    columns = TraceColumns(
        ex_chare=col([x.chare for x in executions], np.int64),
        ex_entry=col([x.entry for x in executions], np.int64),
        ex_pe=col([x.pe for x in executions], np.int64),
        ex_start=col([x.start for x in executions], np.float64),
        ex_end=col([x.end for x in executions], np.float64),
        ex_recv=col([x.recv_event for x in executions], np.int64),
        ev_kind=col([int(e.kind) for e in events], np.int8),
        ev_chare=col([e.chare for e in events], np.int64),
        ev_pe=col([e.pe for e in events], np.int64),
        ev_time=col([e.time for e in events], np.float64),
        ev_exec=col([e.execution for e in events], np.int64),
        msg_send=col([m.send_event for m in messages], np.int64),
        msg_recv=col([m.recv_event for m in messages], np.int64),
        idle_pe=col([i.pe for i in idles], np.int64),
        idle_start=col([i.start for i in idles], np.float64),
        idle_end=col([i.end for i in idles], np.float64),
    )
    return ColumnarTrace(columns, chares, entries, [], num_pes)


def outcome(fn):
    """``("ok", fn())`` or ``("raised", exception type)``."""
    try:
        return "ok", fn()
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc)


@settings(max_examples=500, deadline=None)
@given(raw=raw_traces())
def test_random_defective_traces_match_oracle(raw):
    traces = [columnar(*raw)]
    chares, entries, executions, events, messages, idles, num_pes = raw
    try:  # object-backed, when its eager indexes accept the references
        traces.append(Trace(chares, entries, [], executions, events,
                            messages, idles, num_pes))
    except (IndexError, KeyError):
        pass
    for trace in traces:
        assert collect_trace_problems(trace) == reference_trace_problems(trace)
        assert list(detect_defects(trace).items()) == list(
            reference_defects(trace).items())
        assert repair_trace(trace, mode="warn")[1].detected == \
            reference_defects(trace)
        # The fix-mode pass may itself reject what it cannot index;
        # it must do so alike under either detector.
        fixed = outcome(lambda: repair_trace(trace, mode="fix")[1].to_dict())
        ref_fixed = outcome(lambda: oracle_repair(trace, "fix")[1].to_dict())
        assert json.dumps(fixed, default=str) == json.dumps(ref_fixed,
                                                             default=str)


def test_pe_overlap_running_max_skips_nan_ends():
    """A NaN end never becomes a PE's running latest end (``end >
    prev_end`` is False for it), so an execution after it that overlaps
    an earlier one is still reported, against that earlier one."""
    chares, entries = [Chare(0, "C[0]")], [EntryMethod(0, "e0")]
    executions = [Execution(0, 0, 0, 0, 0.0, 2.5),
                  Execution(1, 0, 0, 0, 1.0, math.nan),
                  Execution(2, 0, 0, 0, 2.0, 3.0)]
    raw = (chares, entries, executions, [], [], [], 1)
    for trace in (columnar(*raw), Trace(chares, entries, [], executions,
                                        [], [], [], 1)):
        problems = collect_trace_problems(trace)
        assert problems == reference_trace_problems(trace)
        assert [v.message for v in problems] == [
            "pe 0: exec 1 (start 1.0) overlaps exec 0 (end 2.5)",
            "pe 0: exec 2 (start 2.0) overlaps exec 0 (end 2.5)",
        ]


NAN_TIMES = """\
{"t": "header", "version": 1, "num_pes": 1, "metadata": {}}
{"t": "entry", "id": 0, "name": "A::go", "ct": "A", "sdag": false, "ord": -1}
{"t": "chare", "id": 0, "name": "A[0]", "arr": -1, "idx": [0], "rt": false, "pe": 0}
{"t": "exec", "id": 0, "c": 0, "e": 0, "pe": 0, "s": NaN, "x": Infinity, "rv": -1}
{"t": "exec", "id": 1, "c": 0, "e": 0, "pe": 0, "s": -Infinity, "x": NaN, "rv": -1}
{"t": "exec", "id": 2, "c": 0, "e": 0, "pe": 0, "s": 1.0, "x": 2.0, "rv": -1}
{"t": "event", "id": 0, "k": 0, "c": 0, "pe": 0, "tm": NaN, "ex": 2}
{"t": "event", "id": 1, "k": 0, "c": 0, "pe": 0, "tm": 1.5, "ex": 2}
{"t": "event", "id": 2, "k": 0, "c": 0, "pe": 0, "tm": NaN, "ex": 2}
{"t": "event", "id": 3, "k": 0, "c": 0, "pe": 0, "tm": 1.2, "ex": 2}
{"t": "idle", "pe": 0, "s": NaN, "x": 1.0}
{"t": "idle", "pe": 0, "s": 0.5, "x": 1.0}
{"t": "idle", "pe": 0, "s": NaN, "x": 2.0}
"""


def test_nan_times_index_alike_on_both_ingest_paths():
    """Both trace forms sort NaN times last, NaNs in id order: executions
    (nan, inf), (-inf, nan), (1, 2) on one PE index as [1, 2, 0] either
    way, so detection reports the same (no) ``pe-overlap`` on each."""
    eager = read_trace(io.StringIO(NAN_TIMES))
    chunked = read_trace_chunked(io.StringIO(NAN_TIMES))
    assert isinstance(chunked, ColumnarTrace)
    assert not isinstance(eager, ColumnarTrace)
    for trace in (eager, chunked):
        assert trace.executions_by_pe == {0: [1, 2, 0]}
        assert trace.executions_by_chare == {0: [1, 2, 0]}
        assert trace.events_by_execution == [[], [], [3, 1, 0, 2]]
        assert [(iv.start, iv.end) for iv in trace.idles_by_pe[0]][0] == \
            (0.5, 1.0)
        assert [iv.end for iv in trace.idles_by_pe[0]] == [1.0, 1.0, 2.0]
        assert "pe-overlap" not in {v.invariant
                                    for v in collect_trace_problems(trace)}
    assert collect_trace_problems(eager) == collect_trace_problems(chunked)
    assert_matches_oracle(eager, "eager")
    assert_matches_oracle(chunked, "chunked")


# ----------------------------------------------------------------------
# An event whose owning-execution id is out of range
# ----------------------------------------------------------------------
PING = """\
{"t": "header", "version": 1, "num_pes": 2, "metadata": {"app": "demo"}}
{"t": "entry", "id": 0, "name": "Ping::go", "ct": "Ping", "sdag": false, "ord": -1}
{"t": "chare", "id": 0, "name": "Ping[0]", "arr": -1, "idx": [0], "rt": false, "pe": 0}
{"t": "chare", "id": 1, "name": "Ping[1]", "arr": -1, "idx": [1], "rt": false, "pe": 1}
{"t": "exec", "id": 0, "c": 0, "e": 0, "pe": 0, "s": 0.0, "x": 1.0, "rv": -1}
{"t": "exec", "id": 1, "c": 1, "e": 0, "pe": 1, "s": 3.0, "x": 4.0, "rv": 1}
EXTRA{"t": "event", "id": 0, "k": 0, "c": 0, "pe": 0, "tm": 0.5, "ex": OWNER}
{"t": "event", "id": 1, "k": 1, "c": 1, "pe": 1, "tm": 3.0, "ex": 1}
{"t": "msg", "id": 0, "s": 0, "r": 1}
"""
#: Two more executions, so ``ex = -2`` names one by Python indexing.
FOUR_EXECS = (
    '{"t": "exec", "id": 2, "c": 0, "e": 0, "pe": 0, "s": 5.0, "x": 6.0, '
    '"rv": -1}\n'
    '{"t": "exec", "id": 3, "c": 1, "e": 0, "pe": 1, "s": 7.0, "x": 8.0, '
    '"rv": -1}\n'
)
READERS = {"chunked": read_trace_chunked, "eager": read_trace}


@pytest.mark.parametrize("owner, execs, ingest", [
    (-2, 4, "chunked"), (-2, 4, "eager"), (7, 2, "chunked"),
    (-3, 2, "chunked"),
])
def test_event_with_out_of_range_owner(owner, execs, ingest):
    text = PING.replace("EXTRA", FOUR_EXECS if execs == 4 else "").replace(
        "OWNER", str(owner))
    trace = READERS[ingest](io.StringIO(text))
    problems = collect_trace_problems(trace)
    assert [(v.invariant, v.subjects) for v in problems] == [
        ("event-ids", (0,))]
    assert problems == reference_trace_problems(trace)
    _, report = repair_trace(trace, mode="warn")
    assert report.detected == {"event-ids": 1}
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(repair="fix"), stats=stats)
    assert stats.repair["repaired"] == {"drop-bad-event": 1}
    assert stats.repair["residual"] == {}
    assert len(structure.trace.events) == 1
    assert oracle_repair(trace, "fix")[1].to_dict() == stats.repair


@pytest.mark.parametrize("ingest", ["chunked", "eager"])
def test_out_of_range_owner_beside_a_clamped_span(ingest):
    """``fix`` drops the bad event and clamps the inverted span in one
    round; the clamp reads the owner column, so the chunked trace's
    owner index (which rejects an out-of-range owner) is never built."""
    owner = 7 if ingest == "chunked" else -3  # eager indexes -3 as exec 1
    text = PING.replace("EXTRA", FOUR_EXECS).replace(
        "OWNER", str(owner)).replace('"s": 3.0, "x": 4.0', '"s": 3.0, "x": 2.0')
    trace = READERS[ingest](io.StringIO(text))
    fixed, report = repair_trace(trace, mode="fix")
    assert report.detected == {"exec-span": 1, "event-ids": 1,
                               "event-span": 1}
    assert report.repaired == {"drop-bad-event": 1, "clamp-exec-span": 1}
    assert report.residual == {}
    ref_fixed, ref_report = oracle_repair(trace, "fix")
    assert json.dumps(report.to_dict()) == json.dumps(ref_report.to_dict())
    assert trace_digest(fixed) == trace_digest(ref_fixed)
    ex = fixed.executions[1]
    assert (ex.start, ex.end) == (3.0, 3.0)  # widened to cover event 1
