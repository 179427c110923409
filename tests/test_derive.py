"""Trace derivations select and remap columns (``-m derive``).

Repair, fault injection, the time/chare filters and clock sync derive a
new trace from the columns of the old one
(:meth:`~repro.trace.columns.TraceColumns.take`,
:func:`~repro.trace.columns.renumber`,
:func:`~repro.trace.columns.follow`,
:func:`~repro.trace.columns.derived_trace`).  Each must equal its record
oracle in ``tests/helpers.py`` — the record-by-record ``TraceBuilder``
rebuild it replaced — in ``trace_digest`` and in ``write_trace`` bytes,
and on a chunk-ingested trace it must build no record.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import trace_digest
from repro.trace import repair
from repro.trace.clocksync import (
    apply_clock_skew,
    count_violations,
    estimate_pe_offsets,
    forward_amortize,
    synchronize_trace,
)
from repro.trace.columns import (
    ColumnarTrace,
    EventList,
    ExecutionList,
    IdleList,
    MessageList,
    TraceColumns,
)
from repro.trace.events import NO_ID, EventKind
from repro.trace.faults import FAULT_KINDS, inject_fault, inject_faults
from repro.trace.filter import filter_application, filter_chares, slice_time
from repro.trace.model import Trace, TraceBuilder
from repro.trace.reader import read_trace_chunked
from repro.trace.repair import _apply_plan, _build_plan, _Plan, repair_trace
from repro.trace.validate import collect_trace_problems
from repro.trace.writer import write_trace
from tests.helpers import (
    random_trace,
    reference_apply_clock_skew,
    reference_apply_plan,
    reference_build_plan,
    reference_count_violations,
    reference_estimate_pe_offsets,
    reference_filter_application,
    reference_filter_chares,
    reference_forward_amortize,
    reference_inject_fault,
    reference_repair_trace,
    reference_slice_time,
    reference_synchronize_trace,
)
from tests.test_detection import columnar, raw_traces
from tests.test_document import APPS

pytestmark = pytest.mark.derive

SEEDS = (0, 11)
BACKENDS = ("simulator", "chunked")
COMPOUND = ("clock_skew", "orphan_recv", "dup_messages", "truncate")


@pytest.fixture(scope="module")
def app_traces(tmp_path_factory):
    """{app: {"simulator": trace, "chunked": the same trace re-read}}."""
    root = tmp_path_factory.mktemp("derive-apps")
    out = {}
    for name, run in APPS.items():
        trace = run()
        path = os.path.join(root, f"{name}.jsonl")
        write_trace(trace, path)
        out[name] = {"simulator": trace, "chunked": read_trace_chunked(path)}
    return out


def written(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def assert_same(derived: Trace, oracle: Trace) -> None:
    assert trace_digest(derived) == trace_digest(oracle)
    assert written(derived) == written(oracle)


def reported(report) -> str:
    """The report as ``analyze --json`` orders it (key order included)."""
    return json.dumps(report.to_dict())


def skews(trace: Trace):
    offsets = [0.37 * pe for pe in range(trace.num_pes)]
    drifts = [1e-3 * (pe % 3) for pe in range(trace.num_pes)]
    return offsets, drifts


# ----------------------------------------------------------------------
# The oracle matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_faults_and_their_repair_equal_the_record_oracle(app_traces, app,
                                                         backend, kind):
    trace = app_traces[app][backend]
    for seed in SEEDS:
        bad = inject_fault(trace, kind, seed=seed)
        assert_same(bad, reference_inject_fault(trace, kind, seed=seed))
        fixed, report = repair_trace(bad, mode="fix")
        oracle, oracle_report = reference_repair_trace(bad)
        assert reported(report) == reported(oracle_report)
        assert_same(fixed, oracle)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_filters_and_clock_sync_equal_the_record_oracle(app_traces, app,
                                                        backend):
    trace = app_traces[app][backend]
    compound = inject_faults(trace, COMPOUND, seed=3)
    oracle = trace
    for kind in COMPOUND:
        oracle = reference_inject_fault(oracle, kind, seed=3)
    assert_same(compound, oracle)

    end = trace.end_time()
    for lo, hi in ((0.25 * end, 0.6 * end), (0.0, 0.1 * end)):
        assert_same(slice_time(trace, lo, hi),
                    reference_slice_time(trace, lo, hi))
    picked = range(0, len(trace.chares), 2)
    assert_same(filter_chares(trace, picked),
                reference_filter_chares(trace, picked))
    assert_same(filter_application(trace),
                reference_filter_application(trace))

    offsets, drifts = skews(trace)
    assert_same(apply_clock_skew(trace, offsets),
                reference_apply_clock_skew(trace, offsets))
    skewed = apply_clock_skew(trace, offsets, drifts)
    assert_same(skewed, reference_apply_clock_skew(trace, offsets, drifts))
    for source in (trace, skewed):
        for latency in (0.0, 0.05):
            assert count_violations(source, latency) == \
                reference_count_violations(source, latency)
            assert estimate_pe_offsets(source, latency) == \
                reference_estimate_pe_offsets(source, latency)
    amortized, blocks = forward_amortize(skewed, 0.05)
    oracle, oracle_blocks = reference_forward_amortize(skewed, 0.05)
    assert blocks == oracle_blocks
    assert_same(amortized, oracle)
    synced, stats = synchronize_trace(skewed)
    oracle, oracle_stats = reference_synchronize_trace(skewed)
    assert stats == oracle_stats
    assert_same(synced, oracle)


# ----------------------------------------------------------------------
# No records: derivations read and write columns
# ----------------------------------------------------------------------
@pytest.fixture()
def record_counter(monkeypatch):
    """Lists the lazy records built outside ``collect_trace_problems``
    (defect detection words the rows it flags from records, by design)."""
    made = []
    detecting = [0]
    for cls in (EventList, ExecutionList, MessageList, IdleList):
        def counted(self, i, _make=cls._make, _cls=cls.__name__):
            if not detecting[0]:
                made.append((_cls, i))
            return _make(self, i)

        monkeypatch.setattr(cls, "_make", counted)

    def detect(trace, *args, **kwargs):
        detecting[0] += 1
        try:
            return collect_trace_problems(trace, *args, **kwargs)
        finally:
            detecting[0] -= 1

    monkeypatch.setattr(repair, "collect_trace_problems", detect)
    return made


@pytest.mark.parametrize("app", sorted(APPS))
def test_derivations_build_no_records(app_traces, app, record_counter):
    trace = app_traces[app]["chunked"]
    offsets, drifts = skews(trace)
    skewed = apply_clock_skew(trace, offsets, drifts)
    end = trace.end_time()
    derived = [
        *(inject_fault(trace, kind, seed=1) for kind in FAULT_KINDS),
        inject_faults(trace, COMPOUND, seed=3),
        slice_time(trace, 0.2 * end, 0.5 * end),
        filter_chares(trace, [0, 1]),
        filter_application(trace),
        skewed,
        forward_amortize(skewed)[0],
        synchronize_trace(skewed)[0],
    ]
    count_violations(skewed)
    estimate_pe_offsets(skewed)
    assert record_counter == []
    for bad in derived[:len(FAULT_KINDS)]:
        repair_trace(bad, mode="fix")
    assert record_counter == []
    assert all(isinstance(t, ColumnarTrace) for t in derived)


# ----------------------------------------------------------------------
# Hypothesis properties over random traces
# ----------------------------------------------------------------------
def _ids(n: int):
    return st.sets(st.integers(min_value=-2, max_value=n + 1), max_size=6)


@st.composite
def traces_and_plans(draw):
    trace = random_trace(
        seed=draw(st.integers(0, 10_000)),
        chares=draw(st.integers(2, 6)),
        pes=draw(st.integers(1, 3)),
        rounds=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from(["charm", "mpi"])),
        noise=draw(st.sampled_from([0.0, 0.3])),
        runtime=draw(st.booleans()),
    )
    n_x, n_e = len(trace.executions), len(trace.events)
    span = st.floats(allow_nan=True, allow_infinity=False, width=64)
    plan = _Plan(
        drop_events=draw(_ids(n_e)),
        drop_messages=draw(_ids(len(trace.messages))),
        drop_execs=draw(_ids(n_x)),
        reset_recv=draw(_ids(n_x)),
        clamp_spans=draw(st.dictionaries(
            st.integers(min_value=-2, max_value=n_x + 1),
            st.tuples(span, span), max_size=4)),
        drop_idles=draw(st.booleans()),
    )
    return trace, plan


@settings(max_examples=60, deadline=None)
@given(traces_and_plans())
def test_apply_plan_equals_its_record_oracle(case):
    trace, plan = case
    assert_same(_apply_plan(trace, plan), reference_apply_plan(trace, plan))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(FAULT_KINDS),
       fault_seed=st.integers(0, 1_000),
       severity=st.floats(0.0, 1.0, allow_nan=False),
       mode=st.sampled_from(["charm", "mpi"]))
def test_inject_fault_equals_its_record_oracle(seed, kind, fault_seed,
                                               severity, mode):
    trace = random_trace(seed=seed, mode=mode, runtime=seed % 2 == 0)
    assert_same(inject_fault(trace, kind, seed=fault_seed, severity=severity),
                reference_inject_fault(trace, kind, seed=fault_seed,
                                       severity=severity))


def fix_outcome(repair):
    """Report, digest and written bytes of a fix-mode repair, or the
    type of what it raised."""
    try:
        fixed, report = repair()
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc).__name__
    return json.dumps(report.to_dict()), trace_digest(fixed), written(fixed)


@settings(max_examples=200, deadline=None)
@given(raw=raw_traces())
def test_fix_repair_of_defective_traces_equals_its_record_oracle(raw):
    """References that point anywhere, NaN and infinite times: the
    columnar form repairs exactly like the record oracle.  So does the
    object-backed form, up to the spelling of integer timestamps, which
    a derived trace writes as floats."""
    trace = columnar(*raw)
    assert fix_outcome(lambda: repair_trace(trace, mode="fix")) \
        == fix_outcome(lambda: reference_repair_trace(trace))
    try:
        trace = Trace(raw[0], raw[1], [], *raw[2:])
    except (IndexError, KeyError):
        return
    assert fix_outcome(lambda: repair_trace(trace, mode="fix"))[:2] == \
        fix_outcome(lambda: reference_repair_trace(trace))[:2]


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def _registries(b: TraceBuilder, chares: int = 3) -> None:
    b.add_entry("work")
    for c in range(chares):
        b.add_chare(f"C{c}", home_pe=c % 2, is_runtime=c == chares - 1)


def _all_derivations(trace: Trace):
    """(derived, oracle) pairs of every derivation of ``trace``."""
    end = trace.end_time()
    end = 1.0 if math.isnan(end) else end
    offsets = [0.5 * pe for pe in range(max(trace.num_pes, 1))]
    pairs = [(inject_fault(trace, kind, seed=2),
              reference_inject_fault(trace, kind, seed=2))
             for kind in FAULT_KINDS]
    pairs += [
        (slice_time(trace, 0.2 * end, 0.7 * end),
         reference_slice_time(trace, 0.2 * end, 0.7 * end)),
        (filter_chares(trace, [0]), reference_filter_chares(trace, [0])),
        (filter_application(trace), reference_filter_application(trace)),
        (apply_clock_skew(trace, offsets),
         reference_apply_clock_skew(trace, offsets)),
        (synchronize_trace(trace)[0], reference_synchronize_trace(trace)[0]),
    ]
    return pairs


def test_empty_trace():
    b = TraceBuilder(num_pes=2, metadata={"model": "charm"})
    _registries(b)
    trace = b.build()
    for derived, oracle in _all_derivations(trace):
        assert_same(derived, oracle)
    plan = _Plan(drop_events={-1, 0, 1}, clamp_spans={0: (1.0, 0.0)})
    assert_same(_apply_plan(trace, plan), reference_apply_plan(trace, plan))


def test_trace_without_executions():
    b = TraceBuilder(num_pes=2)
    _registries(b)
    for i in range(4):
        b.add_event(EventKind.SEND, i % 3, i % 2, 1.0 + i)
        b.add_event(EventKind.RECV, (i + 1) % 3, (i + 1) % 2, 0.5 + i)
        b.add_message(2 * i, 2 * i + 1)
    b.add_message(NO_ID, 3)
    b.add_idle(1, 0.25, 2.5)
    trace = b.build()
    for derived, oracle in _all_derivations(trace):
        assert_same(derived, oracle)
    fixed, report = repair_trace(trace, mode="fix")
    oracle, oracle_report = reference_repair_trace(trace)
    assert reported(report) == reported(oracle_report)
    assert_same(fixed, oracle)


def test_zero_length_and_nan_idles_are_dropped():
    base = random_trace(seed=4, pes=2)
    nan = float("nan")
    idles = [(0, 1.0, 2.0), (1, 3.0, 3.0), (0, nan, 4.0), (1, 2.0, nan),
             (0, 5.0, 4.0), (1, 0.5, 6.0)]
    columns = TraceColumns.of(base).take()
    columns.idle_pe = np.array([p for p, _, _ in idles], np.int64)
    columns.idle_start = np.array([s for _, s, _ in idles], np.float64)
    columns.idle_end = np.array([e for _, _, e in idles], np.float64)
    trace = ColumnarTrace(columns, base.chares, base.entries, base.arrays,
                          base.num_pes, base.metadata)
    for derived, oracle in _all_derivations(trace):
        assert_same(derived, oracle)
        if derived is not trace:  # a clean trace syncs to itself
            assert len(derived.idles) <= 2  # only positive spans survive
    plan = _Plan(drop_idles=True)
    assert_same(_apply_plan(trace, plan), reference_apply_plan(trace, plan))


def test_negative_and_out_of_range_references():
    """A negative reference never wraps, and an out-of-range one maps to
    NO_ID, as the record loops' dict lookups do."""
    base = random_trace(seed=8, chares=4, pes=2)
    columns = TraceColumns.of(base).take()
    n_x, n_e = columns.n_executions, columns.n_events
    columns.ex_recv = columns.ex_recv.copy()
    columns.ex_recv[:3] = [-2, n_e + 5, n_e]
    columns.ev_exec = columns.ev_exec.copy()
    columns.ev_exec[:3] = [-2, n_x + 1, NO_ID]
    columns.msg_send = np.r_[columns.msg_send, -2, n_e + 1, NO_ID, 0]
    columns.msg_recv = np.r_[columns.msg_recv, 1, -3, n_e + 2, NO_ID]
    trace = ColumnarTrace(columns, base.chares, base.entries, base.arrays,
                          base.num_pes, base.metadata)
    for kind in ("drop_messages", "orphan_recv", "negative_duration"):
        for seed in SEEDS:
            assert_same(inject_fault(trace, kind, seed=seed),
                        reference_inject_fault(trace, kind, seed=seed))
    end = trace.end_time()
    assert_same(slice_time(trace, 0.1 * end, 0.9 * end),
                reference_slice_time(trace, 0.1 * end, 0.9 * end))
    assert_same(filter_chares(trace, [0, 2]),
                reference_filter_chares(trace, [0, 2]))
    assert_same(filter_application(trace),
                reference_filter_application(trace))
    plan = _Plan(drop_events={-2, 0, n_e + 1}, drop_messages={-1, 1},
                 drop_execs={-2, 1, n_x}, reset_recv={-1, 2, n_x + 1},
                 clamp_spans={-2: (0.0, 1.0), 3: (9.0, 1.0)})
    assert_same(_apply_plan(trace, plan), reference_apply_plan(trace, plan))


def test_clamps_on_an_execution_with_nan_times():
    nan = float("nan")
    b = TraceBuilder(num_pes=1)
    _registries(b, chares=2)
    spans = [(nan, 2.0), (3.0, nan), (5.0, 4.0), (nan, nan)]
    for x, (start, end) in enumerate(spans):
        b.add_execution(0, 0, 0, start, end)
        b.add_event(EventKind.SEND, 0, 0, 1.5 + 2 * x, x)
        b.add_event(EventKind.RECV, 0, 0, nan if x == 3 else 1.0 + 2 * x, x)
    trace = b.build()
    problems = collect_trace_problems(trace)
    plan = _build_plan(trace, problems, {})
    oracle = reference_build_plan(trace, problems, {})
    assert repr(sorted(plan.clamp_spans.items())) == \
        repr(sorted(oracle.clamp_spans.items()))
    assert (plan.drop_events, plan.drop_messages, plan.reset_recv) == \
        (oracle.drop_events, oracle.drop_messages, oracle.reset_recv)
    assert_same(_apply_plan(trace, plan), reference_apply_plan(trace, oracle))
    fixed, report = repair_trace(trace, mode="fix")
    oracle_trace, oracle_report = reference_repair_trace(trace)
    assert reported(report) == reported(oracle_report)
    assert_same(fixed, oracle_trace)


def test_duplicate_receives_are_counted_first():
    """The duplicate-receive scan acts before any other repair, so its
    action leads ``RepairReport.repaired`` (``analyze --json`` order)."""
    trace = random_trace(seed=5)
    dup = inject_fault(inject_fault(trace, "negative_duration", seed=1),
                       "dup_messages", seed=1)
    actions, oracle_actions = {}, {}
    problems = collect_trace_problems(dup)
    plan = _build_plan(dup, problems, actions)
    oracle = reference_build_plan(dup, problems, oracle_actions)
    assert list(actions.items()) == list(oracle_actions.items())
    assert next(iter(actions)) == "drop-duplicate-message"
    assert plan.drop_messages == oracle.drop_messages
