"""Streaming chunked ingestion is a pure implementation detail.

``read_trace_chunked`` must produce a trace bit-identical (as a
:class:`~repro.trace.model.Trace`) to the eager ``read_trace`` on the
same file — same records, same extraction results — at every chunk
size, for every bundled app, for MPI traces, and for the fault corpus
under ingestion repair.  These are the differential twins the chunked
reader and its sectioned chunk parser promise; this file holds them to
it, pins that writer output never needs the per-line slow path while
other layouts still read alike through it, and pins the redesigned
:func:`repro.api.open_trace` front door, the structured
:class:`TraceFormatError` fields, the bounded-memory property of the
reader, and pickling of the lazy columnar containers.
"""

from __future__ import annotations

import io
import json
import pickle
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PipelineOptions, extract
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
from repro.batch import trace_digest
from repro.trace.columns import ColumnarTrace, TraceColumns
from repro.trace.events import (
    Chare,
    DepEvent,
    EventKind,
    Execution,
    IdleInterval,
    Message,
)
from repro.trace.faults import FAULT_KINDS, inject_fault
from repro.trace.model import Trace
from repro.trace.reader import (
    DEFAULT_CHUNK_BYTES,
    ReaderStats,
    TraceFormatError,
    read_trace,
    read_trace_chunked,
)
from repro.trace.source import (
    FileTraceSource,
    MemoryTraceSource,
    StreamTraceSource,
    open_trace,
)
from repro.trace.validate import validate_trace
from repro.trace.writer import write_trace

pytestmark = pytest.mark.ingest

APPS = {
    "jacobi2d": lambda: jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=7),
    "lulesh": lambda: lulesh.run_charm(chares=8, pes=4, iterations=2, seed=3),
    "lassen": lambda: lassen.run_charm(chares=8, pes=4, iterations=3, seed=1),
    "pdes": lambda: pdes.run(chares=8, pes=4, seed=5),
    "mergetree": lambda: mergetree.run(ranks=8, seed=2),
    "nasbt": lambda: nasbt.run(ranks=9, iterations=2, seed=4),
    "btsweep": lambda: btsweep.run(tiles=(3, 3), pes=4, iterations=2, seed=6),
    "multigrid": lambda: multigrid.run(fine=(8, 8), pes=4, cycles=2, seed=8),
    "sssp": lambda: sssp.run(nodes=40, edges=120, parts=8, pes=4, seed=9)[0],
}


#: Down to 1 byte, where every chunk is a single line.
CHUNK_SIZES = [1, 7, 256, 4096, DEFAULT_CHUNK_BYTES]


def _write(trace: Trace, tmp_path) -> str:
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    return str(path)


def read_writer_output(path, chunk_bytes: int = DEFAULT_CHUNK_BYTES):
    """Chunked read of a file ``write_trace`` wrote: every chunk of it
    must take the vectorized parser, never the per-line slow path."""
    stats = ReaderStats()
    trace = read_trace_chunked(path, chunk_bytes=chunk_bytes, stats=stats)
    assert stats.slow_chunks == 0
    return trace


def assert_traces_equal(a: Trace, b: Trace) -> None:
    """Record-level equality across every field the pipeline observes."""
    assert a.num_pes == b.num_pes
    assert a.metadata == b.metadata
    assert list(a.chares) == list(b.chares)
    assert list(a.entries) == list(b.entries)
    assert list(a.arrays) == list(b.arrays)
    assert a.events == b.events
    assert a.executions == b.executions
    assert a.messages == b.messages
    assert a.idles == b.idles


def assert_structures_equal(a, b) -> None:
    assert a.step_of_event == b.step_of_event
    assert a.phase_of_event == b.phase_of_event
    assert a.local_step_of_event == b.local_step_of_event
    assert len(a.phases) == len(b.phases)


# ---------------------------------------------------------------------------
# Differential twins: chunked vs eager, records and extractions.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(APPS))
def test_chunked_bit_identical(app, tmp_path):
    path = _write(APPS[app](), tmp_path)
    eager = read_trace(path)
    chunked = read_writer_output(path)
    assert isinstance(chunked, ColumnarTrace)
    assert_traces_equal(eager, chunked)
    assert_structures_equal(extract(eager), extract(chunked))
    for chunk_bytes in CHUNK_SIZES:
        assert_traces_equal(eager, read_writer_output(path, chunk_bytes))


@pytest.mark.parametrize("app", ["lulesh", "lassen"])
def test_chunked_bit_identical_mpi(app, tmp_path):
    run = lulesh.run_mpi if app == "lulesh" else lassen.run_mpi
    path = _write(run(ranks=8, iterations=2, seed=3), tmp_path)
    eager = read_trace(path)
    chunked = read_writer_output(path)
    assert_traces_equal(eager, chunked)
    assert_structures_equal(extract(eager), extract(chunked))
    for chunk_bytes in CHUNK_SIZES:
        assert_traces_equal(eager, read_writer_output(path, chunk_bytes))


@pytest.mark.faults
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_chunked_bit_identical_on_fault_corpus(kind, tmp_path):
    path = _write(inject_fault(APPS["jacobi2d"](), kind, seed=11), tmp_path)
    eager = read_trace(path)
    chunked = read_trace_chunked(path)
    assert_traces_equal(eager, chunked)
    opts = PipelineOptions(repair="fix")
    assert_structures_equal(extract(eager, opts), extract(chunked, opts))


@pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
def test_chunk_size_invariance(chunk_bytes, tmp_path):
    """Every chunk size yields the same records — including chunks so
    small every line straddles a boundary (torn-line reassembly)."""
    path = _write(APPS["jacobi2d"](), tmp_path)
    eager = read_trace(path)
    assert_traces_equal(eager, read_writer_output(path, chunk_bytes))


# ---------------------------------------------------------------------------
# Parser exactness: the sectioned parser reads every float64 and every
# float64-exact integer the writer can emit to the same bits as json.loads.
# ---------------------------------------------------------------------------
_EXACT = (1 << 53) - 1

#: Any float64 bit pattern (NaN payloads collapse to the writer's "NaN"),
#: plus the edges a uniform draw rarely hits.
_floats = st.one_of(
    st.integers(0, (1 << 64) - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1 + 0.2, float("inf"),
                     float("-inf"), float("nan")]),
)
_ints = st.integers(-_EXACT, _EXACT)
_wide_ints = st.one_of(st.integers(1 << 53, (1 << 63) - 1),
                       st.integers(-(1 << 63), -(1 << 53)))


@st.composite
def _writer_traces(draw, ints):
    """A trace of random field values that ``write_trace`` lays out in
    writer sections and ``read_trace`` accepts: owner and message ids
    index existing records, every other integer field is any of ``ints``
    and every time is any of ``_floats``."""
    n_chares = draw(st.integers(1, 3))
    chares = [Chare(i, f"c{i}") for i in range(n_chares)]
    executions = [
        Execution(i, draw(st.integers(0, n_chares - 1)), draw(ints),
                  draw(ints), draw(_floats), draw(_floats), draw(ints))
        for i in range(draw(st.integers(0, 6)))]
    owner = st.integers(-1, len(executions) - 1)
    events = [
        DepEvent(i, EventKind(draw(st.integers(0, 1))), draw(ints),
                 draw(ints), draw(_floats), draw(owner))
        for i in range(draw(st.integers(1, 8)))]
    event_id = st.integers(-1, len(events) - 1)
    messages = [Message(i, draw(event_id), draw(event_id))
                for i in range(draw(st.integers(0, 6)))]
    idles = [IdleInterval(draw(ints), draw(_floats), draw(_floats))
             for _ in range(draw(st.integers(0, 4)))]
    return Trace(chares=chares, entries=[], arrays=[], executions=executions,
                 events=events, messages=messages, idles=idles, num_pes=2)


def _read_both(trace: Trace, chunk_bytes: int):
    buf = io.StringIO()
    write_trace(trace, buf)
    text = buf.getvalue()
    stats = ReaderStats()
    chunked = read_trace_chunked(io.BytesIO(text.encode()),
                                 chunk_bytes=chunk_bytes, stats=stats)
    return read_trace(io.StringIO(text)), chunked, stats


def _assert_columns_identical(eager: Trace, chunked: ColumnarTrace) -> None:
    expected = TraceColumns.of(eager)
    for name in TraceColumns.__slots__:
        if name.startswith("_"):
            continue  # a lazily derived cache, not a column
        want, got = getattr(expected, name), getattr(chunked.columns, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(trace=_writer_traces(_ints),
       chunk_bytes=st.sampled_from([64, 4096, DEFAULT_CHUNK_BYTES]))
def test_sectioned_parse_is_bit_exact(trace, chunk_bytes):
    """Subnormals, -0.0, 17-digit reprs, +-Infinity, NaN and integers up
    to 2^53 - 1 in magnitude take the vectorized path and read to the
    same column bits as the eager reader."""
    eager, chunked, stats = _read_both(trace, chunk_bytes)
    assert stats.slow_chunks == 0
    _assert_columns_identical(eager, chunked)


@settings(max_examples=50, deadline=None)
@given(trace=_writer_traces(_wide_ints),
       chunk_bytes=st.sampled_from([64, DEFAULT_CHUNK_BYTES]))
def test_integers_past_float64_read_exactly(trace, chunk_bytes):
    """Integers at or beyond 2^53 cannot pass through float64; whichever
    path reads them, the columns still equal the eager reader's."""
    eager, chunked, _ = _read_both(trace, chunk_bytes)
    _assert_columns_identical(eager, chunked)


# ---------------------------------------------------------------------------
# Layouts the writer never produces: the per-line slow path reads what the
# sectioned parser cannot account for, record for record like the eager
# reader.
# ---------------------------------------------------------------------------
_REGISTRY = (b'{"t": "header"', b'{"t": "entry"', b'{"t": "array"',
             b'{"t": "chare"')


def _kind_of(line: bytes) -> str:
    return json.loads(line)["t"] if line.strip() else ""


def _shuffled(lines):
    lines = list(lines)
    random.Random(5).shuffle(lines)
    return lines


def _registry_last(lines):
    return ([ln for ln in lines if not ln.startswith(_REGISTRY)]
            + [ln for ln in lines if ln.startswith(_REGISTRY)])


def _blank_between_sections(lines):
    out = [lines[0]]
    for prev, line in zip(lines, lines[1:]):
        if _kind_of(prev) != _kind_of(line):
            out += [b"\n", b" \t\n"]
        out.append(line)
    return out


def _blank_inside_sections(lines):
    out = []
    for i, line in enumerate(lines):
        out.append(line)
        if i % 50 == 49:
            out.append(b"\n")
    return out


def _crlf(lines):
    return [ln[:-1] + b"\r\n" for ln in lines]


def _no_final_newline(lines):
    return lines[:-1] + [lines[-1].rstrip(b"\n")]


def _record_prefix_in_registry(lines):
    """A chare named like an event line, and header metadata holding an
    object that starts like one — mid-line, where no section begins."""
    out = []
    for line in lines:
        rec = json.loads(line)
        if rec["t"] == "chare" and rec["id"] == 0:
            rec["name"] = '{"t": "event", "id": 7'
        elif rec["t"] == "header":
            rec["metadata"] = {"nested": {"t": "event", "id": 3}}
        out.append(line if rec == json.loads(line)
                   else json.dumps(rec).encode() + b"\n")
    return out


@pytest.mark.parametrize("layout, slow", [
    (_shuffled, True),
    (_registry_last, False),
    (_blank_between_sections, False),
    (_blank_inside_sections, True),
    (_crlf, True),
    (_no_final_newline, False),
    (_record_prefix_in_registry, False),
], ids=lambda v: v.__name__.strip("_") if callable(v) else None)
def test_non_writer_layouts_match_eager(layout, slow, tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    odd = tmp_path / "odd.jsonl"
    odd.write_bytes(b"".join(layout(_lines_of(path))))
    eager = read_trace(odd)
    for chunk_bytes in (64, 4096, DEFAULT_CHUNK_BYTES):
        stats = ReaderStats()
        assert_traces_equal(eager, read_trace_chunked(
            odd, chunk_bytes=chunk_bytes, stats=stats))
    # One chunk holds the whole file: it takes the slow path iff its
    # layout is one the sectioned parser refuses.
    assert stats.chunks == 1
    assert (stats.slow_chunks == 1) == slow


def test_chunked_digest_matches_eager(tmp_path):
    """The vectorized column digest equals the per-record digest."""
    path = _write(APPS["jacobi2d"](), tmp_path)
    assert (trace_digest(MemoryTraceSource(read_trace_chunked(path)))
            == trace_digest(MemoryTraceSource(read_trace(path))))


def test_columnar_trace_pickle_roundtrip(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    chunked = read_trace_chunked(path)
    revived = pickle.loads(pickle.dumps(chunked))
    assert_traces_equal(chunked, revived)
    assert_structures_equal(extract(chunked), extract(revived))


# ---------------------------------------------------------------------------
# Bounded memory: staging footprint depends on chunk_bytes, not length.
# ---------------------------------------------------------------------------
def test_reader_staging_is_bounded_by_chunk_size(tmp_path):
    chunk_bytes = 16 << 10
    peaks = {}
    for iters in (1, 4):
        trace = jacobi2d.run(chares=(4, 4), pes=4, iterations=iters, seed=7)
        path = tmp_path / f"trace{iters}.jsonl"
        write_trace(trace, path)
        stats = ReaderStats()
        read_trace_chunked(path, chunk_bytes=chunk_bytes, stats=stats)
        longest = max(len(line) for line in
                      path.read_bytes().splitlines(keepends=True))
        # readlines(hint) stops after the line that crosses the hint, so
        # one chunk stages at most hint + one full line.
        assert stats.peak_chunk_bytes <= chunk_bytes + longest
        assert stats.chunks > 1
        peaks[iters] = (stats.peak_chunk_bytes, stats.peak_chunk_records)
    # Quadrupling the trace leaves the staging peak untouched (within
    # one line of slack for where the final chunk boundary lands).
    assert peaks[4][0] <= peaks[1][0] + longest
    assert peaks[4][1] <= peaks[1][1] * 2


def test_reader_stats_counts(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    stats = ReaderStats()
    trace = read_trace_chunked(path, stats=stats)
    with open(path, "rb") as fh:
        n_lines = sum(1 for _ in fh)
    assert stats.lines == stats.records == n_lines
    assert stats.chunks >= 1
    total = (len(trace.events) + len(trace.executions) + len(trace.messages)
             + len(trace.idles) + len(trace.chares) + len(trace.entries)
             + len(trace.arrays) + 1)  # + header
    assert stats.records == total


# ---------------------------------------------------------------------------
# Malformed inputs: structured errors with kind / line / byte offset.
# ---------------------------------------------------------------------------
def _lines_of(path) -> list:
    with open(path, "rb") as fh:
        return fh.readlines()


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
def test_unknown_kind_reports_line_and_offset(chunk_bytes, tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    lines = _lines_of(path)
    victim = len(lines) // 2
    offset = sum(len(ln) for ln in lines[:victim])
    lines.insert(victim, b'{"t": "bogus", "id": 0}\n')
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(TraceFormatError) as exc:
        read_trace_chunked(bad, chunk_bytes=chunk_bytes)
    assert exc.value.kind == "bogus"
    assert exc.value.line == victim + 1
    assert exc.value.offset == offset


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
def test_torn_final_line_is_an_error(chunk_bytes, tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    blob = Path(path).read_bytes()
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(blob[:-9])  # truncate inside the final record
    with pytest.raises(TraceFormatError):
        read_trace_chunked(torn, chunk_bytes=chunk_bytes)


def _corrupt_first(path, tmp_path, kind: str, field: str, bad: str):
    """Write a copy of ``path`` whose first ``kind`` line carries the raw
    text ``bad`` as its ``field`` value; return (copy, line, offset)."""
    lines = _lines_of(path)
    victim = next(i for i, ln in enumerate(lines) if _kind_of(ln) == kind)
    rec = json.loads(lines[victim])
    rec[field] = "@@"
    lines[victim] = json.dumps(rec).replace('"@@"', bad).encode() + b"\n"
    bad_path = tmp_path / "bad.jsonl"
    bad_path.write_bytes(b"".join(lines))
    return bad_path, victim + 1, sum(len(ln) for ln in lines[:victim])


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
@pytest.mark.parametrize("kind, field, bad", [
    ("event", "c", "03"),
    ("event", "c", "\u06638"),  # ARABIC-INDIC DIGIT THREE, then 8
    ("exec", "pe", "02"),
    ("exec", "s", "1.\u0665"),  # ARABIC-INDIC DIGIT FIVE
    ("msg", "r", "001"),
    ("idle", "pe", "-01"),
])
def test_non_json_numbers_are_an_error(kind, field, bad, chunk_bytes,
                                       tmp_path):
    """Leading zeros and non-ASCII digits are not JSON numbers: the
    chunked reader must refuse them where json.loads does."""
    path, line, offset = _corrupt_first(_write(APPS["jacobi2d"](), tmp_path),
                                        tmp_path, kind, field, bad)
    with pytest.raises(TraceFormatError) as eager:
        read_trace(path)
    assert eager.value.line == line
    with pytest.raises(TraceFormatError, match="invalid JSON") as exc:
        read_trace_chunked(path, chunk_bytes=chunk_bytes)
    assert exc.value.line == line
    assert exc.value.offset == offset


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
@pytest.mark.parametrize("value", ["2", "300", "-1"])
def test_event_kind_outside_send_recv_is_an_error(value, chunk_bytes,
                                                  tmp_path):
    path, line, offset = _corrupt_first(_write(APPS["jacobi2d"](), tmp_path),
                                        tmp_path, "event", "k", value)
    with pytest.raises(TraceFormatError, match="event kind") as eager:
        read_trace(path)
    assert (eager.value.kind, eager.value.line) == ("event", line)
    with pytest.raises(TraceFormatError, match="event kind") as exc:
        read_trace_chunked(path, chunk_bytes=chunk_bytes)
    assert (exc.value.kind, exc.value.line) == ("event", line)
    assert exc.value.offset == offset


def test_missing_field_is_an_error(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    lines = _lines_of(path)
    for i, ln in enumerate(lines):
        if ln.startswith(b'{"t": "event"'):
            lines[i] = ln.replace(b', "tm": ', b', "zz": ')
            break
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(TraceFormatError, match="missing field") as exc:
        read_trace_chunked(bad, chunk_bytes=128)
    assert exc.value.kind == "event"


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
@pytest.mark.parametrize("kind, field, bad", [
    ("exec", "id", "1.5"),
    ("exec", "s", '"1"'),
    ("event", "tm", '"1"'),
    ("event", "ex", "null"),
    ("event", "k", "true"),
    ("event", "c", "9223372036854775808"),  # 2^63: past the int64 column
    ("msg", "r", "false"),
    ("idle", "x", "[1]"),
])
def test_wrong_typed_values_are_an_error(kind, field, bad, chunk_bytes,
                                         tmp_path):
    """Integer fields take JSON integers (not booleans), number fields
    integers or floats; anything else is a format error in both readers,
    never a silent cast or a bare TypeError."""
    path, line, offset = _corrupt_first(_write(APPS["jacobi2d"](), tmp_path),
                                        tmp_path, kind, field, bad)
    message = f"{kind} field '{field}' must be"
    with pytest.raises(TraceFormatError, match=message) as eager:
        read_trace(path)
    assert (eager.value.kind, eager.value.line) == (kind, line)
    with pytest.raises(TraceFormatError, match=message) as exc:
        read_trace_chunked(path, chunk_bytes=chunk_bytes)
    assert (exc.value.kind, exc.value.line) == (kind, line)
    assert exc.value.offset == offset


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
@pytest.mark.parametrize("kind, field", [
    ("event", "tm"), ("exec", "x"), ("msg", "id"), ("idle", "pe"),
])
def test_missing_field_is_an_error_in_both_readers(kind, field, chunk_bytes,
                                                   tmp_path):
    lines = _lines_of(_write(APPS["jacobi2d"](), tmp_path))
    victim = next(i for i, ln in enumerate(lines) if _kind_of(ln) == kind)
    rec = json.loads(lines[victim])
    del rec[field]
    lines[victim] = json.dumps(rec).encode() + b"\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(TraceFormatError, match="missing field") as eager:
        read_trace(bad)
    assert (eager.value.kind, eager.value.line) == (kind, victim + 1)
    with pytest.raises(TraceFormatError, match="missing field") as exc:
        read_trace_chunked(bad, chunk_bytes=chunk_bytes)
    assert (exc.value.kind, exc.value.line) == (kind, victim + 1)
    assert exc.value.offset == sum(len(ln) for ln in lines[:victim])


@pytest.mark.parametrize("chunk_bytes", [64, DEFAULT_CHUNK_BYTES])
@pytest.mark.parametrize("damage, message", [
    ("not_utf8", "not UTF-8"),
    ("not_object", "not a JSON object"),
])
def test_undecodable_line_is_an_error(damage, message, chunk_bytes, tmp_path):
    """A chare name holding a byte that is not UTF-8, or a line that is
    JSON but no object, is a format error naming the line."""
    lines = _lines_of(_write(APPS["jacobi2d"](), tmp_path))
    victim = next(i for i, ln in enumerate(lines) if _kind_of(ln) == "chare")
    if damage == "not_utf8":
        lines[victim] = lines[victim].replace(b'"name": "', b'"name": "\xff')
    else:
        lines.insert(victim, b"[1, 2]\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(TraceFormatError, match=message) as eager:
        read_trace(bad)
    assert eager.value.line == victim + 1
    with pytest.raises(TraceFormatError, match=message) as exc:
        read_trace_chunked(bad, chunk_bytes=chunk_bytes)
    assert exc.value.line == victim + 1
    assert exc.value.offset == sum(len(ln) for ln in lines[:victim])


def test_non_dense_ids_are_an_error(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    lines = [ln for ln in _lines_of(path)
             if not ln.startswith(b'{"t": "event", "id": 0,')]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    with pytest.raises(TraceFormatError, match="dense"):
        read_trace_chunked(bad)


def test_chunk_bytes_must_be_positive(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    with pytest.raises(ValueError):
        read_trace_chunked(path, chunk_bytes=0)


# ---------------------------------------------------------------------------
# open_trace: one front door over paths, streams, traces, and sources.
# ---------------------------------------------------------------------------
def test_open_trace_path(tmp_path):
    trace = APPS["jacobi2d"]()
    path = _write(trace, tmp_path)
    src = open_trace(path)
    assert isinstance(src, FileTraceSource)
    assert str(src.path) == path and src.label == path
    assert_traces_equal(trace, src.trace())


def test_open_trace_memory_preserves_identity():
    trace = APPS["jacobi2d"]()
    src = open_trace(trace)
    assert isinstance(src, MemoryTraceSource)
    assert src.trace() is trace
    assert src.path is None


def test_open_trace_stream_consumed_once(tmp_path):
    trace = APPS["jacobi2d"]()
    path = _write(trace, tmp_path)
    stream = io.StringIO(Path(path).read_text(encoding="utf-8"))
    src = open_trace(stream)
    assert isinstance(src, StreamTraceSource)
    first = src.trace()
    assert src.trace() is first  # cached; the stream is gone
    assert_traces_equal(trace, first)


def test_open_trace_source_passthrough(tmp_path):
    src = FileTraceSource(_write(APPS["jacobi2d"](), tmp_path))
    assert open_trace(src) is src

    class DuckSource:
        label = "duck"
        path = None

        def trace(self):  # pragma: no cover - never called here
            raise AssertionError

    duck = DuckSource()
    assert open_trace(duck) is duck


def test_open_trace_rejects_junk():
    with pytest.raises(TypeError, match="trace source"):
        open_trace(42)


def test_ingest_mode_selects_reader(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    assert isinstance(open_trace(path).trace(), ColumnarTrace)
    eager = read_trace(path)
    assert isinstance(eager, Trace)
    assert not isinstance(eager, ColumnarTrace)


def test_extract_accepts_path_and_source(tmp_path):
    trace = APPS["jacobi2d"]()
    path = _write(trace, tmp_path)
    base = extract(trace)
    assert_structures_equal(base, extract(path))
    assert_structures_equal(base, extract(open_trace(path)))


def test_validate_accepts_source(tmp_path):
    path = _write(APPS["jacobi2d"](), tmp_path)
    validate_trace(open_trace(path))  # chunked columnar view; no raise

