"""Round-trip and error tests for the trace file format."""

import io

import pytest

from repro.trace import read_trace, write_trace
from repro.trace.reader import TraceFormatError

pytestmark = pytest.mark.ingest


def _roundtrip(trace):
    buf = io.StringIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf)


def test_roundtrip_preserves_counts(jacobi_trace):
    back = _roundtrip(jacobi_trace)
    assert len(back.chares) == len(jacobi_trace.chares)
    assert len(back.entries) == len(jacobi_trace.entries)
    assert len(back.executions) == len(jacobi_trace.executions)
    assert len(back.events) == len(jacobi_trace.events)
    assert len(back.messages) == len(jacobi_trace.messages)
    assert len(back.idles) == len(jacobi_trace.idles)
    assert back.num_pes == jacobi_trace.num_pes


def test_roundtrip_preserves_records(jacobi_trace):
    back = _roundtrip(jacobi_trace)
    for orig, copy in zip(jacobi_trace.executions, back.executions):
        assert (orig.chare, orig.entry, orig.pe, orig.start, orig.end,
                orig.recv_event) == (copy.chare, copy.entry, copy.pe,
                                     copy.start, copy.end, copy.recv_event)
    for orig, copy in zip(jacobi_trace.events, back.events):
        assert (orig.kind, orig.chare, orig.pe, orig.time, orig.execution) == (
            copy.kind, copy.chare, copy.pe, copy.time, copy.execution)
    for orig, copy in zip(jacobi_trace.chares, back.chares):
        assert (orig.name, orig.array_id, orig.index, orig.is_runtime,
                orig.home_pe) == (copy.name, copy.array_id, copy.index,
                                  copy.is_runtime, copy.home_pe)


def test_roundtrip_preserves_metadata(jacobi_trace):
    back = _roundtrip(jacobi_trace)
    assert back.metadata == jacobi_trace.metadata


def test_roundtrip_preserves_entry_sdag_info(jacobi_trace):
    back = _roundtrip(jacobi_trace)
    for orig, copy in zip(jacobi_trace.entries, back.entries):
        assert (orig.name, orig.is_sdag_serial, orig.sdag_ordinal) == (
            copy.name, copy.is_sdag_serial, copy.sdag_ordinal)


def test_file_roundtrip(tmp_path, jacobi_trace):
    path = tmp_path / "trace.jsonl"
    write_trace(jacobi_trace, path)
    back = read_trace(path)
    assert len(back.events) == len(jacobi_trace.events)


def test_missing_header_rejected():
    with pytest.raises(TraceFormatError, match="header"):
        read_trace(io.StringIO('{"t": "chare", "id": 0, "name": "A"}\n'))


def test_invalid_json_rejected():
    with pytest.raises(TraceFormatError, match="invalid JSON"):
        read_trace(io.StringIO("not json\n"))


def test_unknown_record_rejected():
    data = '{"t": "header", "version": 1, "num_pes": 1, "metadata": {}}\n{"t": "nope"}\n'
    with pytest.raises(TraceFormatError, match="unknown record"):
        read_trace(io.StringIO(data))


def test_non_dense_ids_rejected():
    data = (
        '{"t": "header", "version": 1, "num_pes": 1, "metadata": {}}\n'
        '{"t": "chare", "id": 5, "name": "A", "arr": -1, "idx": [], "rt": false, "pe": 0}\n'
    )
    with pytest.raises(TraceFormatError, match="not dense"):
        read_trace(io.StringIO(data))


def test_blank_lines_tolerated():
    data = '{"t": "header", "version": 1, "num_pes": 2, "metadata": {}}\n\n\n'
    trace = read_trace(io.StringIO(data))
    assert trace.num_pes == 2
    assert trace.events == []


def test_chunked_numeric_parse_emits_no_deprecation_warning(
        tmp_path, jacobi_trace):
    """The vectorized fast path must not rely on deprecated NumPy text
    parsing (``np.fromstring``): a chunked read under
    ``error::DeprecationWarning`` parses cleanly and matches the eager
    reader record-for-record."""
    import warnings

    from repro.trace.reader import read_trace_chunked

    path = tmp_path / "t.jsonl"
    write_trace(jacobi_trace, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        chunked = read_trace_chunked(path)
    eager = read_trace(path)
    assert len(chunked.executions) == len(eager.executions)
    assert len(chunked.events) == len(eager.events)
    # Bit-identical numeric columns, not merely equal counts.
    assert all(a.start == b.start and a.end == b.end
               for a, b in zip(chunked.executions, eager.executions))
    assert all(a.time == b.time
               for a, b in zip(chunked.events, eager.events))
