"""Deserialize traces written by :mod:`repro.trace.writer`.

Records may appear in any order after the header; ids are authoritative and
must be dense (0..n-1 per record type), which is what the writer emits.

Two readers share the format:

* :func:`read_trace` — the eager reader: every record becomes a dataclass
  object and the result is a fully indexed object-backed
  :class:`~repro.trace.model.Trace`.
* :func:`read_trace_chunked` — the streaming reader: the file is parsed
  in fixed-size chunks straight into growable columnar buffers
  (:class:`~repro.trace.columns.TraceColumns`) with **no per-record
  dataclass on the hot path**, and the result is a lazy
  :class:`~repro.trace.columns.ColumnarTrace`.  Peak transient memory is
  one chunk of staged rows regardless of trace length; the output
  columns are ~50 bytes/record instead of several hundred per dataclass.
  Results are bit-identical to the eager reader (differential twins in
  ``tests/test_streaming_ingest.py``).

Each chunk takes one of two paths.  The writer emits records in per-kind
sections (header and registries, then all execs, all events, all messages,
all idles), so a chunk holds at most one section per bulk kind plus
registry lines.  The vectorized path works on the chunk's bytes as read:
it splits the chunk at the first and last line that starts with each bulk
kind's writer prefix, checks that these sections do not overlap,
validates each one wholesale with a per-line regular expression of the
writer's exact layout (JSON numbers in ASCII, event kinds 0/1), and parses
it numerically at C speed: one ``bytes.translate`` blanks out the JSON
punctuation, and ``np.loadtxt`` reads the value tokens straight into a
float64 table with the same correctly rounded conversion as ``float()``.
Every line outside the sections must be blank or a registry line, which
``json.loads`` reads.  Every chunk the writer produces takes this path,
at any chunk size.

Anything else goes to the per-line ``json.loads`` slow path: kinds
interleaved, foreign field order, a blank or CRLF line inside a section,
numbers JSON rejects (leading zeros, non-ASCII digits), an event kind
other than 0/1, a field value of the wrong JSON type, text that is not
UTF-8, malformed JSON, a torn final line.  It is correct but slower, and
it produces the precise errors: a :class:`TraceFormatError` from the
chunked reader carries the record ``kind``, the 1-based ``line``, and the
absolute byte ``offset`` of the offending line.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

import numpy as np

from repro.trace.columns import ColumnarTrace, TraceColumns
from repro.trace.events import (
    Chare,
    ChareArray,
    DepEvent,
    EntryMethod,
    EventKind,
    Execution,
    IdleInterval,
    Message,
)
from repro.trace.model import Trace

#: Bytes of trace text buffered per chunk by :func:`read_trace_chunked`.
DEFAULT_CHUNK_BYTES = 4 << 20


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed.

    Structured fields: ``kind`` is the record type being parsed (None
    when it could not be determined), ``line`` the 1-based line number,
    and ``offset`` the absolute byte offset of the start of the offending
    line.  The chunked reader fills all three; the eager reader fills
    ``kind`` and ``line`` where it knows them, never ``offset``.
    """

    def __init__(self, message: str, *, kind: Optional[str] = None,
                 line: Optional[int] = None, offset: Optional[int] = None):
        super().__init__(message)
        self.kind = kind
        self.line = line
        self.offset = offset


def read_trace(path: Union[str, Path, IO[str]]) -> Trace:
    """Read a trace from ``path`` (a filesystem path or open text stream)."""
    if hasattr(path, "read"):
        return _read_stream(path)  # type: ignore[arg-type]
    # surrogateescape defers a decoding error to the line that holds it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return _read_stream(fh)


def _read_stream(fh: IO[str]) -> Trace:
    header = None
    entries: Dict[int, EntryMethod] = {}
    arrays: Dict[int, ChareArray] = {}
    chares: Dict[int, Chare] = {}
    executions: Dict[int, Execution] = {}
    events: Dict[int, DepEvent] = {}
    messages: Dict[int, Message] = {}
    idles: List[IdleInterval] = []
    # Line of each event whose owner id may not name an execution (it
    # does not name one read so far); checked once all are read.
    suspect_owner: Dict[int, int] = {}

    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        rec = _json_record(line, lineno)
        kind = rec.get("t")
        try:
            if kind == "header":
                header = rec
            elif kind == "entry":
                entries[rec["id"]] = EntryMethod(
                    rec["id"], rec["name"], rec.get("ct", ""), rec.get("sdag", False), rec.get("ord", -1)
                )
            elif kind == "array":
                arrays[rec["id"]] = ChareArray(rec["id"], rec["name"], tuple(rec.get("shape", ())))
            elif kind == "chare":
                chares[rec["id"]] = Chare(
                    rec["id"],
                    rec["name"],
                    rec.get("arr", -1),
                    tuple(rec.get("idx", ())),
                    rec.get("rt", False),
                    rec.get("pe", 0),
                )
            elif kind == "exec":
                ex = Execution(*_bulk_values(rec, kind, lineno))
                executions[ex.id] = ex
            elif kind == "event":
                ev_id, k, chare, pe, time, owner = _bulk_values(rec, kind, lineno)
                _check_event_kind(k, lineno)
                events[ev_id] = DepEvent(ev_id, EventKind(k), chare, pe, time, owner)
                if owner < -1 or owner >= len(executions):
                    suspect_owner[ev_id] = lineno
                else:
                    suspect_owner.pop(ev_id, None)
            elif kind == "msg":
                msg = Message(*_bulk_values(rec, kind, lineno))
                messages[msg.id] = msg
            elif kind == "idle":
                idles.append(IdleInterval(*_bulk_values(rec, kind, lineno)))
            else:
                raise TraceFormatError(f"line {lineno}: unknown record type {kind!r}",
                                       kind=None if kind is None else str(kind),
                                       line=lineno)
        except KeyError as exc:
            raise TraceFormatError(
                f"line {lineno}: {kind} record missing field {exc}",
                kind=kind, line=lineno) from exc

    if header is None:
        raise TraceFormatError("missing header record")
    n_exec = len(executions)
    bad_owner = [(line, ev_id) for ev_id, line in suspect_owner.items()
                 if not -n_exec <= events[ev_id].execution < n_exec]
    if bad_owner:
        # An id Python indexing cannot take: the owner index would
        # raise a bare IndexError.
        lineno, ev_id = min(bad_owner)
        raise TraceFormatError(
            f"line {lineno}: event {ev_id} names execution "
            f"{events[ev_id].execution}, but the trace has {n_exec} "
            "executions", kind="event", line=lineno)

    return Trace(
        chares=_densify(chares, "chare"),
        entries=_densify(entries, "entry"),
        arrays=_densify(arrays, "array"),
        executions=_densify(executions, "exec"),
        events=_densify(events, "event"),
        messages=_densify(messages, "msg"),
        idles=idles,
        num_pes=header["num_pes"],
        metadata=header.get("metadata", {}),
    )


def _where(line: int, offset: Optional[int]) -> str:
    return f"line {line}" if offset is None else f"line {line} (byte {offset})"


def _json_record(line, lineno: int, offset: Optional[int] = None) -> dict:
    """``json.loads`` of one record line (str or bytes).  A line that is
    not UTF-8, not JSON, or not a JSON object is a TraceFormatError."""
    try:
        if isinstance(line, str) and not line.isascii():
            line.encode("utf-8")  # fails on a surrogate-escaped stray byte
        rec = json.loads(line)
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        raise TraceFormatError(
            f"{_where(lineno, offset)}: not UTF-8 text: {exc}",
            line=lineno, offset=offset) from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            f"{_where(lineno, offset)}: invalid JSON: {exc}",
            line=lineno, offset=offset) from exc
    if not isinstance(rec, dict):
        raise TraceFormatError(
            f"{_where(lineno, offset)}: record is not a JSON object",
            line=lineno, offset=offset)
    return rec


#: Bulk record layouts: kind -> (keys in writer order, JSON type code per
#: key, keys a record may omit).  Codes: "i" an integer, "f" any number,
#: "k" an event kind (an integer; 0 or 1 is checked separately).  An
#: omitted key reads as -1.
_BULK = {
    "event": (("id", "k", "c", "pe", "tm", "ex"), "ikiifi", ("ex",)),
    "exec": (("id", "c", "e", "pe", "s", "x", "rv"), "iiiiffi", ("rv",)),
    "msg": (("id", "s", "r"), "iii", ("s", "r")),
    "idle": (("pe", "s", "x"), "iff", ()),
}
_BULK_KINDS = tuple(_BULK)
#: Integer fields land in int64 columns: their values lie in [-2^63, 2^63).
_INT64 = 1 << 63


def _bulk_values(rec: dict, kind: str, line: int,
                 offset: Optional[int] = None) -> tuple:
    """Field values of a bulk record in writer order, omitted keys as -1.

    A missing required key raises KeyError; a value whose JSON type the
    field does not take (a bool, a string, null; a fraction or an
    integer past int64 where an integer belongs) is a TraceFormatError.
    """
    keys, codes, optional = _BULK[kind]
    values = tuple(rec.get(key, -1) if key in optional else rec[key]
                   for key in keys)
    for key, code, value in zip(keys, codes, values):
        if code == "f":
            if type(value) is int or type(value) is float:
                continue
            expected = "a number"
        else:
            if type(value) is int and -_INT64 <= value < _INT64:
                continue
            expected = "an int64 integer"
        raise TraceFormatError(
            f"{_where(line, offset)}: {kind} field {key!r} must be "
            f"{expected}, got {json.dumps(value)}",
            kind=kind, line=line, offset=offset)
    return values


def _check_event_kind(value: int, line: int,
                      offset: Optional[int] = None) -> None:
    """Reject an event kind other than 0 (SEND) or 1 (RECV)."""
    if value not in (0, 1):
        raise TraceFormatError(
            f"{_where(line, offset)}: event kind {value!r} is not 0 (SEND) "
            "or 1 (RECV)", kind="event", line=line, offset=offset)


def _densify(records: Dict[int, object], label: str) -> list:
    out = []
    for i in range(len(records)):
        if i not in records:
            raise TraceFormatError(
                f"{label} ids are not dense: missing id {i}", kind=label
            )
        out.append(records[i])
    return out


# ----------------------------------------------------------------------
# Chunked columnar reader
# ----------------------------------------------------------------------
@dataclass
class ReaderStats:
    """Telemetry of one :func:`read_trace_chunked` run.

    ``peak_chunk_bytes`` / ``peak_chunk_records`` bound the transient
    staging memory: for a fixed ``chunk_bytes`` they are independent of
    total trace length (the bounded-memory property test pins this).
    """

    chunks: int = 0
    lines: int = 0
    records: int = 0
    #: Chunks that fell back to the per-line json.loads slow path.
    slow_chunks: int = 0
    peak_chunk_bytes: int = 0
    peak_chunk_records: int = 0


# JSON numbers in ASCII (plus the non-standard Infinity/NaN the stdlib
# emits and accepts): ``\d`` would admit any Unicode digit, and a bare
# ``-?\d+`` leading zeros, neither of which json.loads reads.  A line
# outside this grammar goes to the per-line slow path, never to a laxer
# parse.
_JSON_INT = r"-?(?:0|[1-9][0-9]*)"
_JSON_NUM = (r"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?"
             r"|-?Infinity|NaN)")
#: Field grammar per layout code: an integer, any JSON number, or an
#: event kind (0 = SEND, 1 = RECV; the slow path reports anything else).
_GRAMMAR = {"i": _JSON_INT, "f": _JSON_NUM, "k": r"[01]"}

#: Largest integer magnitude that survives a float64 round-trip exactly.
#: The section parse goes through float64; int columns above this bound
#: are re-parsed by a slower exact path instead.
_INT_EXACT = 1 << 53


class _TurboKind:
    """Section recipe of one bulk kind: line pattern + value columns."""

    __slots__ = ("prefix", "casts", "usecols", "line")

    def __init__(self, tag: str, keys, layout: str):
        self.prefix = b'{"t": "%s", "%s": ' % (tag.encode(), keys[0].encode())
        self.casts = layout.replace("k", "i")  # column dtype: int or float
        # Blanked, a line is the tokens ``t TAG KEY0 VALUE0 KEY1 VALUE1 ..``:
        # the values are tokens 3, 5, .., 1 + 2 * len(keys).
        self.usecols = tuple(range(3, 2 + 2 * len(keys), 2))
        line = r'\{"t": "%s"' % tag + "".join(
            r', "%s": %s' % (k, _GRAMMAR[code]) for k, code in zip(keys, layout)
        ) + r"\}"
        # One writer line, ended by a newline or the end of the section.
        # ``subn`` of this over a section leaves b"" iff the section is
        # exactly a run of such lines — what ``(?:line\n)*(?:line\n?)?``
        # fullmatches, at a fraction of the backtracking cost.
        self.line = re.compile(rb"%s(?:\n|\Z)" % line.encode())


#: Per-kind section recipes, keyed like the builder's column families.
_TURBO = {kind: _TurboKind(kind, keys, layout)
          for kind, (keys, layout, _) in _BULK.items()}
_REGISTRY_PREFIXES = (b'{"t": "header"', b'{"t": "entry"', b'{"t": "array"',
                      b'{"t": "chare"')
_REGISTRY_KINDS = ("header", "entry", "array", "chare")
#: ``bytes.translate`` table that blanks out the JSON punctuation of a
#: section line, leaving its keys and values as whitespace-split tokens.
_BLANK_PUNCTUATION = bytes.maketrans(b'{}":,', b"     ")


def _section_bounds(data: bytes, prefix: bytes):
    """``(start, end)`` of the span from the first to the last line of
    ``data`` that starts with ``prefix`` (``end`` just past that line's
    newline), or None when no line does."""
    head = data.startswith(prefix)
    last = data.rfind(b"\n" + prefix) + 1
    if not (head or last):
        return None
    first = 0 if head else data.find(b"\n" + prefix) + 1
    end = data.find(b"\n", last) + 1
    return first, end or len(data)


def _line_count(data: bytes) -> int:
    """Lines in ``data``: each ends in a newline except possibly the last."""
    return data.count(b"\n") + (not data.endswith(b"\n"))


class _GrowColumn:
    """Append-only NumPy column with doubling capacity."""

    __slots__ = ("_arr", "n")

    def __init__(self, dtype):
        self._arr = np.empty(0, dtype)
        self.n = 0

    def extend(self, values) -> None:
        k = len(values)
        if not k:
            return
        need = self.n + k
        cap = len(self._arr)
        if need > cap:
            cap = max(cap * 2, need, 1024)
            grown = np.empty(cap, self._arr.dtype)
            grown[:self.n] = self._arr[:self.n]
            self._arr = grown
        self._arr[self.n:need] = values
        self.n = need

    def array(self):
        return self._arr[:self.n].copy()


class _ChunkedBuilder:
    """Accumulates parsed chunks into columnar buffers, then finalizes."""

    def __init__(self, stats: ReaderStats):
        self.stats = stats
        self.header: Optional[dict] = None
        self.entries: Dict[int, EntryMethod] = {}
        self.arrays: Dict[int, ChareArray] = {}
        self.chares: Dict[int, Chare] = {}
        i8, f8 = np.int64, np.float64
        self.ev = tuple(_GrowColumn(t) for t in (i8, i8, i8, i8, f8, i8))
        self.ex = tuple(_GrowColumn(t) for t in (i8, i8, i8, i8, f8, f8, i8))
        self.msg = tuple(_GrowColumn(i8) for _ in range(3))
        self.idle = tuple(_GrowColumn(t) for t in (i8, f8, f8))
        self._lineno = 0  # lines consumed before the current chunk
        self._offset = 0  # bytes consumed before the current chunk

    # -- chunk ingestion ------------------------------------------------
    def feed_chunk(self, lines: List) -> None:
        """Parse one chunk (a list of raw lines, bytes or str)."""
        if not lines:
            return
        # One C-level join serves both the byte accounting and the
        # whole-chunk bytes the fast path scans.
        if isinstance(lines[0], bytes):
            data = b"".join(lines)
        else:
            data = "".join(lines).encode("utf-8")
        self.stats.chunks += 1
        self.stats.lines += len(lines)
        self.stats.peak_chunk_bytes = max(self.stats.peak_chunk_bytes,
                                          len(data))
        if not self._feed_fast(data, len(lines)):
            self.stats.slow_chunks += 1
            self._feed_slow(lines)
        self._lineno += len(lines)
        self._offset += len(data)

    def _cols_of(self, kind: str):
        return {"event": self.ev, "exec": self.ex, "msg": self.msg,
                "idle": self.idle}[kind]

    def _feed_fast(self, data: bytes, nlines: int) -> bool:
        """Batched parse of a whole chunk; False to request the slow path
        (nothing is committed in that case).

        The writer emits records in per-kind sections, so a chunk is at
        most one section per bulk kind plus registry lines.  Each section
        — first to last line starting with the kind's writer prefix — is
        validated and parsed wholesale; every other line must be blank or
        a registry line.  Anything else (interleaved kinds, foreign field
        order, a blank or CRLF line inside a section, a non-JSON number,
        a registry line that is not UTF-8) leaves the chunk to the slow
        path.
        """
        if _line_count(data) != nlines:
            return False  # line ends readlines() split on but we do not
        sections = []
        for kind, tk in _TURBO.items():
            bounds = _section_bounds(data, tk.prefix)
            if bounds is not None:
                sections.append((*bounds, kind))
        sections.sort()
        gaps = []
        pos = 0
        for start, end, _ in sections:
            if start < pos:
                return False  # sections overlap: kinds are interleaved
            gaps.append(data[pos:start])
            pos = end
        gaps.append(data[pos:])
        # Stage everything before committing so a failed section or
        # registry line cannot leave half a chunk behind for the slow path
        # to repeat.
        staged = []
        recs = 0
        for start, end, kind in sections:
            arrays = self._parse_single_kind(data[start:end], kind)
            if arrays is None:
                return False
            staged.append((self._cols_of(kind), arrays))
            recs += len(arrays[0])
        # Sections start and end at line ends, so the gaps join into
        # whole lines.
        rest = b"".join(gaps).split(b"\n")
        if not rest[-1]:
            rest.pop()  # the empty string after the final newline
        registry = []
        for line in rest:
            if not line.strip(b" \t\r"):
                continue  # blank
            if not line.startswith(_REGISTRY_PREFIXES):
                return False
            try:
                rec = json.loads(line)
                if rec["t"] not in _REGISTRY_KINDS:
                    return False
                registry.append(self._registry_entry(rec))
            except (ValueError, KeyError, TypeError):
                return False  # odd literal, registry field or encoding
            recs += 1
        for cols, arrays in staged:
            for col, arr in zip(cols, arrays):
                col.extend(arr)
        for target, key, value in registry:
            if target is None:
                self.header = value
            else:
                target[key] = value
        self.stats.records += recs
        self.stats.peak_chunk_records = max(self.stats.peak_chunk_records,
                                            recs)
        return True

    def _parse_single_kind(self, section: bytes, kind: str):
        """Validate + numerically parse one single-kind section.

        Returns the per-column arrays, or None when the section is not
        a run of writer-layout lines of ``kind`` (or holds numbers a
        float64 pass cannot carry exactly).
        """
        tk = _TURBO[kind]
        rest, n = tk.line.subn(b"", section)
        if rest:
            return None  # n counts the lines when the matches cover it all
        ncols = len(tk.casts)
        try:
            # numpy's C text reader converts each value token with the
            # correctly rounded ``PyOS_string_to_double`` that ``float()``
            # and json.loads use, so values are bit-identical to the slow
            # path; no per-token Python object is built.  A section holds
            # at least one line, so loadtxt's empty-input warning cannot
            # fire.
            table = np.loadtxt(
                io.BytesIO(section.translate(_BLANK_PUNCTUATION)),
                dtype=np.float64, usecols=tk.usecols, comments=None,
                ndmin=2)
        except ValueError:
            return None  # token the C reader rejected
        if table.shape != (n, ncols):
            return None  # record layout the column count doesn't explain
        arrays = []
        for j, cast in enumerate(tk.casts):
            col = table[:, j]
            if cast == "i":
                if not (np.abs(col) < _INT_EXACT).all():
                    return None  # needs exact integer re-parse
                arrays.append(col.astype(np.int64))
            else:
                arrays.append(col.copy())
        return arrays

    def _feed_slow(self, lines: List) -> None:
        """Per-line json.loads parse with precise error reporting.

        Only reached for chunks the fast path could not fully account
        for: foreign producers, torn/truncated lines, malformed JSON.
        Rows are staged per kind and committed in one flush, so the
        columns see the same per-kind append order as the fast path.
        """
        stages = {kind: tuple([] for _ in keys)
                  for kind, (keys, _, _) in _BULK.items()}
        lineno = self._lineno
        offset = self._offset
        recs = 0
        for raw in lines:
            lineno += 1
            stripped = raw.strip()
            if not stripped:
                offset += _byte_len(raw)
                continue
            rec = _json_record(stripped, lineno, offset)
            kind = rec.get("t")
            try:
                if kind in _BULK_KINDS:  # equality only: kind may be a list
                    values = _bulk_values(rec, kind, lineno, offset)
                    if kind == "event":
                        _check_event_kind(values[1], lineno, offset)
                    for stage, value in zip(stages[kind], values):
                        stage.append(value)
                elif kind in _REGISTRY_KINDS:
                    self._registry(rec)
                else:
                    raise TraceFormatError(
                        f"line {lineno} (byte {offset}): unknown record "
                        f"type {kind!r}",
                        kind=None if kind is None else str(kind),
                        line=lineno, offset=offset,
                    )
            except KeyError as exc:
                raise TraceFormatError(
                    f"line {lineno} (byte {offset}): {kind} record missing "
                    f"field {exc}",
                    kind=kind, line=lineno, offset=offset,
                ) from exc
            recs += 1
            offset += _byte_len(raw)
        for kind, stage in stages.items():
            for col, values in zip(self._cols_of(kind), stage):
                col.extend(values)
        self.stats.records += recs
        self.stats.peak_chunk_records = max(self.stats.peak_chunk_records,
                                            recs)

    def _registry_entry(self, rec: dict):
        """Parse a registry record into a pending ``(dict, key, value)``
        assignment (dict None for the header) without committing it."""
        kind = rec["t"]
        if kind == "header":
            return None, None, rec
        if kind == "entry":
            return self.entries, rec["id"], EntryMethod(
                rec["id"], rec["name"], rec.get("ct", ""),
                rec.get("sdag", False), rec.get("ord", -1))
        if kind == "array":
            return self.arrays, rec["id"], ChareArray(
                rec["id"], rec["name"], tuple(rec.get("shape", ())))
        return self.chares, rec["id"], Chare(
            rec["id"], rec["name"], rec.get("arr", -1),
            tuple(rec.get("idx", ())), rec.get("rt", False),
            rec.get("pe", 0))

    def _registry(self, rec: dict) -> None:
        target, key, value = self._registry_entry(rec)
        if target is None:
            self.header = value
        else:
            target[key] = value

    # -- finalization ---------------------------------------------------
    def build(self) -> Trace:
        if self.header is None:
            raise TraceFormatError("missing header record")
        ev = _reorder_by_id("event", self.ev)
        ex = _reorder_by_id("exec", self.ex)
        msg = _reorder_by_id("msg", self.msg)
        columns = TraceColumns(
            ex_chare=ex[1], ex_entry=ex[2], ex_pe=ex[3],
            ex_start=ex[4], ex_end=ex[5], ex_recv=ex[6],
            ev_kind=ev[1].astype(np.int8), ev_chare=ev[2], ev_pe=ev[3],
            ev_time=ev[4], ev_exec=ev[5],
            msg_send=msg[1], msg_recv=msg[2],
            idle_pe=self.idle[0].array(), idle_start=self.idle[1].array(),
            idle_end=self.idle[2].array(),
        )
        return ColumnarTrace(
            columns,
            chares=_densify(self.chares, "chare"),
            entries=_densify(self.entries, "entry"),
            arrays=_densify(self.arrays, "array"),
            num_pes=self.header["num_pes"],
            metadata=self.header.get("metadata", {}),
        )


def _reorder_by_id(label: str, cols) -> list:
    """Arrange a record family's columns in dense-id order.

    Replays the eager reader's dict semantics: a duplicate id keeps the
    last record seen, and the distinct ids must be dense (0..d-1) — the
    density failure message matches :func:`_densify` exactly.
    """
    ids = cols[0].array()
    n = len(ids)
    out = [col.array() for col in cols]
    if not n:
        return out
    # Writer-emitted files carry ids 0..n-1 in order: nothing to do.
    if (int(ids[0]) == 0 and int(ids[-1]) == n - 1
            and bool((ids[1:] > ids[:-1]).all())):
        return out
    uniq = np.unique(ids)
    d = len(uniq)
    present = np.isin(np.arange(d, dtype=np.int64), uniq)
    if not bool(present.all()):
        missing = int(np.flatnonzero(~present)[0])
        raise TraceFormatError(
            f"{label} ids are not dense: missing id {missing}", kind=label
        )
    if int(uniq[0]) != 0 or int(uniq[-1]) != d - 1:
        # Distinct ids outside 0..d-1 (negative or oversized): the first
        # id of 0..d-1 the records skip is the one _densify would name.
        in_range = np.zeros(d, np.bool_)
        mask = (ids >= 0) & (ids < d)
        in_range[ids[mask]] = True
        missing = int(np.flatnonzero(~in_range)[0])
        raise TraceFormatError(
            f"{label} ids are not dense: missing id {missing}", kind=label
        )
    last_row = np.empty(d, np.int64)
    last_row[ids] = np.arange(n, dtype=np.int64)  # later rows overwrite
    return [out[0][last_row]] + [col[last_row] for col in out[1:]]


def _byte_len(line) -> int:
    return len(line) if isinstance(line, bytes) else len(line.encode("utf-8"))


def read_trace_chunked(
    source: Union[str, Path, IO],
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    stats: Optional[ReaderStats] = None,
) -> Trace:
    """Read a trace in fixed-size chunks into a columnar trace.

    ``source`` is a filesystem path or an open stream (text or binary).
    Parsing stages at most one ``chunk_bytes``-sized window of rows at a
    time; the returned :class:`~repro.trace.columns.ColumnarTrace` is
    bit-identical (as a Trace) to :func:`read_trace` on the same input.
    Pass a :class:`ReaderStats` to collect telemetry.
    """
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    stats = stats if stats is not None else ReaderStats()
    builder = _ChunkedBuilder(stats)
    if hasattr(source, "read"):
        _feed_stream(builder, source, chunk_bytes)
    else:
        with open(source, "rb") as fh:
            _feed_stream(builder, fh, chunk_bytes)
    return builder.build()


def _feed_stream(builder: _ChunkedBuilder, fh: IO, chunk_bytes: int) -> None:
    while True:
        lines = fh.readlines(chunk_bytes)
        if not lines:
            return
        builder.feed_chunk(lines)
