"""Columnar trace storage: dense NumPy columns plus a lazy :class:`Trace`.

:class:`TraceColumns` is the one column layout of a trace: ingest,
defect detection, repair, the pipeline kernels, the document and the
content digest all read it through :meth:`TraceColumns.of`.  The chunked
reader (:func:`repro.trace.reader.read_trace_chunked`) parses a JSONL
trace directly into these per-record-type arrays — no per-event
dataclass objects on the hot path — and :class:`ColumnarTrace` wraps
them in the full :class:`Trace` API:

* ``events`` / ``executions`` / ``messages`` / ``idles`` are
  :class:`LazyRecordList` views that materialize a dataclass record only
  when one is actually indexed or iterated (the columnar pipeline never
  does on its hot path);
* the derived indexes (``events_by_execution``,
  ``executions_by_chare``, ...) are built **on first access**, each by a
  vectorized kernel that replays the exact insertion-and-sort order of
  :meth:`Trace._build_indexes` — the columnar pipeline only ever touches
  ``executions_by_chare``.

An object-backed trace (:func:`repro.trace.reader.read_trace`, a
:class:`~repro.trace.model.TraceBuilder`) gets its columns extracted from
the records once, on first use, and cached on the trace.

Derived traces are made from columns too: repair, fault injection, the
time/chare filters and clock sync select rows per record family
(:meth:`TraceColumns.take`), renumber the kept rows (:func:`renumber`),
map reference columns through the new ids (:func:`follow`) and wrap
the result with the source's registries (:func:`derived_trace`), so
they build no record.  A derived trace shares the column arrays it did
not change with its source: nothing writes into a column in place.

Bit-identity with the eager path is the contract: every index kernel
here reproduces the python loop's dict/list orders element for element,
and the differential twins in ``tests/test_streaming_ingest.py`` hold
the line.  Instances pickle compactly (arrays, not objects), so
pipeline checkpoints of a streamed trace double as stream snapshots.

This module must not import :mod:`repro.core` (the core imports the
trace model).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.trace.events import (
    NO_ID,
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


class TraceColumns:
    """Dense columns of every bulk record type of one trace.

    Executions: ``ex_chare``/``ex_entry``/``ex_pe``/``ex_recv`` (int64),
    ``ex_start``/``ex_end`` (float64).  Events: ``ev_kind`` (int8),
    ``ev_chare``/``ev_pe``/``ev_exec`` (int64), ``ev_time`` (float64).
    Messages: ``msg_send``/``msg_recv`` (int64).  Idles: ``idle_pe``
    (int64), ``idle_start``/``idle_end`` (float64).  Row *i* of each
    family is the record with dense id *i*.  ``partner_send`` is derived
    from the message columns on first use (see its docstring).
    """

    __slots__ = (
        "ex_chare", "ex_entry", "ex_pe", "ex_start", "ex_end", "ex_recv",
        "ev_kind", "ev_chare", "ev_pe", "ev_time", "ev_exec",
        "msg_send", "msg_recv",
        "idle_pe", "idle_start", "idle_end",
        "_partner_send",
    )

    def __init__(self, ex_chare, ex_entry, ex_pe, ex_start, ex_end, ex_recv,
                 ev_kind, ev_chare, ev_pe, ev_time, ev_exec,
                 msg_send, msg_recv, idle_pe, idle_start, idle_end):
        self.ex_chare = ex_chare
        self.ex_entry = ex_entry
        self.ex_pe = ex_pe
        self.ex_start = ex_start
        self.ex_end = ex_end
        self.ex_recv = ex_recv
        self.ev_kind = ev_kind
        self.ev_chare = ev_chare
        self.ev_pe = ev_pe
        self.ev_time = ev_time
        self.ev_exec = ev_exec
        self.msg_send = msg_send
        self.msg_recv = msg_recv
        self.idle_pe = idle_pe
        self.idle_start = idle_start
        self.idle_end = idle_end
        self._partner_send = None

    @property
    def partner_send(self):
        """Per event: the send event of the message it receives, or -1.

        Like ``message_by_recv`` composed with ``Message.send_event``, a
        later message overwrites an earlier one, and a matched receive
        whose message lost its send endpoint stays -1.  Derived on first
        use, so reading the other columns never trips over an
        out-of-range receive id (defect detection reports those).
        """
        if self._partner_send is None:
            partner = np.full(self.n_events, -1, np.int64)
            has_recv = self.msg_recv >= 0
            partner[self.msg_recv[has_recv]] = self.msg_send[has_recv]
            self._partner_send = partner
        return self._partner_send

    @property
    def n_events(self) -> int:
        return len(self.ev_kind)

    @property
    def n_executions(self) -> int:
        return len(self.ex_chare)

    @property
    def n_messages(self) -> int:
        return len(self.msg_send)

    @property
    def n_idles(self) -> int:
        return len(self.idle_pe)

    def take(self, ex=None, ev=None, msg=None, idle=None) -> "TraceColumns":
        """New columns with each named family (executions, events,
        messages, idles) reduced to the rows that a mask, an index array
        or a slice selects; the other families' arrays are shared."""
        rows = {"ex": ex, "ev": ev, "msg": msg, "idle": idle}
        fields = {}
        for name in _COLUMNS:
            column, selected = getattr(self, name), rows[name.split("_")[0]]
            fields[name] = column if selected is None else column[selected]
        return TraceColumns(**fields)

    @classmethod
    def of(cls, trace: Trace) -> "TraceColumns":
        """A chunk-ingested trace's own columns; for an object-backed
        trace, columns extracted from its records on the first call and
        cached on the trace (a built trace is never mutated)."""
        columns = getattr(trace, "columns", None)
        if columns is None:
            columns = trace.columns = cls.from_trace(trace)
        return columns

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceColumns":
        """Columns extracted from an eager (object-backed) trace."""
        ex = trace.executions
        ev = trace.events
        msgs = trace.messages
        idles = trace.idles
        m, n, g, k = len(ex), len(ev), len(msgs), len(idles)
        return cls(
            ex_chare=np.fromiter((x.chare for x in ex), np.int64, m),
            ex_entry=np.fromiter((x.entry for x in ex), np.int64, m),
            ex_pe=np.fromiter((x.pe for x in ex), np.int64, m),
            ex_start=np.fromiter((x.start for x in ex), np.float64, m),
            ex_end=np.fromiter((x.end for x in ex), np.float64, m),
            ex_recv=np.fromiter((x.recv_event for x in ex), np.int64, m),
            ev_kind=np.fromiter((int(e.kind) for e in ev), np.int8, n),
            ev_chare=np.fromiter((e.chare for e in ev), np.int64, n),
            ev_pe=np.fromiter((e.pe for e in ev), np.int64, n),
            ev_time=np.fromiter((e.time for e in ev), np.float64, n),
            ev_exec=np.fromiter((e.execution for e in ev), np.int64, n),
            msg_send=np.fromiter((x.send_event for x in msgs), np.int64, g),
            msg_recv=np.fromiter((x.recv_event for x in msgs), np.int64, g),
            idle_pe=np.fromiter((x.pe for x in idles), np.int64, k),
            idle_start=np.fromiter((x.start for x in idles), np.float64, k),
            idle_end=np.fromiter((x.end for x in idles), np.float64, k),
        )


#: The column attributes, without the lazily derived ``_partner_send``.
_COLUMNS = tuple(n for n in TraceColumns.__slots__ if not n.startswith("_"))


class LazyRecordList(Sequence):
    """Sequence view over columns that builds records on demand.

    Supports everything algorithm code does with the eager record lists
    — ``len``, indexing (negative and slice included), iteration — while
    holding no per-record objects.  Records are **rebuilt on every
    access**; they compare equal to their eager twins but are not
    identical across accesses, which is safe because nothing in the tree
    mutates records after a trace is built (repair and the other
    derivations make new columns; see :func:`derived_trace`).
    """

    __slots__ = ("columns", "_n")

    def __init__(self, columns: TraceColumns):
        self.columns = columns
        self._n = self._length(columns)

    @staticmethod
    def _length(columns: TraceColumns) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _make(self, i: int):  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._make(j) for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("list index out of range")
        return self._make(i)

    def __iter__(self):
        make = self._make
        for i in range(self._n):
            yield make(i)

    def __eq__(self, other):
        # Element-wise, so lazy lists compare equal to the eager lists
        # they mirror; list == LazyRecordList also lands here via
        # reflected dispatch (list.__eq__ returns NotImplemented).
        if isinstance(other, (list, tuple, Sequence)) and not isinstance(
                other, (str, bytes)):
            return self._n == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # mutable-sequence semantics, like list

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self._n})"


class ExecutionList(LazyRecordList):
    """Lazy ``trace.executions``."""

    __slots__ = ()

    @staticmethod
    def _length(columns: TraceColumns) -> int:
        return columns.n_executions

    def _make(self, i: int) -> Execution:
        c = self.columns
        return Execution(i, int(c.ex_chare[i]), int(c.ex_entry[i]),
                         int(c.ex_pe[i]), float(c.ex_start[i]),
                         float(c.ex_end[i]), int(c.ex_recv[i]))


class EventList(LazyRecordList):
    """Lazy ``trace.events``."""

    __slots__ = ()

    @staticmethod
    def _length(columns: TraceColumns) -> int:
        return columns.n_events

    def _make(self, i: int) -> DepEvent:
        c = self.columns
        return DepEvent(i, EventKind(int(c.ev_kind[i])), int(c.ev_chare[i]),
                        int(c.ev_pe[i]), float(c.ev_time[i]),
                        int(c.ev_exec[i]))


class MessageList(LazyRecordList):
    """Lazy ``trace.messages``."""

    __slots__ = ()

    @staticmethod
    def _length(columns: TraceColumns) -> int:
        return columns.n_messages

    def _make(self, i: int) -> Message:
        c = self.columns
        return Message(i, int(c.msg_send[i]), int(c.msg_recv[i]))


class IdleList(LazyRecordList):
    """Lazy ``trace.idles``."""

    __slots__ = ()

    @staticmethod
    def _length(columns: TraceColumns) -> int:
        return columns.n_idles

    def _make(self, i: int) -> IdleInterval:
        c = self.columns
        return IdleInterval(int(c.idle_pe[i]), float(c.idle_start[i]),
                            float(c.idle_end[i]))


# ----------------------------------------------------------------------
# Vectorized index kernels — each replays Trace._build_indexes exactly.
# ----------------------------------------------------------------------
def _wrap_refs(refs, n: int, eids):
    """Python-list index semantics for a column of list references.

    ``refs`` are raw reference values (``NO_ID`` already filtered out);
    negative values index from the end, like the eager loop's
    ``lst[ref]``; out-of-range values raise the same ``IndexError``.
    """
    wrapped = np.where(refs < 0, refs + n, refs)
    if len(wrapped) and bool(((wrapped < 0) | (wrapped >= n)).any()):
        raise IndexError("list index out of range")
    return wrapped, eids


def _events_by_execution(cols: TraceColumns) -> List[List[int]]:
    n_exec = cols.n_executions
    out: List[List[int]] = [[] for _ in range(n_exec)]
    refs = cols.ev_exec
    valid = refs != NO_ID
    if not bool(valid.any()):
        return out
    eids = np.flatnonzero(valid)
    wrapped, eids = _wrap_refs(refs[valid], n_exec, eids)
    # Per-execution lists sorted by (time, event id), exactly like the
    # eager append-then-sort.
    order = np.lexsort((eids, cols.ev_time[eids], wrapped))
    sx = wrapped[order]
    se = eids[order].tolist()
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], len(sx)]
    for s, e in zip(starts.tolist(), ends.tolist()):
        out[int(sx[s])] = se[s:e]
    return out


def _messages_by_send(cols: TraceColumns) -> List[List[int]]:
    n_events = cols.n_events
    out: List[List[int]] = [[] for _ in range(n_events)]
    sends = cols.msg_send
    valid = sends != NO_ID
    if not bool(valid.any()):
        return out
    mids = np.flatnonzero(valid)
    wrapped, mids = _wrap_refs(sends[valid], n_events, mids)
    # Stable group-by preserves message-id append order within a send.
    order = np.argsort(wrapped, kind="stable")
    sx = wrapped[order]
    sm = mids[order].tolist()
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], len(sx)]
    for s, e in zip(starts.tolist(), ends.tolist()):
        out[int(sx[s])] = sm[s:e]
    return out


def _message_by_recv(cols: TraceColumns) -> List[int]:
    n_events = cols.n_events
    arr = np.full(n_events, NO_ID, np.int64)
    recvs = cols.msg_recv
    valid = recvs != NO_ID
    if bool(valid.any()):
        mids = np.flatnonzero(valid)
        wrapped, mids = _wrap_refs(recvs[valid], n_events, mids)
        # Fancy assignment in message-id order: a later message
        # overwrites an earlier one, like the eager loop.
        arr[wrapped] = mids
    return arr.tolist()


def _grouped(order, keys_sorted, values_sorted):
    """(key, [values]) pairs from pre-sorted key/value arrays."""
    starts = np.flatnonzero(np.r_[True, keys_sorted[1:] != keys_sorted[:-1]])
    ends = np.r_[starts[1:], len(keys_sorted)]
    vals = values_sorted.tolist()
    for s, e in zip(starts.tolist(), ends.tolist()):
        yield int(keys_sorted[s]), vals[s:e]


def _executions_by_chare(cols: TraceColumns, n_chares: int) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {cid: [] for cid in range(n_chares)}
    ch = cols.ex_chare
    m = len(ch)
    if m:
        bad = (ch < 0) | (ch >= n_chares)
        if bool(bad.any()):
            # The eager loop raises KeyError on the first execution whose
            # chare id is not a registry key.
            raise KeyError(int(ch[int(np.flatnonzero(bad)[0])]))
        xids = np.arange(m, dtype=np.int64)
        order = np.lexsort((xids, cols.ex_start, ch))
        for cid, vals in _grouped(order, ch[order], xids[order]):
            out[cid] = vals
    return out


def _by_pe(pe_col, sort_cols, values, num_pes: int) -> Dict[int, list]:
    """Grouped-by-PE dict with the eager key order: ``range(num_pes)``
    first, then out-of-range PEs in first-encounter (record id) order."""
    out: Dict[int, list] = {pe: [] for pe in range(num_pes)}
    m = len(pe_col)
    if not m:
        return out
    extra = (pe_col < 0) | (pe_col >= num_pes)
    if bool(extra.any()):
        for pe in pe_col[extra].tolist():
            out.setdefault(pe, [])
    order = np.lexsort(sort_cols + (pe_col,))
    for pe, vals in _grouped(order, pe_col[order], values[order]):
        out[pe] = vals
    return out


class ColumnarTrace(Trace):
    """A :class:`Trace` backed by :class:`TraceColumns`.

    The chare/entry/array registries are eager (they are small and the
    heuristics read their names); the bulk record lists are lazy views
    and every derived index is computed vectorized on first access.
    """

    #: Indexes served lazily by ``__getattr__``.
    _LAZY_ATTRS = frozenset({
        "events_by_execution", "messages_by_send", "message_by_recv",
        "executions_by_chare", "executions_by_pe", "idles_by_pe",
    })

    def __init__(
        self,
        columns: TraceColumns,
        chares: List[Chare],
        entries: List[EntryMethod],
        arrays: List[ChareArray],
        num_pes: int,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.columns = columns
        super().__init__(
            chares=chares, entries=entries, arrays=arrays,
            executions=ExecutionList(columns), events=EventList(columns),
            messages=MessageList(columns), idles=IdleList(columns),
            num_pes=num_pes, metadata=metadata,
        )

    # Indexes are built lazily (see __getattr__); the columnar pipeline
    # only ever touches executions_by_chare, so eager construction would
    # waste both time and the memory of the per-event id lists.
    def _build_indexes(self) -> None:
        pass

    def __getattr__(self, name: str):
        if name not in ColumnarTrace._LAZY_ATTRS:
            raise AttributeError(name)
        cols = self.__dict__.get("columns")
        if cols is None:  # mid-unpickle: nothing to compute from yet
            raise AttributeError(name)
        value = self._compute_lazy(name, cols)
        setattr(self, name, value)
        return value

    def _compute_lazy(self, name: str, cols: TraceColumns):
        if name == "events_by_execution":
            return _events_by_execution(cols)
        if name == "messages_by_send":
            return _messages_by_send(cols)
        if name == "message_by_recv":
            return _message_by_recv(cols)
        if name == "executions_by_chare":
            return _executions_by_chare(cols, len(self.chares))
        if name == "executions_by_pe":
            xids = np.arange(cols.n_executions, dtype=np.int64)
            return _by_pe(cols.ex_pe, (xids, cols.ex_start), xids,
                          self.num_pes)
        # idles_by_pe: IdleInterval records sorted stably by start.
        iids = np.arange(cols.n_idles, dtype=np.int64)
        by_pe = _by_pe(cols.idle_pe, (iids, cols.idle_start), iids,
                       self.num_pes)
        idles = self.idles
        return {pe: [idles[i] for i in ids] for pe, ids in by_pe.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarTrace(chares={len(self.chares)}, "
            f"executions={self.columns.n_executions}, "
            f"events={self.columns.n_events}, "
            f"messages={self.columns.n_messages}, pes={self.num_pes})"
        )


# ----------------------------------------------------------------------
# Derivation: a trace from selected rows and remapped references.
# ----------------------------------------------------------------------
def renumber(keep) -> np.ndarray:
    """Per row: its dense id among the rows ``keep`` selects, else NO_ID."""
    return np.where(keep, np.cumsum(keep) - 1, NO_ID)


def follow(refs, new_ids) -> np.ndarray:
    """A reference column mapped through :func:`renumber`'s ids.

    A negative or out-of-range reference, or one to a dropped row, maps
    to NO_ID (a negative id never wraps).
    """
    out = np.full(len(refs), NO_ID, np.int64)
    ok = (refs >= 0) & (refs < len(new_ids))
    out[ok] = new_ids[refs[ok]]
    return out


def derived_trace(trace: Trace, columns: TraceColumns) -> ColumnarTrace:
    """A :class:`ColumnarTrace` over ``columns`` with ``trace``'s
    registries, PE count and (copied) metadata.  Only idles with
    ``end > start`` are kept, as
    :meth:`~repro.trace.model.TraceBuilder.add_idle` keeps."""
    columns = columns.take(idle=columns.idle_end > columns.idle_start)
    return ColumnarTrace(columns, list(trace.chares), list(trace.entries),
                         list(trace.arrays), trace.num_pes, trace.metadata)
