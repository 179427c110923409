"""Structural consistency checks for traces, and the shared error types
used by every verification layer in the system.

Simulators call :func:`validate_trace` on their output in tests; the
analysis pipeline may call it defensively on externally supplied traces.
The checks encode the physical realizability constraints the algorithms
rely on: well-formed ids, events inside their blocks' time spans, receives
not preceding their sends, and non-overlapping execution on each PE.

The structural-invariant layer (:mod:`repro.verify`) reports through the
same :class:`Violation` records and :class:`VerificationError` base so a
trace-level problem and a structure-level problem look identical to
tooling (``repro verify``, CI reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.trace.columns import TraceColumns
from repro.trace.events import NO_ID, EventKind
from repro.trace.model import Trace

#: How many violations an error message previews before eliding.
PREVIEW_LIMIT = 20

_SEND = int(EventKind.SEND)
_RECV = int(EventKind.RECV)


@dataclass(frozen=True)
class Violation:
    """One violated invariant, machine-readable.

    Parameters
    ----------
    invariant:
        Stable kebab-case name of the invariant ("recv-after-send",
        "dag-acyclic", ...).  Tests and reports key on this.
    message:
        Human-readable description naming the offending records.
    subjects:
        Ids of the offending records (event/phase/execution ids —
        whatever the invariant is about), for programmatic consumers.
    """

    invariant: str
    message: str
    subjects: Tuple[int, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form for JSON reports."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "subjects": list(self.subjects),
        }


class VerificationError(AssertionError):
    """Base of all verification failures; carries structured violations."""

    def __init__(self, header: str, violations: Sequence[Violation]):
        self.violations: List[Violation] = list(violations)
        preview = "\n  ".join(v.message for v in self.violations[:PREVIEW_LIMIT])
        more = (
            ""
            if len(self.violations) <= PREVIEW_LIMIT
            else f"\n  ... and {len(self.violations) - PREVIEW_LIMIT} more"
        )
        super().__init__(f"{header}:\n  {preview}{more}")

    def invariants(self) -> List[str]:
        """Distinct violated invariant names, in first-seen order."""
        seen: List[str] = []
        for v in self.violations:
            if v.invariant not in seen:
                seen.append(v.invariant)
        return seen


class TraceValidationError(VerificationError):
    """Raised when a trace violates a structural invariant."""


def collect_trace_problems(
    trace: Trace, check_pe_overlap: bool = True
) -> List[Violation]:
    """All violated trace invariants, as structured records.

    :func:`validate_trace` wraps this; callers that want a report rather
    than an exception (``repro verify --json``) use it directly.

    ``trace`` may also be a :class:`~repro.trace.source.TraceSource`:
    the source is resolved here.  The checks run as one pass of boolean
    masks over the trace's :class:`~repro.trace.columns.TraceColumns`
    (extracted from an object-backed trace on first use and cached on
    it), so a chunk-ingested trace is checked without building a
    record; only a flagged record is read back, to word its message.

    Violations come in section order — executions, events, messages,
    idles, then PE overlaps — and within a section by record id, then
    by check.  A bad id ends its record's checks that would follow it.
    """
    if not isinstance(trace, Trace) and callable(getattr(trace, "trace", None)):
        trace = trace.trace()
    problems: List[Violation] = []

    def problem(invariant: str, message: str, *subjects: int) -> None:
        problems.append(Violation(invariant, message, tuple(subjects)))

    cols = TraceColumns.of(trace)
    n_chares = len(trace.chares)
    n_entries = len(trace.entries)
    n_exec = cols.n_executions
    n_events = cols.n_events
    executions = trace.executions
    events = trace.events

    def outside(ids, n):
        return (ids < 0) | (ids >= n)

    # Executions: ids, span, then the triggering RECV (a bad recv id
    # skips its kind and owner checks).
    trigger = cols.ex_recv
    bad_trigger = (trigger != NO_ID) & outside(trigger, n_events)
    rows = np.flatnonzero((trigger != NO_ID) & ~bad_trigger)
    not_recv = _scatter(n_exec, rows, cols.ev_kind[trigger[rows]] != _RECV)
    foreign = _scatter(n_exec, rows, cols.ev_exec[trigger[rows]] != rows)
    for row, (chare, entry, span, bad, kind, owner) in _flagged(
            outside(cols.ex_chare, n_chares), outside(cols.ex_entry, n_entries),
            cols.ex_end < cols.ex_start, bad_trigger, not_recv, foreign):
        ex = executions[row]
        if chare:
            problem("exec-ids", f"exec {ex.id}: bad chare id {ex.chare}", ex.id)
        if entry:
            problem("exec-ids", f"exec {ex.id}: bad entry id {ex.entry}", ex.id)
        if span:
            problem(
                "exec-span",
                f"exec {ex.id}: end {ex.end} < start {ex.start}",
                ex.id,
            )
        if bad:
            problem(
                "exec-recv",
                f"exec {ex.id}: bad recv_event id {ex.recv_event}",
                ex.id,
            )
        if kind:
            problem(
                "exec-recv",
                f"exec {ex.id}: recv_event {ex.recv_event} is not a RECV",
                ex.id,
                ex.recv_event,
            )
        if owner:
            problem(
                "exec-recv",
                f"exec {ex.id}: recv_event {ex.recv_event} belongs to "
                f"exec {events[ex.recv_event].execution}",
                ex.id,
                ex.recv_event,
            )

    # Events: ids, then chare and time against the owning execution.
    bad_chare = outside(cols.ev_chare, n_chares)
    owned = ~bad_chare & (cols.ev_exec != NO_ID)
    bad_owner = owned & outside(cols.ev_exec, n_exec)
    rows = np.flatnonzero(owned & ~bad_owner)
    owner_of = cols.ev_exec[rows]
    time = cols.ev_time
    wrong_chare = _scatter(n_events, rows,
                           cols.ev_chare[rows] != cols.ex_chare[owner_of])
    # Events must fall within their serial block's time span (with
    # equality allowed at the boundaries).
    off_span = _scatter(n_events, rows, ~(
        (cols.ex_start[owner_of] - 1e-9 <= time[rows])
        & (time[rows] <= cols.ex_end[owner_of] + 1e-9)))
    for row, (chare, owner, mismatch, span) in _flagged(
            bad_chare, bad_owner, wrong_chare, off_span):
        ev = events[row]
        if chare:
            problem("event-ids", f"event {ev.id}: bad chare id {ev.chare}", ev.id)
        if owner:
            problem("event-ids",
                    f"event {ev.id}: bad execution id {ev.execution}", ev.id)
        if mismatch or span:
            ex = executions[ev.execution]
            if mismatch:
                problem(
                    "event-chare",
                    f"event {ev.id}: chare {ev.chare} != owning exec chare "
                    f"{ex.chare}",
                    ev.id,
                )
            if span:
                problem(
                    "event-span",
                    f"event {ev.id}: time {ev.time} outside exec {ex.id} span "
                    f"[{ex.start}, {ex.end}]",
                    ev.id,
                    ex.id,
                )

    # Messages: endpoint ids (a bad one ends the message's checks), the
    # endpoints of complete messages, then receive reuse: messages past
    # the id checks claim their recv event in id order.
    send, recv = cols.msg_send, cols.msg_recv
    bad_send = (send != NO_ID) & outside(send, n_events)
    bad_recv = ~bad_send & (recv != NO_ID) & outside(recv, n_events)
    passed = ~(bad_send | bad_recv)
    rows = np.flatnonzero(passed & (send != NO_ID) & (recv != NO_ID))
    n_msgs = len(send)
    send_kind = _scatter(n_msgs, rows, cols.ev_kind[send[rows]] != _SEND)
    recv_kind = _scatter(n_msgs, rows, cols.ev_kind[recv[rows]] != _RECV)
    early = _scatter(n_msgs, rows,
                     time[recv[rows]] < time[send[rows]] - 1e-9)
    claims = np.flatnonzero(passed & (recv != NO_ID))
    reused = _scatter(n_msgs, claims, True)
    reused[claims[np.unique(recv[claims], return_index=True)[1]]] = False
    messages = trace.messages
    for row, (bad_s, bad_r, s_kind, r_kind, late, dup) in _flagged(
            bad_send, bad_recv, send_kind, recv_kind, early, reused):
        msg = messages[row]
        if bad_s:
            problem("message-ids", f"msg {msg.id}: bad send event {msg.send_event}",
                    msg.id)
        if bad_r:
            problem("message-ids", f"msg {msg.id}: bad recv event {msg.recv_event}",
                    msg.id)
        if s_kind:
            problem(
                "message-endpoints",
                f"msg {msg.id}: send endpoint is not a SEND event",
                msg.id,
                msg.send_event,
            )
        if r_kind:
            problem(
                "message-endpoints",
                f"msg {msg.id}: recv endpoint is not a RECV event",
                msg.id,
                msg.recv_event,
            )
        if late:
            problem(
                "recv-after-send",
                f"msg {msg.id}: recv time {events[msg.recv_event].time} "
                f"precedes send time {events[msg.send_event].time}",
                msg.id,
            )
        if dup:
            problem(
                "recv-unique",
                f"msg {msg.id}: recv event {msg.recv_event} reused",
                msg.id,
                msg.recv_event,
            )

    idles = trace.idles
    for row, (inverted, bad_pe) in _flagged(
            cols.idle_end < cols.idle_start,
            outside(cols.idle_pe, max(trace.num_pes, 1))):
        idle = idles[row]
        if inverted:
            problem("idle-span", f"idle on pe {idle.pe}: end < start", idle.pe)
        if bad_pe:
            problem("idle-span", f"idle: bad pe {idle.pe}", idle.pe)

    if check_pe_overlap:
        for pe, pe_xids in trace.executions_by_pe.items():
            if len(pe_xids) < 2:
                continue
            ids = np.asarray(pe_xids, np.int64)
            end = cols.ex_end[ids]
            # The latest end among the PE's earlier executions; a NaN end
            # never becomes it (np.fmax), like ``end > prev_end``.
            prev_end = np.fmax.accumulate(np.r_[-np.inf, end[:-1]])
            hits = np.flatnonzero(cols.ex_start[ids] < prev_end - 1e-9)
            if not len(hits):
                continue
            # The execution holding it is the first to reach it.
            raised = np.where(end > prev_end, np.arange(len(ids)), -1)
            holder = ids[np.maximum.accumulate(raised)].tolist()
            for k in hits.tolist():
                xid, prev_id = int(ids[k]), holder[k - 1]
                problem(
                    "pe-overlap",
                    f"pe {pe}: exec {xid} (start {executions[xid].start}) "
                    f"overlaps exec {prev_id} "
                    f"(end {executions[prev_id].end})",
                    xid,
                )

    return problems


def _scatter(n: int, rows, values):
    """A length-``n`` mask holding ``values`` at ``rows``, False elsewhere."""
    mask = np.zeros(n, np.bool_)
    mask[rows] = values
    return mask


def _flagged(*masks):
    """``(row, flags)`` for every row any mask flags, in row order;
    ``flags`` holds each mask's value at the row."""
    any_flag = np.logical_or.reduce(masks)
    rows = np.flatnonzero(any_flag)
    if not len(rows):
        return []
    flags = np.stack([mask[rows] for mask in masks], axis=1)
    return zip(rows.tolist(), flags.tolist())


def validate_trace(trace: Trace, check_pe_overlap: bool = True) -> None:
    """Raise :class:`TraceValidationError` listing every violated invariant.

    Parameters
    ----------
    trace:
        The trace to check, or a :class:`~repro.trace.source.TraceSource`
        to resolve and check.  Empty and single-event traces are valid.
    check_pe_overlap:
        When True (default), assert that no two executions overlap on the
        same PE.  Synthetic unit-test traces sometimes skip this.
    """
    problems = collect_trace_problems(trace, check_pe_overlap=check_pe_overlap)
    if problems:
        raise TraceValidationError("trace validation failed", problems)
