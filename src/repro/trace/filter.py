"""Trace subsetting: time windows and chare selections.

Large traces are analyzed piecewise (the paper's complexity section
suggests out-of-core operation as future work); these helpers carve a
consistent sub-trace:

* executions outside the selection are dropped along with their events;
* messages keep their receive side when it survives — a send that was cut
  away leaves the receive *untraced*, exactly the missing-dependency shape
  the Section 3.1.4 inference handles, so sliced traces remain analyzable;
* idle intervals are clipped to time windows.

Each subset is derived from the trace's columns
(:func:`repro.trace.columns.derived_trace`) and shares its registries.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.trace.columns import TraceColumns, derived_trace, follow, renumber
from repro.trace.events import NO_ID
from repro.trace.model import Trace


def slice_time(trace: Trace, start: float, end: float) -> Trace:
    """Keep executions that overlap the window ``[start, end]``."""
    if end < start:
        raise ValueError("end must be >= start")
    columns = TraceColumns.of(trace)
    return _subset(
        trace,
        (columns.ex_end >= start) & (columns.ex_start <= end),
        idle_clip=(start, end),
    )


def filter_chares(trace: Trace, chares: Iterable[int]) -> Trace:
    """Keep executions belonging to the given chare ids."""
    selected = set(chares)
    for c in selected:
        if not (0 <= c < len(trace.chares)):
            raise ValueError(f"unknown chare id {c}")
    return _subset(trace, np.isin(TraceColumns.of(trace).ex_chare,
                                  sorted(selected)))


def filter_application(trace: Trace) -> Trace:
    """Drop runtime chares' executions (the developers'-eye sub-trace)."""
    runtime = np.array([c.is_runtime for c in trace.chares], bool)
    return _subset(trace, ~runtime[TraceColumns.of(trace).ex_chare])


def _subset(trace: Trace, keep_exec, idle_clip=None) -> Trace:
    """Derive the executions ``keep_exec`` selects, their events, and the
    messages whose receive survives.  Registries are shared wholesale
    (ids stay stable for chares/entries; dropping unused registry rows
    would complicate cross-references for no memory win at these
    scales)."""
    columns = TraceColumns.of(trace)
    owner = follow(columns.ev_exec, renumber(keep_exec))
    keep_event = owner != NO_ID
    event_ids = renumber(keep_event)
    recv = follow(columns.msg_recv, event_ids)
    keep_message = recv != NO_ID  # a message is anchored by its receive

    out = columns.take(ex=keep_exec, ev=keep_event, msg=keep_message)
    out.ex_recv = follow(columns.ex_recv, event_ids)[keep_exec]
    out.ev_exec = owner[keep_event]
    out.msg_send = follow(columns.msg_send, event_ids)[keep_message]
    out.msg_recv = recv[keep_message]
    if idle_clip is not None:
        lo, hi = idle_clip
        # Python's max/min: a bound replaces a time it beats strictly.
        out.idle_start = np.where(lo > out.idle_start, lo, out.idle_start)
        out.idle_end = np.where(hi < out.idle_end, hi, out.idle_end)
    return derived_trace(trace, out)
