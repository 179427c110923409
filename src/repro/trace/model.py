"""The :class:`Trace` container and its mutable :class:`TraceBuilder`.

A :class:`Trace` is an immutable-by-convention bundle of the record types in
:mod:`repro.trace.events` plus the derived indexes the analysis algorithms
need (events per execution, message endpoints per event, executions per
chare/PE in time order).  Indexes are built once, at :meth:`TraceBuilder.build`
time, so algorithm code never sorts or scans the raw lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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


class Trace:
    """A complete event trace with derived lookup indexes.

    Do not mutate a built trace; create a new one through
    :class:`TraceBuilder` instead.  All ``*s`` attributes are lists indexed
    by the dense integer id of the record they hold.
    """

    def __init__(
        self,
        chares: List[Chare],
        entries: List[EntryMethod],
        arrays: List[ChareArray],
        executions: List[Execution],
        events: List[DepEvent],
        messages: List[Message],
        idles: List[IdleInterval],
        num_pes: int,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        self.chares = chares
        self.entries = entries
        self.arrays = arrays
        self.executions = executions
        self.events = events
        self.messages = messages
        self.idles = idles
        self.num_pes = num_pes
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._build_indexes()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def _build_indexes(self) -> None:
        n_exec = len(self.executions)
        self.events_by_execution: List[List[int]] = [[] for _ in range(n_exec)]
        for ev in self.events:
            if ev.execution != NO_ID:
                self.events_by_execution[ev.execution].append(ev.id)
        for lst in self.events_by_execution:
            lst.sort(key=lambda eid: (self.events[eid].time, eid))

        n_events = len(self.events)
        # A RECV event terminates exactly one message; a SEND event may
        # start several (broadcast fan-out).
        self.messages_by_send: List[List[int]] = [[] for _ in range(n_events)]
        self.message_by_recv: List[int] = [NO_ID] * n_events
        for msg in self.messages:
            if msg.send_event != NO_ID:
                self.messages_by_send[msg.send_event].append(msg.id)
            if msg.recv_event != NO_ID:
                self.message_by_recv[msg.recv_event] = msg.id

        self.executions_by_chare: Dict[int, List[int]] = {c.id: [] for c in self.chares}
        self.executions_by_pe: Dict[int, List[int]] = {pe: [] for pe in range(self.num_pes)}
        for ex in self.executions:
            self.executions_by_chare[ex.chare].append(ex.id)
            self.executions_by_pe.setdefault(ex.pe, []).append(ex.id)
        for lst in self.executions_by_chare.values():
            lst.sort(key=lambda xid: (self.executions[xid].start, xid))
        for lst in self.executions_by_pe.values():
            lst.sort(key=lambda xid: (self.executions[xid].start, xid))

        self.idles_by_pe: Dict[int, List[IdleInterval]] = {pe: [] for pe in range(self.num_pes)}
        for idle in self.idles:
            self.idles_by_pe.setdefault(idle.pe, []).append(idle)
        for ilst in self.idles_by_pe.values():
            ilst.sort(key=lambda iv: iv.start)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    def event(self, event_id: int) -> DepEvent:
        """Return the dependency event with the given id."""
        return self.events[event_id]

    def execution(self, exec_id: int) -> Execution:
        """Return the execution (serial block) with the given id."""
        return self.executions[exec_id]

    def chare(self, chare_id: int) -> Chare:
        """Return the chare with the given id."""
        return self.chares[chare_id]

    def entry(self, entry_id: int) -> EntryMethod:
        """Return the entry method with the given id."""
        return self.entries[entry_id]

    def message(self, message_id: int) -> Message:
        """Return the message with the given id."""
        return self.messages[message_id]

    def events_of(self, exec_id: int) -> List[int]:
        """Event ids inside an execution, in physical-time order."""
        return self.events_by_execution[exec_id]

    def is_runtime_chare(self, chare_id: int) -> bool:
        """True when the chare belongs to the runtime, not the application."""
        return self.chares[chare_id].is_runtime

    def partner_chares(self, event_id: int) -> List[int]:
        """Chare ids on the far side of every message touching ``event_id``.

        Unmatched endpoints (untraced partners) contribute nothing.
        """
        ev = self.events[event_id]
        partners: List[int] = []
        if ev.kind == EventKind.SEND:
            for mid in self.messages_by_send[event_id]:
                recv = self.messages[mid].recv_event
                if recv != NO_ID:
                    partners.append(self.events[recv].chare)
        else:
            mid = self.message_by_recv[event_id]
            if mid != NO_ID:
                send = self.messages[mid].send_event
                if send != NO_ID:
                    partners.append(self.events[send].chare)
        return partners

    def event_is_runtime_related(self, event_id: int) -> bool:
        """True when the event touches the runtime on either side.

        Used to split serial blocks at application/runtime boundaries when
        forming initial partitions (Section 3.1.1, Figure 2).
        """
        ev = self.events[event_id]
        if self.is_runtime_chare(ev.chare):
            return True
        return any(self.is_runtime_chare(c) for c in self.partner_chares(event_id))

    def runtime_related_flags(self) -> List[bool]:
        """Per-event :meth:`event_is_runtime_related`, computed in bulk.

        One pass over events plus one over messages — O(events+messages)
        instead of per-event partner scans; the initial-partition stage is
        hot enough for this to matter (Section 3.3).
        """
        runtime_chare = [c.is_runtime for c in self.chares]
        flags = [runtime_chare[ev.chare] for ev in self.events]
        for msg in self.messages:
            if not msg.is_complete():
                continue
            send, recv = msg.send_event, msg.recv_event
            if runtime_chare[self.events[send].chare]:
                flags[recv] = True
            if runtime_chare[self.events[recv].chare]:
                flags[send] = True
        return flags

    def application_chares(self) -> List[int]:
        """Ids of all application (non-runtime) chares."""
        return [c.id for c in self.chares if not c.is_runtime]

    def runtime_chares(self) -> List[int]:
        """Ids of all runtime chares."""
        return [c.id for c in self.chares if c.is_runtime]

    def end_time(self) -> float:
        """Physical end time of the trace: the latest execution end.

        A NaN end never wins (``np.fmax``); the result is NaN only when
        every end is NaN, and 0.0 for a trace without executions.
        """
        from repro.trace.columns import TraceColumns  # imports this module

        ends = TraceColumns.of(self).ex_end
        return float(np.fmax.reduce(ends)) if len(ends) else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(chares={len(self.chares)}, executions={len(self.executions)}, "
            f"events={len(self.events)}, messages={len(self.messages)}, "
            f"pes={self.num_pes})"
        )


class TraceBuilder:
    """Incrementally assembles a :class:`Trace`.

    Simulator tracing modules and the trace reader both funnel through this
    builder so that id assignment and index construction live in one place.
    """

    def __init__(self, num_pes: int = 1, metadata: Optional[Dict[str, object]] = None):
        self.num_pes = num_pes
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._chares: List[Chare] = []
        self._entries: List[EntryMethod] = []
        self._arrays: List[ChareArray] = []
        self._executions: List[Execution] = []
        self._events: List[DepEvent] = []
        self._messages: List[Message] = []
        self._idles: List[IdleInterval] = []

    # -- registries -----------------------------------------------------
    def add_entry(
        self,
        name: str,
        chare_type: str = "",
        is_sdag_serial: bool = False,
        sdag_ordinal: int = -1,
    ) -> int:
        """Register an entry method; returns its id."""
        eid = len(self._entries)
        self._entries.append(
            EntryMethod(eid, name, chare_type, is_sdag_serial, sdag_ordinal)
        )
        return eid

    def add_array(self, name: str, shape: Tuple[int, ...] = ()) -> int:
        """Register a chare array; returns its id."""
        aid = len(self._arrays)
        self._arrays.append(ChareArray(aid, name, shape))
        return aid

    def add_chare(
        self,
        name: str,
        array_id: int = NO_ID,
        index: Tuple[int, ...] = (),
        is_runtime: bool = False,
        home_pe: int = 0,
    ) -> int:
        """Register a chare; returns its id."""
        cid = len(self._chares)
        self._chares.append(Chare(cid, name, array_id, tuple(index), is_runtime, home_pe))
        return cid

    # -- records ---------------------------------------------------------
    def add_execution(
        self,
        chare: int,
        entry: int,
        pe: int,
        start: float,
        end: float,
        recv_event: int = NO_ID,
    ) -> int:
        """Record one serial block; returns its id."""
        xid = len(self._executions)
        self._executions.append(Execution(xid, chare, entry, pe, start, end, recv_event))
        return xid

    def add_event(
        self,
        kind: EventKind,
        chare: int,
        pe: int,
        time: float,
        execution: int = NO_ID,
    ) -> int:
        """Record one dependency event; returns its id."""
        evid = len(self._events)
        self._events.append(DepEvent(evid, kind, chare, pe, time, execution))
        return evid

    def add_message(self, send_event: int = NO_ID, recv_event: int = NO_ID) -> int:
        """Record a matched (or half-matched) message; returns its id."""
        mid = len(self._messages)
        self._messages.append(Message(mid, send_event, recv_event))
        return mid

    def set_recv_event(self, message_id: int, recv_event: int) -> None:
        """Attach the receive endpoint to an already-recorded message."""
        self._messages[message_id].recv_event = recv_event

    def set_execution_recv(self, exec_id: int, recv_event: int) -> None:
        """Attach the triggering RECV event to an execution."""
        self._executions[exec_id].recv_event = recv_event

    def set_execution_end(self, exec_id: int, end: float) -> None:
        """Finalize the end time of an execution."""
        self._executions[exec_id].end = end

    def set_event_execution(self, event_id: int, exec_id: int) -> None:
        """Attach an event to its owning execution after the fact.

        Needed by collective tracing, where a rank's SEND event is recorded
        when it enters the collective but the region's span is only known
        once every participant has arrived.
        """
        self._events[event_id].execution = exec_id

    def add_idle(self, pe: int, start: float, end: float) -> None:
        """Record an idle interval on a processor (zero-length spans dropped)."""
        if end > start:
            self._idles.append(IdleInterval(pe, start, end))

    # -- finalization ----------------------------------------------------
    def build(self) -> Trace:
        """Freeze the builder into a fully indexed :class:`Trace`."""
        return Trace(
            chares=self._chares,
            entries=self._entries,
            arrays=self._arrays,
            executions=self._executions,
            events=self._events,
            messages=self._messages,
            idles=self._idles,
            num_pes=self.num_pes,
            metadata=self.metadata,
        )
