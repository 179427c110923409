"""Section 3.2.1: idealized-replay reordering of operations within a phase.

Physical delivery order is scrambled by computation imbalance, network
travel time, and runtime queuing.  Reordering replays each phase forward
under an idealized clock *w* per chare:

* the initial sends of a phase get ``w = 0`` and subsequent sends in the
  same serial block count upward;
* a receive gets ``w = w_send + 1``;
* sends after a receive count up from the receive's value.

Serial blocks of each chare are then sorted by the ``w`` of their initial
event, ties broken by the chare id of the invoking block's chare, then
recursively by the invoking blocks themselves (Figure 7), with physical
time as the final fallback.  Events inside a block keep their order.

The message-passing variant pins sends — ``w_send = 1 + max`` over the
receives that physically preceded it — and lets receives reorder around
them (Figure 9): a stable sort by ``w`` can pull a late receive in front
of a send but can never push a receive behind one.

These functions order one phase at a time and are the python reference.
The columnar backend orders every phase of a trace in one pass
(:mod:`repro.core.columnar`), bit-identical to them, ``chare_orders``
insertion order included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.trace.events import NO_ID, EventKind
from repro.trace.model import Trace

#: How many invoking blocks back the tie-breaking comparison may look.
MAX_KEY_DEPTH = 6


def physical_order(trace: Trace, phase_events: Sequence[int]) -> Dict[int, List[int]]:
    """Per-chare event order by recorded physical time (no reordering)."""
    out: Dict[int, List[int]] = {}
    events = trace.events
    for ev in sorted(phase_events, key=lambda e: (events[e].time, e)):
        out.setdefault(events[ev].chare, []).append(ev)
    return out


def _assign_w(trace: Trace, phase_events: Sequence[int], in_phase: set,
              block_of_event: Sequence[int]) -> Dict[int, int]:
    """Replay the phase in physical-time order, assigning the w clock.

    Every w dependency (previous event in the block, matching send of a
    receive) lies strictly earlier in physical time, so a single pass in
    time order computes all values.
    """
    events = trace.events
    w: Dict[int, int] = {}
    last_in_block: Dict[int, int] = {}  # block id -> w of latest event
    ordered = sorted(phase_events, key=lambda e: (events[e].time, e))
    for ev in ordered:
        rec = events[ev]
        block = block_of_event[ev]
        if rec.kind == EventKind.RECV:
            mid = trace.message_by_recv[ev]
            send = trace.messages[mid].send_event if mid != NO_ID else NO_ID
            if send != NO_ID and send in in_phase and send in w:
                value = w[send] + 1
            elif block in last_in_block:
                value = last_in_block[block] + 1
            else:
                value = 0
        else:
            if block in last_in_block:
                value = last_in_block[block] + 1
            else:
                value = 0
        w[ev] = value
        last_in_block[block] = value
    return w


def reordered_order_task(
    trace: Trace,
    phase_events: Sequence[int],
    block_of_event: Sequence[int],
    tie_break: str = "chare_id",
) -> Dict[int, List[int]]:
    """Per-chare order for the task (Charm++) model: sort serial blocks.

    ``tie_break`` selects the second comparison for blocks with equal w:
    ``"chare_id"`` (the paper's default) or ``"index"`` — the invoking
    chare's array index, the topology-aware ordering the paper suggests
    for domain-decomposed applications ("an ordering that takes this data
    topology into account will likely be more intuitive").
    """
    if tie_break not in ("chare_id", "index"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    events = trace.events
    in_phase = set(phase_events)
    w = _assign_w(trace, phase_events, in_phase, block_of_event)

    # Group the phase's events by serial block, preserving time order.
    block_events: Dict[int, List[int]] = {}
    for ev in sorted(phase_events, key=lambda e: (events[e].time, e)):
        block_events.setdefault(block_of_event[ev], []).append(ev)

    def trigger_send(block_id: int) -> int:
        """The in-phase send that invoked this block's first event, if any."""
        first = block_events[block_id][0]
        if events[first].kind != EventKind.RECV:
            return NO_ID
        mid = trace.message_by_recv[first]
        if mid == NO_ID:
            return NO_ID
        send = trace.messages[mid].send_event
        if send == NO_ID or send not in in_phase:
            return NO_ID
        return send

    def invoker_key(send: int) -> Tuple:
        """Tie-break component for the chare that invoked a block."""
        if send == NO_ID:
            return (-1,)
        chare = trace.chares[events[send].chare]
        if tie_break == "index" and chare.index:
            return tuple(chare.index)
        return (chare.id,)

    key_cache: Dict[Tuple[int, int], Tuple] = {}

    def block_key(block_id: int, depth: int = 0) -> Tuple:
        """Sort key: (w of initial event, invoker chare, ...recursively)."""
        cached = key_cache.get((block_id, depth))
        if cached is not None:
            return cached
        first = block_events[block_id][0]
        send = trigger_send(block_id)
        key: Tuple = (w[first],) + invoker_key(send)
        if depth < MAX_KEY_DEPTH and send != NO_ID:
            src_block = block_of_event[send]
            if src_block != block_id and src_block in block_events:
                key = key + block_key(src_block, depth + 1)
        key_cache[(block_id, depth)] = key
        return key

    out: Dict[int, List[int]] = {}
    blocks_by_chare: Dict[int, List[int]] = {}
    for block_id, evs in block_events.items():
        blocks_by_chare.setdefault(events[evs[0]].chare, []).append(block_id)
    for chare, blist in blocks_by_chare.items():
        # Physical start is the final tie-break so the sort is total.
        blist.sort(
            key=lambda b: (
                block_key(b),
                events[block_events[b][0]].time,
                b,
            )
        )
        ordered: List[int] = []
        for b in blist:
            ordered.extend(block_events[b])
        out[chare] = ordered
    return out


def reordered_order_mp(
    trace: Trace,
    phase_events: Sequence[int],
    block_of_event: Sequence[int],
) -> Dict[int, List[int]]:
    """Per-process order for the message-passing model: pinned sends.

    ``w_send = 1 + max(w_receive | receive physically precedes send)``, so
    a stable sort by ``w`` keeps every send after the receives that came
    before it, while receives are free to reorder (Figure 9).
    """
    events = trace.events
    ordered = sorted(phase_events, key=lambda e: (events[e].time, e))
    recs = [events[ev] for ev in ordered]
    kinds = [rec.kind for rec in recs]
    chares = [rec.chare for rec in recs]
    partners = []
    for ev in ordered:
        mid = trace.message_by_recv[ev]
        partners.append(trace.messages[mid].send_event
                        if mid != NO_ID else NO_ID)
    w: Dict[int, int] = {}
    max_recv_w: Dict[int, int] = {}  # chare -> max w over receives so far
    for ev, kind, chare, send in zip(ordered, kinds, chares, partners):
        if kind == EventKind.RECV:
            # ``w`` only holds events of this phase seen so far.
            value = w[send] + 1 if send in w else 0
            max_recv_w[chare] = max(max_recv_w.get(chare, -1), value)
        else:
            prior = max_recv_w.get(chare)
            value = 0 if prior is None else prior + 1
        w[ev] = value

    out: Dict[int, List[int]] = {}
    for ev, chare in zip(ordered, chares):
        out.setdefault(chare, []).append(ev)
    for chare, evs in out.items():
        evs.sort(key=lambda e: w[e])  # stable: physical order breaks ties
    return out
