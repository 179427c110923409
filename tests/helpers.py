"""Test helpers: compact construction of synthetic traces.

``SyntheticTrace`` wraps :class:`repro.trace.TraceBuilder` with a
block-oriented API so unit tests can transcribe the paper's illustrative
figures (rings, split blocks, idle scenarios) in a few lines.

``random_trace`` generates seeded, physically valid traces of arbitrary
shape (charm task trees or MPI neighbour exchanges, with optional runtime
chares and timing noise) for the property-based invariant suite.

``reference_rows`` / ``reference_document`` are the per-event oracle of
the analysis document: record by record through ``trace.events``, a
stable sort, and a ``json`` encode/decode round trip.

``reference_trace_problems`` / ``reference_defects`` are the per-record
oracle of trace defect detection: the record loop that
:func:`repro.trace.validate.collect_trace_problems` replaced with column
masks.

``reference_trace_digest`` is the per-record oracle of the in-memory
:func:`repro.batch.trace_digest`: one ``struct.pack`` per record, where
the digest packs the trace's columns.

``reference_inject_fault``, ``reference_repair_trace`` (and its
``reference_build_plan`` / ``reference_apply_plan``), the
``reference_slice_time`` / ``reference_filter_*`` subsets and the
clock-sync ``reference_*`` functions are the record oracles of the trace
derivations: record loops and one :class:`TraceBuilder` rebuild each,
where the derivations select and remap columns.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.trace.clocksync import SyncStats
from repro.trace.columns import TraceColumns
from repro.trace.events import NO_ID, EventKind
from repro.trace.model import Trace, TraceBuilder
from repro.trace.repair import (
    MAX_ROUNDS,
    RepairReport,
    _orphan_events,
    _Plan,
    detect_defects,
)
from repro.trace.validate import Violation, collect_trace_problems


def structures_equal(a, b) -> bool:
    """Bit-identical placement: every event in the same phase and step."""
    return (a.step_of_event == b.step_of_event
            and a.phase_of_event == b.phase_of_event
            and a.local_step_of_event == b.local_step_of_event
            and len(a.phases) == len(b.phases))


def reference_rows(structure, metrics=None) -> List[dict]:
    """Per-event document rows, one ``trace.events`` record at a time."""
    trace = structure.trace
    rows = []
    for ev, step in enumerate(structure.step_of_event):
        if step < 0:
            continue
        rec = trace.events[ev]
        entry = ""
        if rec.execution >= 0:
            entry = trace.entry(trace.executions[rec.execution].entry).name
        row = {
            "event": ev,
            "kind": rec.kind.name,
            "chare": rec.chare,
            "chare_name": trace.chares[rec.chare].name,
            "is_runtime": trace.chares[rec.chare].is_runtime,
            "pe": rec.pe,
            "time": rec.time,
            "entry": entry,
            "phase": structure.phase_of_event[ev],
            "step": step,
            "local_step": structure.local_step_of_event[ev],
        }
        for name, mapping in (metrics or {}).items():
            row[name] = mapping.get(ev, 0.0)
        rows.append(row)
    rows.sort(key=lambda r: (r["step"], r["chare"]))
    return rows


def reference_document(structure, stats, metrics=None) -> dict:
    """The analysis document, assembled through a JSON round trip."""
    doc = {
        "summary": structure.summary(),
        "phases": [
            {
                "id": p.id,
                "leap": p.leap,
                "is_runtime": p.is_runtime,
                "offset": p.offset,
                "max_local_step": p.max_local_step,
                "events": len(p.events),
                "chares": sorted(p.chares),
                "preds": sorted(p.preds),
                "succs": sorted(p.succs),
            }
            for p in structure.phases
        ],
        "events": reference_rows(structure, metrics),
    }
    doc = json.loads(json.dumps(doc, indent=1))
    doc["backend"] = stats.backend
    doc["stage_backends"] = dict(stats.stage_backends)
    if stats.repair is not None:
        doc["repair"] = stats.repair
    if stats.degradation is not None:
        degradation = dict(stats.degradation)
        degradation["stages"] = [
            {k: v for k, v in outcome.items() if k != "seconds"}
            for outcome in degradation.get("stages", [])
        ]
        doc["degradation"] = degradation
    return doc


def reference_trace_problems(trace: Trace,
                             check_pe_overlap: bool = True) -> List[Violation]:
    """Trace invariant violations, one record at a time."""
    problems: List[Violation] = []

    def problem(invariant: str, message: str, *subjects: int) -> None:
        problems.append(Violation(invariant, message, tuple(subjects)))

    n_chares = len(trace.chares)
    n_entries = len(trace.entries)
    n_events = len(trace.events)
    n_exec = len(trace.executions)

    for ex in trace.executions:
        if not (0 <= ex.chare < n_chares):
            problem("exec-ids", f"exec {ex.id}: bad chare id {ex.chare}", ex.id)
        if not (0 <= ex.entry < n_entries):
            problem("exec-ids", f"exec {ex.id}: bad entry id {ex.entry}", ex.id)
        if ex.end < ex.start:
            problem("exec-span",
                    f"exec {ex.id}: end {ex.end} < start {ex.start}", ex.id)
        if ex.recv_event != NO_ID:
            if not (0 <= ex.recv_event < n_events):
                problem("exec-recv",
                        f"exec {ex.id}: bad recv_event id {ex.recv_event}",
                        ex.id)
                continue
            ev = trace.events[ex.recv_event]
            if ev.kind != EventKind.RECV:
                problem("exec-recv",
                        f"exec {ex.id}: recv_event {ex.recv_event} is not a "
                        f"RECV", ex.id, ex.recv_event)
            if ev.execution != ex.id:
                problem("exec-recv",
                        f"exec {ex.id}: recv_event {ex.recv_event} belongs to "
                        f"exec {ev.execution}", ex.id, ex.recv_event)

    for ev in trace.events:
        if not (0 <= ev.chare < n_chares):
            problem("event-ids", f"event {ev.id}: bad chare id {ev.chare}",
                    ev.id)
            continue
        if ev.execution != NO_ID:
            if not (0 <= ev.execution < n_exec):
                problem("event-ids",
                        f"event {ev.id}: bad execution id {ev.execution}",
                        ev.id)
                continue
            ex = trace.executions[ev.execution]
            if ev.chare != ex.chare:
                problem("event-chare",
                        f"event {ev.id}: chare {ev.chare} != owning exec "
                        f"chare {ex.chare}", ev.id)
            if not (ex.start - 1e-9 <= ev.time <= ex.end + 1e-9):
                problem("event-span",
                        f"event {ev.id}: time {ev.time} outside exec {ex.id} "
                        f"span [{ex.start}, {ex.end}]", ev.id, ex.id)

    seen_recv = set()
    for msg in trace.messages:
        if msg.send_event != NO_ID and not (0 <= msg.send_event < n_events):
            problem("message-ids",
                    f"msg {msg.id}: bad send event {msg.send_event}", msg.id)
            continue
        if msg.recv_event != NO_ID and not (0 <= msg.recv_event < n_events):
            problem("message-ids",
                    f"msg {msg.id}: bad recv event {msg.recv_event}", msg.id)
            continue
        if msg.is_complete():
            send = trace.events[msg.send_event]
            recv = trace.events[msg.recv_event]
            if send.kind != EventKind.SEND:
                problem("message-endpoints",
                        f"msg {msg.id}: send endpoint is not a SEND event",
                        msg.id, msg.send_event)
            if recv.kind != EventKind.RECV:
                problem("message-endpoints",
                        f"msg {msg.id}: recv endpoint is not a RECV event",
                        msg.id, msg.recv_event)
            if recv.time < send.time - 1e-9:
                problem("recv-after-send",
                        f"msg {msg.id}: recv time {recv.time} precedes send "
                        f"time {send.time}", msg.id)
        if msg.recv_event != NO_ID:
            if msg.recv_event in seen_recv:
                problem("recv-unique",
                        f"msg {msg.id}: recv event {msg.recv_event} reused",
                        msg.id, msg.recv_event)
            seen_recv.add(msg.recv_event)

    for idle in trace.idles:
        if idle.end < idle.start:
            problem("idle-span", f"idle on pe {idle.pe}: end < start", idle.pe)
        if not (0 <= idle.pe < max(trace.num_pes, 1)):
            problem("idle-span", f"idle: bad pe {idle.pe}", idle.pe)

    if check_pe_overlap:
        for pe, xids in trace.executions_by_pe.items():
            prev_end = float("-inf")
            prev_id = None
            for xid in xids:
                ex = trace.executions[xid]
                if ex.start < prev_end - 1e-9:
                    problem("pe-overlap",
                            f"pe {pe}: exec {xid} (start {ex.start}) overlaps "
                            f"exec {prev_id} (end {prev_end})", xid)
                if ex.end > prev_end:
                    prev_end = ex.end
                    prev_id = xid
    return problems


def reference_trace_digest(trace: Trace) -> str:
    """The content digest of an in-memory trace, one record at a time."""
    def num(value) -> int:
        return -(1 << 40) if value is None else int(value)

    def text(value: Optional[str]) -> None:
        data = ("" if value is None else value).encode("utf-8", "replace")
        h.update(struct.pack("<q", len(data)))
        h.update(data)

    h = hashlib.sha256()
    h.update(struct.pack(
        "<8q", len(trace.events), len(trace.messages),
        len(trace.executions), len(trace.chares), len(trace.entries),
        len(trace.arrays), len(trace.idles), num(trace.num_pes),
    ))
    for e in trace.events:
        h.update(struct.pack("<4qd", num(e.kind), num(e.chare), num(e.pe),
                             num(e.execution), e.time))
    for m in trace.messages:
        h.update(struct.pack("<2q", num(m.send_event), num(m.recv_event)))
    for x in trace.executions:
        h.update(struct.pack("<4q2d", num(x.chare), num(x.entry), num(x.pe),
                             num(x.recv_event), x.start, x.end))
    for c in trace.chares:
        h.update(struct.pack("<3q?", num(c.id), num(c.array_id),
                             num(c.home_pe), bool(c.is_runtime)))
        h.update(struct.pack(f"<{len(c.index)}q", *c.index))
        text(c.name)
    for ent in trace.entries:
        h.update(struct.pack("<q?q", num(ent.id), bool(ent.is_sdag_serial),
                             num(ent.sdag_ordinal)))
        text(ent.name)
        text(ent.chare_type)
    for arr in trace.arrays:
        h.update(struct.pack(f"<2q{len(arr.shape)}q", num(arr.id),
                             len(arr.shape), *arr.shape))
        text(arr.name)
    for idle in trace.idles:
        h.update(struct.pack("<q2d", num(idle.pe), idle.start, idle.end))
    h.update(repr(sorted(trace.metadata.items())).encode())
    return h.hexdigest()


def reference_defects(trace: Trace) -> Dict[str, int]:
    """Per-invariant defect counts from the record-loop oracle, plus
    orphan events (``detect_defects``' contract, key order included)."""
    counts: Dict[str, int] = {}
    for violation in reference_trace_problems(trace):
        counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
    if trace.executions:
        orphans = sum(1 for ev in trace.events if ev.execution == NO_ID)
        if orphans:
            counts["orphan-event"] = orphans
    return counts


class SyntheticTrace:
    """Builds traces from (chare, entry, time-span, events) block specs."""

    def __init__(self, num_pes: int = 2, metadata: Optional[dict] = None):
        self.builder = TraceBuilder(num_pes=num_pes, metadata=metadata)
        self._entries: Dict[Tuple[str, bool, int], int] = {}
        self._pending_sends: Dict[str, int] = {}

    # -- registries ------------------------------------------------------
    def chare(self, name: str, pe: int = 0, is_runtime: bool = False,
              array_id: int = NO_ID, index: Tuple[int, ...] = ()) -> int:
        """Add a chare; returns its id."""
        return self.builder.add_chare(name, array_id, index, is_runtime, pe)

    def array(self, name: str, shape: Tuple[int, ...] = ()) -> int:
        """Add a chare array; returns its id."""
        return self.builder.add_array(name, shape)

    def _entry(self, name: str, sdag: bool, ordinal: int) -> int:
        key = (name, sdag, ordinal)
        if key not in self._entries:
            self._entries[key] = self.builder.add_entry(
                name, is_sdag_serial=sdag, sdag_ordinal=ordinal
            )
        return self._entries[key]

    # -- blocks ------------------------------------------------------------
    def block(
        self,
        chare: int,
        entry: str,
        pe: int,
        start: float,
        end: float,
        events: Optional[List[Tuple[str, str, float]]] = None,
        sdag: bool = False,
        ordinal: int = -1,
    ) -> int:
        """Add one execution with its dependency events.

        ``events`` is a list of ``(kind, label, time)``: kind is ``"send"``
        or ``"recv"``; matching endpoints share a label — a ``send`` opens
        the label, the ``recv`` closes it.  A recv label never opened
        produces an *untraced* receive (message with missing send).
        Returns the execution id.
        """
        entry_id = self._entry(entry, sdag, ordinal)
        exec_id = self.builder.add_execution(chare, entry_id, pe, start, end)
        for kind, label, time in events or ():
            if kind == "send":
                ev = self.builder.add_event(EventKind.SEND, chare, pe, time, exec_id)
                self._pending_sends[label] = ev
            elif kind == "recv":
                ev = self.builder.add_event(EventKind.RECV, chare, pe, time, exec_id)
                send_ev = self._pending_sends.pop(label, NO_ID)
                mid = self.builder.add_message(send_event=send_ev, recv_event=ev)
                if self.builder._executions[exec_id].recv_event == NO_ID:
                    self.builder.set_execution_recv(exec_id, ev)
            else:
                raise ValueError(f"unknown event kind {kind!r}")
        return exec_id

    def idle(self, pe: int, start: float, end: float) -> None:
        """Record an idle interval."""
        self.builder.add_idle(pe, start, end)

    def build(self) -> Trace:
        """Finalize the trace."""
        return self.builder.build()


def random_trace(
    seed: int = 0,
    chares: int = 6,
    pes: int = 2,
    rounds: int = 3,
    mode: str = "charm",
    noise: float = 0.0,
    fanout: int = 2,
    runtime: bool = False,
) -> Trace:
    """Seeded, physically valid random trace for property tests.

    ``charm`` mode simulates an event-driven run: each round opens
    depth-limited message trees over the application chares; every
    delivery becomes an execution on the destination chare's PE (per-PE
    clocks keep executions disjoint, deliveries never precede their
    sends).  With ``runtime=True`` the rounds are chained through a
    runtime "main" chare — leaves report completion, main triggers the
    next round — which keeps the rounds as distinct phases in the
    recovered DAG (application/runtime message endpoints are edges, not
    merges).  ``mpi`` mode emits a round-based ring exchange (compute
    block with sends, then an exchange block receiving from both
    neighbours) and tags the trace metadata with ``{"model": "mpi"}``.
    ``noise`` jitters durations and latencies multiplicatively.
    """
    rng = random.Random(seed)
    if mode == "mpi":
        return _random_mpi_trace(rng, chares, pes, rounds, noise)
    if mode != "charm":
        raise ValueError(f"unknown mode {mode!r}")

    import heapq

    tr = SyntheticTrace(num_pes=pes, metadata={"model": "charm", "seed": seed})
    chare_ids = [tr.chare(f"C[{i}]", pe=i % pes) for i in range(chares)]
    chare_pe = {cid: i % pes for i, cid in enumerate(chare_ids)}
    main = -1
    if runtime:
        main = tr.chare("CkMain", pe=0, is_runtime=True)
        chare_pe[main] = 0
    clocks = [0.0] * pes
    entries = ["work", "step", "reduce"]
    max_depth = 3

    def jitter(x: float) -> float:
        if noise <= 0:
            return x
        return max(1e-3, x * (1.0 + rng.uniform(-noise, noise)))

    seq = 0
    label_counter = 0
    t_boot = 0.0
    # (label, send_time) completion messages awaiting the next main block
    pending_done: List[Tuple[str, float]] = []
    for _ in range(max(rounds, 1)):
        # (deliver_time, seq, label, dest_chare, depth); seq breaks ties
        queue: List[Tuple[float, int, str, int, int]] = []
        budget = chares * 6
        if runtime:
            # Main receives last round's completions, triggers this round.
            start = max(
                [clocks[0], t_boot] + [t + jitter(0.3) for _, t in pending_done]
            )
            dur = jitter(1.5)
            evs: List[Tuple[str, str, float]] = []
            for k, (lab, _) in enumerate(pending_done):
                evs.append(("recv", lab,
                            start + dur * (0.02 + 0.4 * (k + 1) / (len(pending_done) + 1))))
            pending_done = []
            roots = rng.sample(chare_ids, 1 + rng.randrange(max(1, min(fanout, chares))))
            for root in roots:
                label = f"m{label_counter}"
                label_counter += 1
                st = start + dur * rng.uniform(0.5, 0.95)
                evs.append(("send", label, st))
                heapq.heappush(queue, (st + jitter(0.5), seq, label, root, 1))
                seq += 1
            evs.sort(key=lambda e: e[2])
            tr.block(main, "trigger", 0, start, start + dur, evs)
            clocks[0] = start + dur
            t_boot = start + dur
        else:
            root = rng.choice(chare_ids)
            pe = chare_pe[root]
            start = max(clocks[pe], t_boot)
            dur = jitter(2.0)
            evs = []
            for _ in range(1 + rng.randrange(max(1, fanout))):
                label = f"m{label_counter}"
                label_counter += 1
                st = start + dur * rng.uniform(0.1, 0.9)
                evs.append(("send", label, st))
                heapq.heappush(queue, (st + jitter(0.5), seq, label,
                                       rng.choice(chare_ids), 1))
                seq += 1
            evs.sort(key=lambda e: e[2])
            tr.block(root, rng.choice(entries), pe, start, start + dur, evs)
            clocks[pe] = start + dur
            t_boot = start + dur + jitter(1.0)

        while queue:
            deliver, _, label, dest, depth = heapq.heappop(queue)
            pe = chare_pe[dest]
            start = max(clocks[pe], deliver)
            dur = jitter(1.0)
            evs = [("recv", label, start + dur * 0.01)]
            children = 0
            if depth < max_depth and budget > 0:
                for _ in range(rng.randrange(fanout + 1)):
                    lab = f"m{label_counter}"
                    label_counter += 1
                    st = start + dur * rng.uniform(0.2, 0.9)
                    evs.append(("send", lab, st))
                    heapq.heappush(queue, (st + jitter(0.5), seq, lab,
                                           rng.choice(chare_ids), depth + 1))
                    seq += 1
                    budget -= 1
                    children += 1
            if runtime and children == 0:
                # Leaf: report completion to main for round chaining.
                lab = f"m{label_counter}"
                label_counter += 1
                evs.append(("send", lab, start + dur * 0.95))
                pending_done.append((lab, start + dur * 0.95))
            evs.sort(key=lambda e: e[2])
            tr.block(dest, rng.choice(entries), pe, start, start + dur, evs)
            clocks[pe] = start + dur
    return tr.build()


def _random_mpi_trace(
    rng: "random.Random", ranks: int, pes: int, rounds: int, noise: float
) -> Trace:
    """Round-based ring exchange over ``ranks`` MPI processes."""
    tr = SyntheticTrace(num_pes=pes, metadata={"model": "mpi"})
    ids = [tr.chare(f"rank{i}", pe=i % pes) for i in range(ranks)]
    clocks = [0.0] * pes

    def jitter(x: float) -> float:
        if noise <= 0:
            return x
        return max(1e-3, x * (1.0 + rng.uniform(-noise, noise)))

    for r in range(rounds):
        send_time: Dict[str, float] = {}
        for i, cid in enumerate(ids):
            pe = i % pes
            start = clocks[pe]
            dur = jitter(2.0)
            evs: List[Tuple[str, str, float]] = []
            for off, tag in ((1, "R"), (-1, "L")):
                j = (i + off) % ranks
                if j == i:
                    continue
                label = f"r{r}_{i}_{j}_{tag}"
                st = start + dur * rng.uniform(0.3, 0.9)
                evs.append(("send", label, st))
                send_time[label] = st
            evs.sort(key=lambda e: e[2])
            tr.block(cid, "compute", pe, start, start + dur, evs)
            clocks[pe] = start + dur
        for i, cid in enumerate(ids):
            pe = i % pes
            incoming: List[Tuple[str, float]] = []
            for off, tag in ((-1, "R"), (1, "L")):
                j = (i + off) % ranks
                if j == i:
                    continue
                label = f"r{r}_{j}_{i}_{tag}"
                if label in send_time:
                    incoming.append((label, send_time[label]))
            start = max([clocks[pe]] + [t + 1e-3 for _, t in incoming])
            dur = jitter(1.0)
            evs = [
                ("recv", lab, start + dur * (0.1 + 0.3 * k))
                for k, (lab, _) in enumerate(incoming)
            ]
            tr.block(cid, "exchange", pe, start, start + dur, evs)
            clocks[pe] = start + dur
    return tr.build()


# ----------------------------------------------------------------------
# Record oracles of the trace derivations: the record-by-record
# TraceBuilder rebuilds that fault injection, repair, filtering and clock
# sync replaced with column selects and remaps (repro.trace.columns).
# ----------------------------------------------------------------------
def _reference_builder(trace: Trace) -> TraceBuilder:
    b = TraceBuilder(num_pes=trace.num_pes, metadata=dict(trace.metadata))
    for entry in trace.entries:
        b.add_entry(entry.name, entry.chare_type, entry.is_sdag_serial,
                    entry.sdag_ordinal)
    for arr in trace.arrays:
        b.add_array(arr.name, arr.shape)
    for chare in trace.chares:
        b.add_chare(chare.name, chare.array_id, chare.index,
                    chare.is_runtime, chare.home_pe)
    return b


def _reference_fault_rebuild(
    trace: Trace,
    keep_exec: Callable[[int], bool] = lambda x: True,
    keep_event: Callable[[int], bool] = lambda e: True,
    keep_message: Callable[[int], bool] = lambda m: True,
    exec_span: Optional[Dict[int, Tuple[float, float]]] = None,
) -> Trace:
    exec_span = exec_span or {}
    b = _reference_builder(trace)

    exec_map: Dict[int, int] = {}
    for ex in trace.executions:
        if not keep_exec(ex.id):
            continue
        start, end = exec_span.get(ex.id, (ex.start, ex.end))
        exec_map[ex.id] = b.add_execution(ex.chare, ex.entry, ex.pe,
                                          start, end, recv_event=NO_ID)

    event_map: Dict[int, int] = {}
    for ev in trace.events:
        if not keep_event(ev.id):
            continue
        owner = exec_map.get(ev.execution, NO_ID)
        event_map[ev.id] = b.add_event(ev.kind, ev.chare, ev.pe, ev.time,
                                       owner)

    for ex in trace.executions:
        new_id = exec_map.get(ex.id)
        if new_id is None or ex.recv_event == NO_ID:
            continue
        mapped = event_map.get(ex.recv_event)
        if mapped is not None:
            b.set_execution_recv(new_id, mapped)

    for msg in trace.messages:
        if not keep_message(msg.id):
            continue
        send = event_map.get(msg.send_event, NO_ID)
        recv = event_map.get(msg.recv_event, NO_ID)
        if msg.recv_event != NO_ID and recv == NO_ID:
            continue  # the receive record is gone: nothing to anchor
        if send == NO_ID and recv == NO_ID:
            continue
        b.add_message(send_event=send, recv_event=recv)

    for idle in trace.idles:
        b.add_idle(idle.pe, idle.start, idle.end)
    return b.build()


def _reference_sample(rng: random.Random, ids: Sequence[int],
                      severity: float) -> set:
    if not ids:
        return set()
    k = max(1, int(round(len(ids) * min(max(severity, 0.0), 1.0))))
    return set(rng.sample(list(ids), min(k, len(ids))))


def _reference_truncate(trace: Trace, rng: random.Random,
                        severity: float) -> Trace:
    n_x, n_e, n_m, n_i = (len(trace.executions), len(trace.events),
                          len(trace.messages), len(trace.idles))
    total = n_x + n_e + n_m + n_i
    if total == 0:
        return trace
    keep = int(total * min(max(1.0 - severity, 0.0), 1.0))
    keep = min(keep, total - 1)  # always lose at least the last record
    k_x = min(n_x, keep)
    k_e = min(n_e, max(0, keep - n_x))
    k_m = min(n_m, max(0, keep - n_x - n_e))
    k_i = max(0, keep - n_x - n_e - n_m)

    b = _reference_builder(trace)
    for ex in trace.executions[:k_x]:
        # recv_event kept verbatim: ids >= k_e now dangle.
        b.add_execution(ex.chare, ex.entry, ex.pe, ex.start, ex.end,
                        recv_event=ex.recv_event)
    for ev in trace.events[:k_e]:
        b.add_event(ev.kind, ev.chare, ev.pe, ev.time, ev.execution)
    for msg in trace.messages[:k_m]:
        b.add_message(msg.send_event, msg.recv_event)
    for idle in trace.idles[:k_i]:
        b.add_idle(idle.pe, idle.start, idle.end)
    return b.build()


def _reference_drop_messages(trace: Trace, rng: random.Random,
                             severity: float) -> Trace:
    dropped = _reference_sample(rng, [m.id for m in trace.messages], severity)
    return _reference_fault_rebuild(trace,
                                    keep_message=lambda m: m not in dropped)


def _reference_dup_messages(trace: Trace, rng: random.Random,
                            severity: float) -> Trace:
    complete = [m.id for m in trace.messages if m.is_complete()]
    doubled = _reference_sample(rng, complete, severity)
    b = _reference_builder(trace)
    # Nothing is dropped, so every id survives unchanged; replay the
    # records verbatim plus one extra copy of each doubled message.
    for ex in trace.executions:
        b.add_execution(ex.chare, ex.entry, ex.pe, ex.start, ex.end,
                        recv_event=ex.recv_event)
    for ev in trace.events:
        b.add_event(ev.kind, ev.chare, ev.pe, ev.time, ev.execution)
    for msg in trace.messages:
        b.add_message(msg.send_event, msg.recv_event)
        if msg.id in doubled:
            b.add_message(msg.send_event, msg.recv_event)
    for idle in trace.idles:
        b.add_idle(idle.pe, idle.start, idle.end)
    return b.build()


def _reference_orphan_recv(trace: Trace, rng: random.Random,
                           severity: float) -> Trace:
    if not trace.executions:
        return trace
    dropped = _reference_sample(rng, [ex.id for ex in trace.executions],
                                severity)
    return _reference_fault_rebuild(trace, keep_exec=lambda x: x not in dropped)


def _reference_negative_duration(trace: Trace, rng: random.Random,
                                 severity: float) -> Trace:
    positive = [ex.id for ex in trace.executions if ex.end > ex.start]
    corrupted = _reference_sample(rng, positive, severity)
    spans = {
        x: (trace.executions[x].start,
            trace.executions[x].start
            - (trace.executions[x].end - trace.executions[x].start))
        for x in corrupted
    }
    return _reference_fault_rebuild(trace, exec_span=spans)


def _reference_clock_skew(trace: Trace, rng: random.Random,
                          severity: float) -> Trace:
    span = max(trace.end_time(), 1.0)
    offsets = [0.0] + [
        rng.uniform(-1.0, 1.0) * severity * span
        for _ in range(max(trace.num_pes - 1, 0))
    ]
    return reference_apply_clock_skew(trace, offsets)


REFERENCE_FAULTS = {
    "truncate": _reference_truncate,
    "drop_messages": _reference_drop_messages,
    "dup_messages": _reference_dup_messages,
    "orphan_recv": _reference_orphan_recv,
    "negative_duration": _reference_negative_duration,
    "clock_skew": _reference_clock_skew,
}


def reference_inject_fault(trace: Trace, kind: str, seed: int = 0,
                           severity: float = 0.25) -> Trace:
    """``inject_fault`` through the record oracles."""
    rng = random.Random(f"{seed}:{kind}")
    return REFERENCE_FAULTS[kind](trace, rng, severity)


def reference_apply_clock_skew(
    trace: Trace,
    offsets: Sequence[float],
    drifts: Optional[Sequence[float]] = None,
) -> Trace:
    if len(offsets) < trace.num_pes:
        raise ValueError("need one offset per PE")
    if drifts is not None and len(drifts) < trace.num_pes:
        raise ValueError("need one drift per PE")

    def warp(t: float, pe: int) -> float:
        rate = 1.0 + (drifts[pe] if drifts is not None else 0.0)
        return t * rate + offsets[pe]

    b = _reference_builder(trace)
    for ex in trace.executions:
        b.add_execution(ex.chare, ex.entry, ex.pe,
                        warp(ex.start, ex.pe), warp(ex.end, ex.pe),
                        recv_event=ex.recv_event)
    for ev in trace.events:
        b.add_event(ev.kind, ev.chare, ev.pe, warp(ev.time, ev.pe),
                    ev.execution)
    for msg in trace.messages:
        b.add_message(msg.send_event, msg.recv_event)
    for idle in trace.idles:
        b.add_idle(idle.pe, warp(idle.start, idle.pe), warp(idle.end, idle.pe))
    return b.build()


def reference_count_violations(trace: Trace, min_latency: float = 0.0) -> int:
    bad = 0
    for msg in trace.messages:
        if msg.is_complete():
            send = trace.events[msg.send_event]
            recv = trace.events[msg.recv_event]
            if recv.time < send.time + min_latency - 1e-9:
                bad += 1
    return bad


def reference_estimate_pe_offsets(
    trace: Trace, min_latency: float = 0.0, max_rounds: int = 50
) -> Tuple[List[float], int]:
    constraints: List[Tuple[int, int, float]] = []
    for msg in trace.messages:
        if not msg.is_complete():
            continue
        send = trace.events[msg.send_event]
        recv = trace.events[msg.recv_event]
        if send.pe == recv.pe:
            continue
        bound = send.time + min_latency - recv.time
        constraints.append((send.pe, recv.pe, bound))

    offsets = [0.0] * trace.num_pes
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = False
        for src, dst, bound in constraints:
            needed = offsets[src] + bound
            if offsets[dst] < needed - 1e-9:
                offsets[dst] = needed
                changed = True
        if not changed:
            break
    # Normalize: the earliest PE keeps its clock.
    lo = min(offsets)
    offsets = [o - lo for o in offsets]
    return offsets, rounds


def reference_forward_amortize(trace: Trace,
                               min_latency: float = 0.0) -> Tuple[Trace, int]:
    exec_shift: Dict[int, float] = {}
    pe_shift = [0.0] * trace.num_pes
    new_time: Dict[int, float] = {}
    amortized = 0

    order = sorted(range(len(trace.executions)),
                   key=lambda x: (trace.executions[x].start, x))
    for xid in order:
        ex = trace.executions[xid]
        shift = pe_shift[ex.pe]
        deficit = 0.0
        for evid in trace.events_of(xid):
            ev = trace.events[evid]
            if ev.kind.name != "RECV":
                continue
            mid = trace.message_by_recv[evid]
            if mid == NO_ID:
                continue
            send = trace.messages[mid].send_event
            if send == NO_ID:
                continue
            send_rec = trace.events[send]
            send_time = new_time.get(send, send_rec.time)
            need = send_time + min_latency - (ev.time + shift)
            if need > deficit:
                deficit = need
        if deficit > 1e-12:
            shift += deficit
            pe_shift[ex.pe] = shift
            amortized += 1
        exec_shift[xid] = shift
        for evid in trace.events_of(xid):
            new_time[evid] = trace.events[evid].time + shift

    b = _reference_builder(trace)
    for ex in trace.executions:
        s = exec_shift.get(ex.id, 0.0)
        b.add_execution(ex.chare, ex.entry, ex.pe, ex.start + s, ex.end + s,
                        recv_event=ex.recv_event)
    for ev in trace.events:
        t = new_time.get(ev.id, ev.time)
        b.add_event(ev.kind, ev.chare, ev.pe, t, ev.execution)
    for msg in trace.messages:
        b.add_message(msg.send_event, msg.recv_event)
    for idle in trace.idles:
        b.add_idle(idle.pe, idle.start, idle.end)
    return b.build(), amortized


def reference_synchronize_trace(
    trace: Trace, min_latency: float = 0.0, max_rounds: int = 50
) -> Tuple[Trace, SyncStats]:
    stats = SyncStats()
    stats.violations_before = reference_count_violations(trace, min_latency)
    offsets, rounds = reference_estimate_pe_offsets(trace, min_latency,
                                                    max_rounds)
    stats.offset_rounds = rounds
    stats.pe_offsets = offsets
    if any(o > 1e-12 for o in offsets):
        trace = reference_apply_clock_skew(trace, offsets)
    stats.violations_after_offsets = reference_count_violations(
        trace, min_latency)
    for _ in range(20):
        if reference_count_violations(trace, min_latency) == 0:
            break
        trace, amortized = reference_forward_amortize(trace, min_latency)
        stats.amortized_blocks += amortized
    stats.violations_after = reference_count_violations(trace, min_latency)
    return trace, stats


def reference_slice_time(trace: Trace, start: float, end: float) -> Trace:
    if end < start:
        raise ValueError("end must be >= start")
    return _reference_subset(
        trace,
        lambda ex: ex.end >= start and ex.start <= end,
        idle_clip=(start, end),
    )


def reference_filter_chares(trace: Trace, chares: Iterable[int]) -> Trace:
    selected = set(chares)
    for c in selected:
        if not (0 <= c < len(trace.chares)):
            raise ValueError(f"unknown chare id {c}")
    return _reference_subset(trace, lambda ex: ex.chare in selected)


def reference_filter_application(trace: Trace) -> Trace:
    return _reference_subset(
        trace, lambda ex: not trace.is_runtime_chare(ex.chare))


def _reference_subset(trace: Trace, keep, idle_clip=None) -> Trace:
    b = _reference_builder(trace)
    exec_map = {}
    for ex in trace.executions:
        if keep(ex):
            exec_map[ex.id] = b.add_execution(
                ex.chare, ex.entry, ex.pe, ex.start, ex.end
            )
    event_map = {}
    for ev in trace.events:
        if ev.execution in exec_map:
            event_map[ev.id] = b.add_event(
                ev.kind, ev.chare, ev.pe, ev.time, exec_map[ev.execution]
            )
    for msg in trace.messages:
        recv = event_map.get(msg.recv_event)
        if recv is None:
            continue  # a message is anchored by its receive
        send = event_map.get(msg.send_event, NO_ID)
        b.add_message(send_event=send, recv_event=recv)
    # Re-link execution recv events.
    for old_id, new_id in exec_map.items():
        old_recv = trace.executions[old_id].recv_event
        if old_recv != NO_ID and old_recv in event_map:
            b.set_execution_recv(new_id, event_map[old_recv])

    for idle in trace.idles:
        if idle_clip is None:
            b.add_idle(idle.pe, idle.start, idle.end)
        else:
            lo = max(idle.start, idle_clip[0])
            hi = min(idle.end, idle_clip[1])
            if hi > lo:
                b.add_idle(idle.pe, lo, hi)
    return b.build()


def reference_build_plan(trace: Trace, problems: List[Violation],
                         actions: Dict[str, int]) -> _Plan:
    """``repair._build_plan`` with its record scans."""
    plan = _Plan()

    def act(name: str, n: int = 1) -> None:
        actions[name] = actions.get(name, 0) + n

    n_events = len(trace.events)
    seen_recv: Set[int] = set()
    for msg in trace.messages:
        if msg.recv_event != NO_ID and 0 <= msg.recv_event < n_events:
            if msg.recv_event in seen_recv:
                plan.drop_messages.add(msg.id)
                act("drop-duplicate-message")
            seen_recv.add(msg.recv_event)

    skew = 0
    for v in problems:
        if v.invariant in ("exec-recv",):
            exec_id = v.subjects[0]
            if exec_id not in plan.reset_recv:
                plan.reset_recv.add(exec_id)
                act("reset-dangling-recv")
        elif v.invariant in ("exec-span", "event-span"):
            exec_id = v.subjects[0] if v.invariant == "exec-span" else v.subjects[1]
            plan.clamp_spans.setdefault(exec_id, (0.0, 0.0))
        elif v.invariant == "message-ids":
            plan.drop_messages.add(v.subjects[0])
            act("drop-bad-message")
        elif v.invariant == "message-endpoints":
            if v.subjects[0] not in plan.drop_messages:
                plan.drop_messages.add(v.subjects[0])
                act("drop-bad-message")
        elif v.invariant == "recv-after-send":
            skew += 1
        elif v.invariant == "idle-span":
            plan.drop_idles = True
        elif v.invariant in ("event-ids", "event-chare"):
            if v.subjects[0] not in plan.drop_events:
                plan.drop_events.add(v.subjects[0])
                act("drop-bad-event")
        elif v.invariant == "exec-ids":
            if v.subjects[0] not in plan.drop_execs:
                plan.drop_execs.add(v.subjects[0])
                act("drop-bad-exec")

    for ev_id in _orphan_events(trace):
        if ev_id not in plan.drop_events:
            plan.drop_events.add(ev_id)
            act("drop-orphan-event")

    members: Dict[int, List[int]] = {}
    if plan.clamp_spans:
        ev_exec = TraceColumns.of(trace).ev_exec
        clamped = np.fromiter(plan.clamp_spans, np.int64,
                              len(plan.clamp_spans))
        rows = np.flatnonzero(np.isin(ev_exec, clamped))
        for ev_id, exec_id in zip(rows.tolist(), ev_exec[rows].tolist()):
            members.setdefault(exec_id, []).append(ev_id)
    resolved: Dict[int, Tuple[float, float]] = {}
    for exec_id in plan.clamp_spans:
        if exec_id in plan.drop_execs or not (0 <= exec_id < len(trace.executions)):
            continue
        ex = trace.executions[exec_id]
        times = [trace.events[e].time for e in members.get(exec_id, ())
                 if e not in plan.drop_events]
        lo = min([ex.start] + times)
        hi = max([ex.start] + times + ([ex.end] if ex.end >= ex.start else []))
        resolved[exec_id] = (lo, hi)
        act("clamp-exec-span")
    plan.clamp_spans = resolved

    if skew and not plan.structural():
        plan.synchronize = True
        act("synchronize-clocks")
    return plan


def reference_apply_plan(trace: Trace, plan: _Plan) -> Trace:
    """``repair._apply_plan`` as a record-by-record rebuild."""
    b = _reference_builder(trace)
    n_events = len(trace.events)
    exec_map: Dict[int, int] = {}
    for ex in trace.executions:
        if ex.id in plan.drop_execs:
            continue
        start, end = plan.clamp_spans.get(ex.id, (ex.start, ex.end))
        if end < start:  # no events to clamp to: collapse to a point
            start, end = min(start, end), min(start, end)
        exec_map[ex.id] = b.add_execution(ex.chare, ex.entry, ex.pe,
                                          start, end, recv_event=NO_ID)

    event_map: Dict[int, int] = {}
    for ev in trace.events:
        if ev.id in plan.drop_events:
            continue
        owner = exec_map.get(ev.execution, NO_ID)
        if ev.execution != NO_ID and owner == NO_ID:
            continue  # owning execution dropped: the event goes with it
        event_map[ev.id] = b.add_event(ev.kind, ev.chare, ev.pe, ev.time,
                                       owner)

    for ex in trace.executions:
        new_id = exec_map.get(ex.id)
        if new_id is None or ex.id in plan.reset_recv:
            continue
        recv = ex.recv_event
        if recv == NO_ID:
            continue
        mapped = event_map.get(recv) if 0 <= recv < n_events else None
        if mapped is not None:
            b.set_execution_recv(new_id, mapped)

    for msg in trace.messages:
        if msg.id in plan.drop_messages:
            continue
        send = (event_map.get(msg.send_event, NO_ID)
                if 0 <= msg.send_event < n_events else NO_ID)
        recv = (event_map.get(msg.recv_event, NO_ID)
                if 0 <= msg.recv_event < n_events else NO_ID)
        if msg.recv_event != NO_ID and recv == NO_ID:
            continue
        if send == NO_ID and recv == NO_ID:
            continue
        b.add_message(send_event=send, recv_event=recv)

    if not plan.drop_idles:
        for idle in trace.idles:
            b.add_idle(idle.pe, idle.start, idle.end)
    else:
        for idle in trace.idles:
            if idle.end > idle.start:
                b.add_idle(idle.pe, idle.start, idle.end)
    return b.build()


def reference_repair_trace(trace: Trace, max_rounds: int = MAX_ROUNDS
                           ) -> Tuple[Trace, RepairReport]:
    """``repair_trace(trace, mode="fix")`` through the record oracles."""
    report = RepairReport(mode="fix")
    report.detected = detect_defects(trace)
    if not report.detected:
        return trace, report
    current = trace
    for _ in range(max_rounds):
        problems = collect_trace_problems(current)
        if not problems and not _orphan_events(current):
            break
        plan = reference_build_plan(current, problems, report.repaired)
        if plan.empty():
            break  # nothing safe left to do
        report.rounds += 1
        if plan.synchronize:
            current, _ = reference_synchronize_trace(current)
        else:
            current = reference_apply_plan(current, plan)
        report.changed = True
    report.residual = detect_defects(current)
    return current, report
