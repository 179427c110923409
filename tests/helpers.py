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
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from typing import Dict, List, Optional, Tuple

from repro.trace.events import NO_ID, EventKind
from repro.trace.model import Trace, TraceBuilder
from repro.trace.validate import Violation


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
