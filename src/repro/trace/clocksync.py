"""Clock skew injection and timestamp synchronization.

Traces are stitched together from per-processor clocks that are never
perfectly aligned.  Section 4 of the paper notes that metrics comparing
times across processors (idle experienced) can be distorted by clock
synchronization problems and points at post-processing corrections
(Rabenseifner's controlled logical clock; Becker/Rabenseifner/Wolf).
This module provides both sides:

* :func:`apply_clock_skew` — perturb a trace with per-PE offsets and
  linear drift, producing the misaligned timestamps a real multi-node
  tracer records (possibly with receive-before-send violations);
* :func:`synchronize_trace` — repair a trace: estimate per-PE offsets
  from message constraints (difference-constraint relaxation), then run a
  controlled-logical-clock style forward amortization that pushes any
  still-violating receive (and everything after it on its processor)
  forward until every receive trails its send by the minimum latency.

Both read the trace's time columns and derive the corrected trace from
them (:func:`repro.trace.columns.derived_trace`); only times change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.columns import TraceColumns, derived_trace
from repro.trace.events import NO_ID, EventKind
from repro.trace.model import Trace


# ---------------------------------------------------------------------------
# Skew injection
# ---------------------------------------------------------------------------
def apply_clock_skew(
    trace: Trace,
    offsets: Sequence[float],
    drifts: Optional[Sequence[float]] = None,
) -> Trace:
    """Return a copy of ``trace`` with each PE's clock transformed.

    A timestamp ``t`` recorded on PE ``p`` becomes
    ``t * (1 + drifts[p]) + offsets[p]``.  Chare/entry registries and all
    record relationships are preserved; only times change.
    """
    if len(offsets) < trace.num_pes:
        raise ValueError("need one offset per PE")
    if drifts is not None and len(drifts) < trace.num_pes:
        raise ValueError("need one drift per PE")
    offset = np.asarray(offsets, np.float64)
    rate = 1.0 + (np.asarray(drifts, np.float64) if drifts is not None
                  else np.zeros(len(offset)))

    def warp(t, pe):
        return t * rate[pe] + offset[pe]

    columns = TraceColumns.of(trace)
    out = columns.take()
    out.ex_start = warp(columns.ex_start, columns.ex_pe)
    out.ex_end = warp(columns.ex_end, columns.ex_pe)
    out.ev_time = warp(columns.ev_time, columns.ev_pe)
    out.idle_start = warp(columns.idle_start, columns.idle_pe)
    out.idle_end = warp(columns.idle_end, columns.idle_pe)
    return derived_trace(trace, out)


# ---------------------------------------------------------------------------
# Synchronization
# ---------------------------------------------------------------------------
@dataclass
class SyncStats:
    """Diagnostics of a synchronization run."""

    violations_before: int = 0
    violations_after_offsets: int = 0
    violations_after: int = 0
    offset_rounds: int = 0
    pe_offsets: List[float] = field(default_factory=list)
    amortized_blocks: int = 0


def _complete_messages(trace: Trace):
    """Columns plus the send and receive event ids of complete messages."""
    columns = TraceColumns.of(trace)
    complete = (columns.msg_send != NO_ID) & (columns.msg_recv != NO_ID)
    return columns, columns.msg_send[complete], columns.msg_recv[complete]


def count_violations(trace: Trace, min_latency: float = 0.0) -> int:
    """Messages whose receive precedes send + ``min_latency``."""
    columns, send, recv = _complete_messages(trace)
    times = columns.ev_time
    return int(np.count_nonzero(
        times[recv] < times[send] + min_latency - 1e-9))


def estimate_pe_offsets(
    trace: Trace, min_latency: float = 0.0, max_rounds: int = 50
) -> Tuple[List[float], int]:
    """Estimate per-PE clock corrections from message constraints.

    Every complete cross-PE message imposes
    ``o[recv_pe] - o[send_pe] >= send_t + min_latency - recv_t``; the
    smallest non-negative corrections satisfying all satisfiable
    constraints are found by Bellman-Ford style relaxation.  Conflicting
    constraint cycles (genuine out-of-order effects, not constant skew)
    terminate relaxation at ``max_rounds``; the leftover violations are
    handled by forward amortization.
    """
    columns, send, recv = _complete_messages(trace)
    send_pe, recv_pe = columns.ev_pe[send], columns.ev_pe[recv]
    cross = send_pe != recv_pe
    bounds = (columns.ev_time[send[cross]] + min_latency
              - columns.ev_time[recv[cross]])
    constraints: List[Tuple[int, int, float]] = list(zip(
        send_pe[cross].tolist(), recv_pe[cross].tolist(), bounds.tolist()))

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


def forward_amortize(trace: Trace, min_latency: float = 0.0) -> Tuple[Trace, int]:
    """Controlled-logical-clock pass: push violating receives forward.

    Blocks are processed globally in corrected-time order; when a block's
    events include a receive earlier than its (already processed) send
    plus ``min_latency``, the block and everything after it on its PE
    shift forward by the deficit.  Per-PE event order and block spans are
    preserved; the returned trace has no violations.
    """
    columns = TraceColumns.of(trace)
    start = columns.ex_start.tolist()
    ex_pe = columns.ex_pe.tolist()
    is_recv = (columns.ev_kind == EventKind.RECV).tolist()
    times = columns.ev_time.tolist()
    msg_send = columns.msg_send.tolist()
    message_by_recv = trace.message_by_recv
    exec_shift = [0.0] * len(start)
    pe_shift = [0.0] * trace.num_pes
    new_time: Dict[int, float] = {}
    amortized = 0

    # Process executions in start order; ties by id keep determinism.
    order = sorted(range(len(start)), key=lambda x: (start[x], x))
    # Events must be handled send-before-recv; within a global sweep by
    # block start this holds for cross-PE messages after shifting, so a
    # fixed point loop over unresolved receives handles chains.
    for xid in order:
        pe = ex_pe[xid]
        shift = pe_shift[pe]
        # Does any receive in this block violate?
        deficit = 0.0
        for evid in trace.events_of(xid):
            if not is_recv[evid]:
                continue
            mid = message_by_recv[evid]
            if mid == NO_ID:
                continue
            send = msg_send[mid]
            if send == NO_ID:
                continue
            send_time = new_time.get(send, times[send])
            need = send_time + min_latency - (times[evid] + shift)
            if need > deficit:
                deficit = need
        if deficit > 1e-12:
            shift += deficit
            pe_shift[pe] = shift
            amortized += 1
        exec_shift[xid] = shift
        for evid in trace.events_of(xid):
            new_time[evid] = times[evid] + shift

    # Derive with the computed shifts.  Idle intervals are left as-is:
    # they are per-PE-local observations unaffected by the per-block
    # corrections (a conservative choice; the metric layer treats them as
    # lower bounds after amortization).
    time = columns.ev_time.copy()
    time[list(new_time)] = list(new_time.values())
    shifts = np.array(exec_shift, np.float64)
    out = columns.take()
    out.ex_start = columns.ex_start + shifts
    out.ex_end = columns.ex_end + shifts
    out.ev_time = time
    return derived_trace(trace, out), amortized


def synchronize_trace(
    trace: Trace, min_latency: float = 0.0, max_rounds: int = 50
) -> Tuple[Trace, SyncStats]:
    """Repair cross-processor timestamp skew in a trace.

    Two stages: constant per-PE offset estimation, then forward
    amortization for whatever the constant model cannot explain (drift,
    genuine reordering).  The result has no receive-before-send
    violations at the given ``min_latency``.
    """
    stats = SyncStats()
    stats.violations_before = count_violations(trace, min_latency)
    offsets, rounds = estimate_pe_offsets(trace, min_latency, max_rounds)
    stats.offset_rounds = rounds
    stats.pe_offsets = offsets
    if any(o > 1e-12 for o in offsets):
        trace = apply_clock_skew(trace, offsets)
    stats.violations_after_offsets = count_violations(trace, min_latency)
    # A single amortization sweep processes blocks in (stale) start order,
    # so chained violations can need several passes; each pass only moves
    # events forward, and the pass count is bounded in practice by the
    # longest violating dependency chain.
    for _ in range(20):
        if count_violations(trace, min_latency) == 0:
            break
        trace, amortized = forward_amortize(trace, min_latency)
        stats.amortized_blocks += amortized
    stats.violations_after = count_violations(trace, min_latency)
    return trace, stats
