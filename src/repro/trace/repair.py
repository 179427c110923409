"""Trace defect detection and repair (the ingestion-hardening pass).

Extraction assumes the physical-realizability invariants that
:func:`repro.trace.validate.validate_trace` checks; real traces break
them (see :mod:`repro.trace.faults` for the taxonomy).  This module sits
between ingestion and the pipeline:

* :func:`detect_defects` counts every violated invariant plus the
  defects the validator deliberately tolerates (orphan events);
* :func:`repair_trace` applies the *safe* subset of repairs — resetting
  dangling references, dropping orphans and duplicate deliveries,
  clamping corrupted execution spans, re-synchronizing skewed clocks —
  and reports everything it saw and did as a :class:`RepairReport`.

Repair is conservative by design: an action is taken only when it cannot
invent information (a dangling reference is provably wrong; a plausible
but unmatched message is left alone).  Defects with no safe repair are
surfaced in :attr:`RepairReport.residual` rather than guessed at.  Both
the plan and the repaired trace are computed from the trace's columns: a
repaired trace is a :class:`~repro.trace.columns.ColumnarTrace` derived
with :func:`~repro.trace.columns.derived_trace`.

The pipeline runs this pass when ``PipelineOptions.repair`` is ``"warn"``
(detect and report only) or ``"fix"`` (detect, repair, re-detect);
``"off"`` preserves the historical garbage-in/garbage-out behavior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.trace.columns import TraceColumns, derived_trace, follow, renumber
from repro.trace.events import NO_ID
from repro.trace.model import Trace
from repro.trace.validate import Violation, collect_trace_problems

#: Repair modes accepted by ``PipelineOptions.repair``.
REPAIR_MODES = ("off", "warn", "fix")

#: Detection → applied-repair rounds before giving up on convergence
#: (each round can expose defects the previous one masked).
MAX_ROUNDS = 4


@dataclass
class RepairReport:
    """What the repair pass saw and did, as per-defect counts.

    ``detected`` counts defects in the incoming trace by invariant name
    (the validator's kebab-case names plus ``orphan-event``).
    ``repaired`` counts applied repair actions by action name.
    ``residual`` counts defects still present after repair (always empty
    in ``warn`` mode, which repairs nothing; nonempty in ``fix`` mode
    only when a defect has no safe repair).
    """

    mode: str = "off"
    detected: Dict[str, int] = field(default_factory=dict)
    repaired: Dict[str, int] = field(default_factory=dict)
    residual: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    changed: bool = False

    @property
    def clean(self) -> bool:
        """True when the incoming trace had no detected defects."""
        return not self.detected

    def summary(self) -> str:
        """One-line human-readable digest of the report."""
        if self.clean:
            return "clean trace: no defects detected"
        det = ", ".join(f"{k}={v}" for k, v in sorted(self.detected.items()))
        rep = ", ".join(f"{k}={v}" for k, v in sorted(self.repaired.items()))
        res = ", ".join(f"{k}={v}" for k, v in sorted(self.residual.items()))
        parts = [f"detected [{det}]"]
        if rep:
            parts.append(f"repaired [{rep}]")
        if res:
            parts.append(f"residual [{res}]")
        return "; ".join(parts)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clean": self.clean,
            "detected": dict(self.detected),
            "repaired": dict(self.repaired),
            "residual": dict(self.residual),
            "rounds": self.rounds,
            "changed": self.changed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepairReport":
        """Inverse of :meth:`to_dict` (derived keys are ignored)."""
        return cls(
            mode=data.get("mode", "off"),
            detected=dict(data.get("detected", {})),
            repaired=dict(data.get("repaired", {})),
            residual=dict(data.get("residual", {})),
            rounds=int(data.get("rounds", 0)),
            changed=bool(data.get("changed", False)),
        )


class TraceRepairError(ValueError):
    """Raised for unusable repair modes (not for unrepairable traces)."""


def _orphan_events(trace: Trace) -> List[int]:
    """Events detached from any execution, in a trace that has executions.

    ``execution == NO_ID`` is legitimate only for the synthetic
    execution-free traces unit tests build; when execution records exist,
    a detached event means its owning record was lost.
    """
    if not trace.executions:
        return []
    return np.flatnonzero(TraceColumns.of(trace).ev_exec == NO_ID).tolist()


def detect_defects(trace: Trace) -> Dict[str, int]:
    """Per-invariant defect counts (validator problems + orphan events)."""
    counts: Dict[str, int] = {}
    for violation in collect_trace_problems(trace):
        counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
    orphans = _orphan_events(trace)
    if orphans:
        counts["orphan-event"] = len(orphans)
    return counts


# ---------------------------------------------------------------------------
# The fix plan: one detection round's worth of safe repairs
# ---------------------------------------------------------------------------
@dataclass
class _Plan:
    drop_events: Set[int] = field(default_factory=set)
    drop_messages: Set[int] = field(default_factory=set)
    drop_execs: Set[int] = field(default_factory=set)
    reset_recv: Set[int] = field(default_factory=set)  # execution ids
    clamp_spans: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    drop_idles: bool = False
    synchronize: bool = False

    def structural(self) -> bool:
        return bool(self.drop_events or self.drop_messages or self.drop_execs
                    or self.reset_recv or self.clamp_spans or self.drop_idles)

    def empty(self) -> bool:
        return not (self.structural() or self.synchronize)


def _build_plan(trace: Trace, problems: List[Violation],
                actions: Dict[str, int]) -> _Plan:
    """Map one round of detected problems to safe repair actions."""
    plan = _Plan()

    def act(name: str, n: int = 1) -> None:
        actions[name] = actions.get(name, 0) + n

    columns = TraceColumns.of(trace)
    recvs = columns.msg_recv
    in_range = np.flatnonzero((recvs >= 0) & (recvs < columns.n_events))
    duplicate = np.ones(len(in_range), bool)
    duplicate[np.unique(recvs[in_range], return_index=True)[1]] = False
    if duplicate.any():
        plan.drop_messages.update(in_range[duplicate].tolist())
        act("drop-duplicate-message", int(duplicate.sum()))

    skew = 0
    for v in problems:
        if v.invariant in ("exec-recv",):
            exec_id = v.subjects[0]
            if exec_id not in plan.reset_recv:
                plan.reset_recv.add(exec_id)
                act("reset-dangling-recv")
        elif v.invariant in ("exec-span", "event-span"):
            # Clamp the execution span to cover its events (and never be
            # negative); handled uniformly below via clamp_spans.
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
        # recv-unique handled by the duplicate scan; pe-overlap has no
        # safe structural repair (synchronization may still remove it
        # when it stems from skew).

    for ev_id in _orphan_events(trace):
        if ev_id not in plan.drop_events:
            plan.drop_events.add(ev_id)
            act("drop-orphan-event")

    # Resolve the span clamps now that the full drop set is known.  The
    # events of each clamped execution come from the owner column, not
    # ``events_of``: a chunk-ingested trace builds that index over every
    # event and rejects an out-of-range owner, which the drop set holds
    # anyway.  Their order does not matter: ``min``/``max`` start from
    # the execution's start, so a NaN time never wins.
    times: Dict[int, List[float]] = {}
    if plan.clamp_spans:
        clamped = np.fromiter(plan.clamp_spans, np.int64,
                              len(plan.clamp_spans))
        rows = np.flatnonzero(np.isin(columns.ev_exec, clamped))
        for ev_id, exec_id, time in zip(rows.tolist(),
                                        columns.ev_exec[rows].tolist(),
                                        columns.ev_time[rows].tolist()):
            if ev_id not in plan.drop_events:
                times.setdefault(exec_id, []).append(time)
    resolved: Dict[int, Tuple[float, float]] = {}
    for exec_id in plan.clamp_spans:
        if exec_id in plan.drop_execs or not (
                0 <= exec_id < columns.n_executions):
            continue
        start = float(columns.ex_start[exec_id])
        end = float(columns.ex_end[exec_id])
        kept = times.get(exec_id, [])
        lo = min([start] + kept)
        hi = max([start] + kept + ([end] if end >= start else []))
        resolved[exec_id] = (lo, hi)
        act("clamp-exec-span")
    plan.clamp_spans = resolved

    if skew and not plan.structural():
        # Only synchronize once the structure is sound: offset estimation
        # walks messages/executions and should see repaired records.
        plan.synchronize = True
        act("synchronize-clocks")
    return plan


def _rows(n: int, ids) -> np.ndarray:
    """Mask of the rows ``0..n-1`` that ``ids`` names (other ids name none)."""
    ids = np.fromiter(ids, np.int64, len(ids))
    mask = np.zeros(n, bool)
    mask[ids[(ids >= 0) & (ids < n)]] = True
    return mask


def _apply_plan(trace: Trace, plan: _Plan) -> Trace:
    """Derive the trace with the plan's drops/resets/clamps applied.

    An event whose owning execution is dropped goes with it; a message
    goes when its receive existed but is gone, or when both ends are
    gone.  A kept execution with ``end < start`` collapses to the point
    ``end``.
    """
    columns = TraceColumns.of(trace)
    start, end = columns.ex_start.copy(), columns.ex_end.copy()
    for exec_id, (lo, hi) in plan.clamp_spans.items():
        if 0 <= exec_id < len(start):
            start[exec_id], end[exec_id] = lo, hi
    inverted = end < start  # no events to clamp to: collapse to a point
    start[inverted] = end[inverted]

    keep_ex = ~_rows(columns.n_executions, plan.drop_execs)
    owner = follow(columns.ev_exec, renumber(keep_ex))
    keep_ev = ~_rows(columns.n_events, plan.drop_events) & (
        (columns.ev_exec == NO_ID) | (owner != NO_ID))
    event_ids = renumber(keep_ev)
    recv_event = np.where(_rows(columns.n_executions, plan.reset_recv),
                          NO_ID, follow(columns.ex_recv, event_ids))
    send = follow(columns.msg_send, event_ids)
    recv = follow(columns.msg_recv, event_ids)
    keep_msg = ~_rows(columns.n_messages, plan.drop_messages) & (
        (recv != NO_ID) | ((columns.msg_recv == NO_ID) & (send != NO_ID)))

    out = columns.take(ex=keep_ex, ev=keep_ev, msg=keep_msg)
    out.ex_start, out.ex_end = start[keep_ex], end[keep_ex]
    out.ex_recv = recv_event[keep_ex]
    out.ev_exec = owner[keep_ev]
    out.msg_send, out.msg_recv = send[keep_msg], recv[keep_msg]
    return derived_trace(trace, out)


def repair_trace(
    trace: Trace, mode: str = "fix", max_rounds: int = MAX_ROUNDS
) -> Tuple[Trace, RepairReport]:
    """Detect (and in ``"fix"`` mode repair) trace defects.

    Returns ``(trace, report)``.  ``"off"`` returns the input untouched
    with an empty report; ``"warn"`` detects and reports but never
    modifies; ``"fix"`` iterates detect→repair→re-detect until the trace
    is clean or no safe action remains, then reports what is left as
    :attr:`RepairReport.residual`.  A clean input is returned unchanged
    (``report.changed`` is False) — repair never perturbs good traces.
    """
    if mode not in REPAIR_MODES:
        raise TraceRepairError(
            f"unknown repair mode {mode!r}; expected one of {REPAIR_MODES}"
        )
    report = RepairReport(mode=mode)
    if mode == "off":
        return trace, report

    report.detected = detect_defects(trace)
    if mode == "warn" or not report.detected:
        return trace, report

    current = trace
    for _ in range(max_rounds):
        problems = collect_trace_problems(current)
        if not problems and not _orphan_events(current):
            break
        plan = _build_plan(current, problems, report.repaired)
        if plan.empty():
            break  # nothing safe left to do
        report.rounds += 1
        if plan.synchronize:
            from repro.trace.clocksync import synchronize_trace

            current, _ = synchronize_trace(current)
        else:
            current = _apply_plan(current, plan)
        report.changed = True
    report.residual = detect_defects(current)
    return current, report


def warn_on_defects(report: RepairReport, stacklevel: int = 2) -> None:
    """Emit the standard ``RuntimeWarning`` for a dirty ``warn``-mode run."""
    if not report.clean and report.mode == "warn":
        warnings.warn(
            f"trace defects detected (repair='warn'): {report.summary()}",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
