"""Fault injection: derive corrupted variants of any trace.

Real campaign data is messy in ways the simulators never are — logs cut
off mid-write, tracers drop or double-deliver message records, serial
blocks lose their begin/end pairing, per-node clocks drift apart.  This
module turns a well-formed :class:`~repro.trace.model.Trace` into a
corrupted one exhibiting exactly one (or several) of those defects, so
the repair layer (:mod:`repro.trace.repair`), the batch driver, and the
test suite can exercise ingestion against realistic damage instead of
hoping it never happens.

Every injector is deterministic given ``seed`` and derives its result
from the trace's columns (:func:`repro.trace.columns.derived_trace`):
record ids stay dense and message endpoints stay in range, so the
result's indexes build, but the referential and physical invariants
checked by :func:`repro.trace.validate.validate_trace` are deliberately
broken.

Fault kinds (:data:`FAULT_KINDS`):

``truncate``
    Cut the record stream at a time quantile: executions starting after
    the cutoff vanish, as do their events; surviving executions whose
    triggering RECV record was lost keep a *stale* ``recv_event`` id —
    the dangling-reference shape of a log killed mid-write.
``drop_messages``
    Lose a fraction of message records; both endpoints become untraced
    events (legal but structure-degrading — dependencies disappear).
``dup_messages``
    Double-deliver a fraction of complete messages, violating the
    one-message-per-receive invariant (``recv-unique``).
``orphan_recv``
    Lose a fraction of execution records; their dependency events become
    orphans (``execution == NO_ID``) — receives with no serial block.
``negative_duration``
    Corrupt a fraction of executions so ``end`` precedes ``start``
    (a lost/garbled end record), leaving their events outside the span.
``clock_skew``
    Shift every PE's clock by a random offset proportional to the trace
    span, producing receive-before-send violations across PEs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.trace.columns import TraceColumns, derived_trace, follow, renumber
from repro.trace.events import NO_ID
from repro.trace.model import Trace


def _derive(trace: Trace, keep_exec=None, keep_message=None,
            exec_end=None) -> Trace:
    """Derive ``trace`` with the rows the ``keep_*`` masks select (None
    keeps all) and ``exec_end`` as the end column, if given.

    References to dropped or missing records become :data:`NO_ID`: a
    dropped execution leaves its events as orphans.  Messages lose a
    missing send endpoint (orphan receive) but are dropped entirely when
    their receive endpoint is gone, or when both ends are.
    """
    columns = TraceColumns.of(trace)
    if keep_exec is None:
        keep_exec = np.ones(columns.n_executions, bool)
    event_ids = np.arange(columns.n_events)
    send = follow(columns.msg_send, event_ids)
    recv = follow(columns.msg_recv, event_ids)
    keep = (recv != NO_ID) | ((columns.msg_recv == NO_ID) & (send != NO_ID))
    if keep_message is not None:
        keep &= keep_message

    out = columns.take(ex=keep_exec, msg=keep)
    if exec_end is not None:
        out.ex_end = exec_end[keep_exec]
    out.ex_recv = follow(columns.ex_recv, event_ids)[keep_exec]
    out.ev_exec = follow(columns.ev_exec, renumber(keep_exec))
    out.msg_send, out.msg_recv = send[keep], recv[keep]
    return derived_trace(trace, out)


def _sample(rng: random.Random, ids: Sequence[int], severity: float,
            n: int) -> np.ndarray:
    """Mask over ``n`` rows of a random subset of ``ids``: ``severity``
    fraction, at least one."""
    mask = np.zeros(n, bool)
    if ids:
        k = max(1, int(round(len(ids) * min(max(severity, 0.0), 1.0))))
        mask[rng.sample(list(ids), min(k, len(ids)))] = True
    return mask


# ---------------------------------------------------------------------------
# Injectors
# ---------------------------------------------------------------------------
def truncate(trace: Trace, rng: random.Random, severity: float) -> Trace:
    """Cut the serialized record stream at a ``1 - severity`` fraction.

    The on-disk format writes registries, then executions, events,
    messages, and idles (:mod:`repro.trace.writer`); a log killed
    mid-write keeps a prefix of that stream.  Record ids stay dense
    (prefixes of id-ordered lists), but executions whose triggering RECV
    record falls past the cut keep a *dangling* ``recv_event`` id, and
    kept receives lose their message records — the reference damage the
    repair layer exists to clean up.
    """
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

    columns = TraceColumns.of(trace).take(
        ex=slice(k_x), ev=slice(k_e), msg=slice(k_m), idle=slice(k_i))
    # References are kept verbatim: recv_event ids >= k_e now dangle.
    return derived_trace(trace, columns)


def drop_messages(trace: Trace, rng: random.Random, severity: float) -> Trace:
    """Lose a fraction of message records (dependencies go untraced)."""
    n = len(trace.messages)
    return _derive(trace, keep_message=~_sample(rng, list(range(n)),
                                                 severity, n))


def dup_messages(trace: Trace, rng: random.Random, severity: float) -> Trace:
    """Double-deliver a fraction of complete messages (recv reuse)."""
    columns = TraceColumns.of(trace)
    complete = (columns.msg_send != NO_ID) & (columns.msg_recv != NO_ID)
    doubled = _sample(rng, np.flatnonzero(complete).tolist(), severity,
                      columns.n_messages)
    # Nothing is dropped, so every id survives unchanged; each doubled
    # message is followed by one extra copy.
    rows = np.repeat(np.arange(columns.n_messages), 1 + doubled)
    return derived_trace(trace, columns.take(msg=rows))


def orphan_recv(trace: Trace, rng: random.Random, severity: float) -> Trace:
    """Lose a fraction of execution records, orphaning their events."""
    n = len(trace.executions)
    if not n:
        return trace
    return _derive(trace, keep_exec=~_sample(rng, list(range(n)),
                                              severity, n))


def negative_duration(trace: Trace, rng: random.Random,
                      severity: float) -> Trace:
    """Corrupt a fraction of executions so ``end`` precedes ``start``."""
    columns = TraceColumns.of(trace)
    start, end = columns.ex_start, columns.ex_end.copy()
    positive = np.flatnonzero(end > start).tolist()
    corrupted = _sample(rng, positive, severity, columns.n_executions)
    end[corrupted] = start[corrupted] - (end[corrupted] - start[corrupted])
    return _derive(trace, exec_end=end)


def clock_skew(trace: Trace, rng: random.Random, severity: float) -> Trace:
    """Shift each PE's clock by up to ``severity`` of the trace span."""
    from repro.trace.clocksync import apply_clock_skew

    span = max(trace.end_time(), 1.0)
    offsets = [0.0] + [
        rng.uniform(-1.0, 1.0) * severity * span
        for _ in range(max(trace.num_pes - 1, 0))
    ]
    return apply_clock_skew(trace, offsets)


#: Registry of injectors, keyed by the stable fault-kind name.
FAULTS: Dict[str, Callable[[Trace, random.Random, float], Trace]] = {
    "truncate": truncate,
    "drop_messages": drop_messages,
    "dup_messages": dup_messages,
    "orphan_recv": orphan_recv,
    "negative_duration": negative_duration,
    "clock_skew": clock_skew,
}

#: Stable, ordered fault-kind names (the ``repro faults`` choices).
FAULT_KINDS: Tuple[str, ...] = tuple(FAULTS)


def inject_fault(trace: Trace, kind: str, seed: int = 0,
                 severity: float = 0.25) -> Trace:
    """Return a corrupted copy of ``trace`` exhibiting one fault kind."""
    if kind not in FAULTS:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}"
        )
    # String seeding hashes via sha512 — stable across interpreter runs
    # (tuple seeding would go through salted hash()).
    rng = random.Random(f"{seed}:{kind}")
    return FAULTS[kind](trace, rng, severity)


def inject_faults(trace: Trace, kinds: Iterable[str], seed: int = 0,
                  severity: float = 0.25) -> Trace:
    """Apply several fault kinds in sequence (compound damage)."""
    for kind in kinds:
        trace = inject_fault(trace, kind, seed=seed, severity=severity)
    return trace


def fault_corpus(trace: Trace, kinds: Optional[Sequence[str]] = None,
                 seed: int = 0, severity: float = 0.25) -> Dict[str, Trace]:
    """One corrupted variant per fault kind — the standard test corpus."""
    return {
        kind: inject_fault(trace, kind, seed=seed, severity=severity)
        for kind in (kinds if kinds is not None else FAULT_KINDS)
    }
