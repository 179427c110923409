"""Section 3.1.4: orderability enforcement and missing-dependency inference.

Charm++ traces often lack the control dependencies needed to order the
partition DAG (control decisions made inside the runtime are not traced).
This module implements the paper's compensation heuristics:

* :func:`infer_source_dependencies` (Algorithm 3) — physical-time order of
  partition-starting send events per chare becomes happened-before edges.
* :func:`leap_merge` (Algorithm 4) — same-class partitions overlapping in
  chares at the same leap are assumed to be one phase and merged.
* :func:`order_overlapping` — remaining app/runtime (or, with inference
  disabled, any) same-leap overlaps are *ordered* by the physical time of
  their initial sources, enforcing DAG property (1).
* :func:`enforce_chare_paths` (Algorithm 5) — adds edges so every
  partition's successors span its chares, enforcing DAG property (2)
  (Figure 6).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.leaps import compute_leaps, leaps_to_levels
from repro.core.merges import cycle_merge
from repro.core.partition import EdgeKind, PartitionState
from repro.trace.events import EventKind

#: Safety bound on fix-point rounds; real traces converge in a handful.
MAX_ROUNDS = 64


def partition_initial_events(state: PartitionState) -> Dict[int, Dict[int, int]]:
    """First (earliest) event of each partition on each of its chares."""
    fast = getattr(state, "initial_events_by_chare", None)
    if fast is not None:
        return fast()
    out: Dict[int, Dict[int, int]] = {}
    events = state.trace.events
    for root, evs in state.partition_events().items():
        by_chare: Dict[int, int] = {}
        for ev in evs:  # evs are already time-ordered
            chare = events[ev].chare
            if chare not in by_chare:
                by_chare[chare] = ev
        out[root] = by_chare
    return out


def infer_source_dependencies(state: PartitionState) -> int:
    """Algorithm 3: order partitions by their initial source events.

    For each chare, the partition-starting SEND events are sorted by
    physical time; consecutive events in distinct partitions yield
    happened-before edges.  Cycles created by conflicting inferences are
    merged away.
    """
    initial = [(root, chare, ev)
               for root, by_chare in partition_initial_events(state).items()
               for chare, ev in by_chare.items()]
    kinds, times = state.event_fields([ev for _, _, ev in initial],
                                      "kind", "time")
    per_chare: Dict[int, List[Tuple[float, int, int]]] = {}
    for (root, chare, ev), kind, time in zip(initial, kinds, times):
        if kind == EventKind.SEND:
            per_chare.setdefault(chare, []).append((time, ev, root))

    added = 0
    find = state.dsu.find
    for entries in per_chare.values():
        entries.sort()
        for (_, ev_a, root_a), (_, ev_b, root_b) in zip(entries, entries[1:]):
            if find(root_a) != find(root_b):
                state.add_edge(ev_to_init(state, ev_a), ev_to_init(state, ev_b),
                               EdgeKind.INFERRED)
                added += 1
    merged = cycle_merge(state)
    return added + merged


def ev_to_init(state: PartitionState, event_id: int) -> int:
    """Initial partition id of an event (for anchoring added edges)."""
    return state.event_init[event_id]


def leap_merge(state: PartitionState) -> int:
    """Algorithm 4: merge same-class partitions overlapping within a leap.

    Iterates to a fixed point because merging shifts downstream leaps.
    """
    merged_total = 0
    for _round in range(MAX_ROUNDS):
        leaps = compute_leaps(state)
        chares = state.partition_chares()
        find = state.dsu.find
        merged = 0
        for level in leaps_to_levels(leaps):
            rep: Dict[Tuple[int, bool], int] = {}
            for p in level:
                root = find(p)
                cls = state.is_runtime(root)
                for c in chares[p]:
                    key = (c, cls)
                    other = rep.get(key)
                    if other is None:
                        rep[key] = root
                    else:
                        other_root = find(other)
                        root = find(root)
                        if other_root != root:
                            state.union(other_root, root)
                            merged += 1
                            root = find(root)
                        rep[key] = root
        if merged == 0:
            return merged_total
        merged_total += merged + cycle_merge(state)
    raise RuntimeError("leap_merge failed to converge")


def _compare_partitions(
    state: PartitionState,
    init: Dict[int, Dict[int, int]],
    p: int,
    q: int,
) -> Tuple[int, int]:
    """Order two overlapping partitions by initial-source physical time.

    Preference order for the comparison basis (Section 3.1.4): shared
    chares' initial events, then shared processors' earliest events, then
    the partitions' global earliest events.  Returns ``(earlier, later)``.
    """
    p_init, q_init = init[p], init[q]
    p_time, p_pe = state.event_fields(list(p_init.values()), "time", "pe")
    q_time, q_pe = state.event_fields(list(q_init.values()), "time", "pe")
    shared = set(p_init) & set(q_init)
    if shared:
        p_at = dict(zip(p_init, p_time))
        q_at = dict(zip(q_init, q_time))
        tp = min(p_at[c] for c in shared)
        tq = min(q_at[c] for c in shared)
    else:
        p_by_pe: Dict[int, float] = {}
        q_by_pe: Dict[int, float] = {}
        for pe, time in zip(p_pe, p_time):
            p_by_pe[pe] = min(p_by_pe.get(pe, float("inf")), time)
        for pe, time in zip(q_pe, q_time):
            q_by_pe[pe] = min(q_by_pe.get(pe, float("inf")), time)
        shared_pes = set(p_by_pe) & set(q_by_pe)
        if shared_pes:
            tp = min(p_by_pe[pe] for pe in shared_pes)
            tq = min(q_by_pe[pe] for pe in shared_pes)
        else:
            tp = min(p_time)
            tq = min(q_time)
    if (tp, p) <= (tq, q):
        return p, q
    return q, p


def order_overlapping(state: PartitionState, cross_class_only: bool = True) -> int:
    """Enforce DAG property (1) by ordering same-leap chare overlaps.

    With ``cross_class_only=True`` (the normal pipeline, following
    Algorithm 4's merges) only application/runtime overlaps remain and are
    ordered.  With ``False`` (the inference-disabled ablation of
    Figure 17) *all* overlaps are forced into sequence by physical time.
    Ordering edges can conflict with existing structure; cycle merges
    resolve such conflicts by unification, per the paper.
    """
    added_total = 0
    for _round in range(MAX_ROUNDS):
        leaps = compute_leaps(state)
        chares = state.partition_chares()
        init = partition_initial_events(state)
        added = 0
        handled: Set[Tuple[int, int]] = set()
        for level in leaps_to_levels(leaps):
            by_chare: Dict[int, List[int]] = {}
            for p in level:
                for c in chares[p]:
                    by_chare.setdefault(c, []).append(p)
            for plist in by_chare.values():
                if len(plist) < 2:
                    continue
                for i in range(len(plist)):
                    for j in range(i + 1, len(plist)):
                        p, q = plist[i], plist[j]
                        if cross_class_only and state.is_runtime(p) == state.is_runtime(q):
                            # Same-class overlap: Algorithm 4 territory; the
                            # pipeline merges these, so treat as one phase.
                            key = (min(p, q), max(p, q))
                            if key not in handled:
                                handled.add(key)
                                state.union(p, q)
                                added += 1
                            continue
                        key = (min(p, q), max(p, q))
                        if key in handled:
                            continue
                        handled.add(key)
                        earlier, later = _compare_partitions(state, init, p, q)
                        # DSU roots are themselves initial-partition ids,
                        # so they anchor edges directly.
                        state.add_edge(earlier, later, EdgeKind.INFERRED)
                        added += 1
        if added == 0:
            return added_total
        added_total += added
        cycle_merge(state)
    raise RuntimeError("order_overlapping failed to converge")


def enforce_chare_paths(state: PartitionState) -> int:
    """Algorithm 5: make each partition's successors span its chares.

    Works backwards through the leaps, tracking for each chare the nearest
    later leap where it appears; a partition must have a direct edge to
    the partition holding each of its chares *at that nearest leap*
    (Figure 6).  A successor at a further leap does not count: only the
    nearest-leap link chains every chare's partitions into the single path
    through the DAG that makes per-chare step uniqueness hold — accepting
    a further successor would let the skipped partition's steps overlap
    the current one's.  Added edges always point from a lower leap to a
    strictly higher one, so no cycles can arise.
    """
    leaps = compute_leaps(state)
    levels = leaps_to_levels(leaps)
    chares = state.partition_chares()
    succs, _preds = state.adjacency()
    added = 0
    last_map: Dict[int, int] = {}  # chare -> nearest later leap containing it
    for k in range(len(levels) - 1, -1, -1):
        for p in levels[k]:
            # Chares that reappear, grouped by the leap they reappear at.
            needed: Dict[int, Set[int]] = {}
            for c in chares[p]:
                nxt = last_map.get(c)
                if nxt is not None:
                    needed.setdefault(nxt, set()).add(c)
            if not needed:
                continue
            for child in succs[p]:
                want = needed.get(leaps[child])
                if want:
                    want -= chares[child]
            for leap_idx in sorted(needed):
                missing = needed[leap_idx]
                if not missing:
                    continue
                for q in levels[leap_idx]:
                    overlap = missing & chares[q]
                    if overlap:
                        state.add_edge(p, q, EdgeKind.INFERRED)
                        added += 1
                        missing -= overlap
                        if not missing:
                            break
        for p in levels[k]:
            for c in chares[p]:
                last_map[c] = k
    return added
