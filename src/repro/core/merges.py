"""Merge stages: dependency merge, cycle merge, serial-block repair.

These are Algorithms 1 and 2 of the paper plus the strongly-connected-
component *cycle merge* both rely on: a cycle in the partition graph means
no order over those partitions exists, so they must belong to one phase.
Cycle merges are the only place application and runtime partitions may
merge with each other (Section 3.1).

Each stage runs one of two kernels, selected by duck-typing the state so
the stage bodies stay backend-agnostic:

* *batched* — the state exposes ``batch_union_pairs`` (the ``columnar``
  backend's :class:`~repro.core.columnar.ColumnarPartitionState`): the
  candidate pairs are prefiltered vectorized and a whole merge round
  becomes one :func:`repro.core.unionfind.batch_union` pass;
* *python reference* — plain loops over ``state.edges``: the
  differential oracle, and the pipeline's fallback rung, which forces
  it with ``use_fast_path=False`` regardless of the state.

Both produce bit-identical results — the batched kernel replays the
sequential union-by-size decisions exactly (see
:mod:`repro.core.unionfind`).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.initial import InitialStructure
from repro.core.partition import EdgeKind, PartitionState


def _batch_kernel(state: PartitionState, use_fast_path: bool):
    """The state's batched-union entry point, or None for the python loops."""
    if not use_fast_path:
        return None
    return getattr(state, "batch_union_pairs", None)


def cycle_merge(state: PartitionState, *, use_fast_path: bool = True) -> int:
    """Merge every strongly connected component of the partition graph.

    Returns the number of partitions eliminated.  Implemented with an
    iterative Tarjan so deep graphs (long traces) cannot overflow the
    Python recursion limit.
    """
    succs, _preds = state.adjacency()
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    counter = [0]
    components: List[List[int]] = []

    for start in succs:
        if start in index:
            continue
        # Iterative Tarjan: work entries are (node, iterator over succs).
        work = [(start, iter(succs[start]))]
        index[start] = lowlink[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(succs[succ])))
                    advanced = True
                    break
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.append(top)
                    if top == node:
                        break
                if len(comp) > 1:
                    components.append(comp)

    batch = _batch_kernel(state, use_fast_path)
    if batch is not None:
        if not components:
            return 0
        heads: List[int] = []
        others: List[int] = []
        for comp in components:
            head = comp[0]
            for other in comp[1:]:
                heads.append(head)
                others.append(other)
        return batch(heads, others)
    eliminated = 0
    for comp in components:
        head = comp[0]
        for other in comp[1:]:
            if state.union(head, other):
                eliminated += 1
    return eliminated


def dependency_merge(state: PartitionState, *,
                     use_fast_path: bool = True) -> int:
    """Algorithm 1: merge partitions holding matched message endpoints.

    Only same-class (application/application or runtime/runtime) endpoints
    merge here; cross-class invocations — e.g. a ``contribute`` call into a
    reduction manager — remain partition-graph edges.  A cycle merge
    restores the DAG afterwards.
    """
    merged = 0
    batch = _batch_kernel(state, use_fast_path)
    if batch is not None:
        # The same edges in the same order, with the root/class filter
        # evaluated vectorized (classes are constant during this stage —
        # only same-class unions happen here), unioned in one batch pass.
        merged += batch(*state.message_merge_arrays())
    else:
        find = state.dsu.find
        for a, b, kind in list(state.edges):
            if kind != EdgeKind.MESSAGE:
                continue
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if state.is_runtime(ra) == state.is_runtime(rb):
                if state.union(ra, rb):
                    merged += 1
    merged += cycle_merge(state, use_fast_path=use_fast_path)
    return merged


def repair_merge(initial: InitialStructure, *,
                 use_fast_path: bool = True) -> int:
    """Algorithm 2: restore merges lost to application/runtime splitting.

    Two complementary rules, followed by a cycle merge:

    1. *Within-block repair* — adjacent pieces of one serial block that now
       have the same class (only possible after earlier cycle merges
       reclassified one of them) but sit in different partitions are
       rejoined.  Only adjacent pieces are considered: rejoining the outer
       pieces of an app|runtime|app sandwich would force a cycle through
       the middle piece and wrongly collapse the runtime phase into it.
    2. *Cross-chare repair* (Figure 4) — for each partition, directly
       succeeding partitions reached through split-block or SDAG edges
       that come from serial blocks of the same entry method (and share a
       class) are merged with each other; this also implements the
       neighbouring-serial heuristic for control flow passing from one
       multi-chare group to the next.
    """
    state = initial.state
    find = state.dsu.find
    merged = 0
    batch = _batch_kernel(state, use_fast_path)

    # Rule 1: adjacent pieces of each block (the BLOCK edges record the
    # within-serial-block happened-before relationships).
    if batch is not None:
        merged += batch(*state.block_repair_arrays())
    else:
        for a, b, kind in state.edges:
            if kind != EdgeKind.BLOCK:
                continue
            if state.init_block[a] != state.init_block[b]:
                continue
            ra, rb = find(a), find(b)
            if ra != rb and state.is_runtime(ra) == state.is_runtime(rb):
                if state.union(ra, rb):
                    merged += 1

    # Rule 2: group each partition's structural successors by the entry
    # method of the serial block the successor piece came from.
    succ_groups: Dict[Tuple[int, int, bool], List[int]] = {}
    blocks = initial.blocks
    if batch is not None:
        # Same keys in the same scan order; the root snapshot is taken
        # after rule 1 and no unions happen during the scan.
        for ra, entry, cls, rb in zip(*state.structural_succ_columns(blocks)):
            succ_groups.setdefault((ra, entry, cls), []).append(rb)
    else:
        for a, b, kind in state.edges:
            if kind not in (EdgeKind.BLOCK, EdgeKind.SDAG):
                continue
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            entry = blocks[state.init_block[b]].entry
            key = (ra, entry, state.is_runtime(rb))
            succ_groups.setdefault(key, []).append(rb)
    if batch is not None:
        # One (head, other) pair per group member, then a single
        # same-class-gated batch pass.  The kernel re-roots and re-checks
        # classes live, so unions from earlier groups are observed by
        # later ones exactly as in the per-pair loop below.
        heads: List[int] = []
        others: List[int] = []
        for group in succ_groups.values():
            if len(group) < 2:
                continue
            head = group[0]
            for other in group[1:]:
                heads.append(head)
                others.append(other)
        merged += batch(heads, others, same_class_only=True)
    else:
        for group in succ_groups.values():
            if len(group) < 2:
                continue
            head = group[0]
            for other in group[1:]:
                ra, rb = find(head), find(other)
                if ra != rb and state.is_runtime(ra) == state.is_runtime(rb):
                    if state.union(ra, rb):
                        merged += 1

    merged += cycle_merge(state, use_fast_path=use_fast_path)
    return merged
