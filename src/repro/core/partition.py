"""Partition-graph state shared by all phase-finding stages.

Merging is central to the algorithm, so partitions are represented by a
union-find structure over the *initial* partitions (Section 3.1.1):

* a merge is a union — O(α) amortized;
* the current partition of an event is ``find(initial partition of event)``;
* the structural relationships computed once at the start (message edges,
  within-serial-block adjacency, SDAG-inferred edges) stay expressed at the
  initial-partition level and are re-rooted on demand when a stage needs
  the contracted partition graph.

This keeps each stage near linear in events + edges, matching the paper's
complexity discussion (Section 3.3).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Sequence, Set, Tuple


class EdgeKind(IntEnum):
    """Provenance of a partition-graph edge."""

    #: Matched remote-invocation endpoints (Section 3.1.1, edge type 1).
    MESSAGE = 0
    #: Happened-before between split pieces of one serial block (type 2).
    BLOCK = 1
    #: Happened-before inferred from SDAG serial numbering (type 3).
    SDAG = 2
    #: Program order between consecutive events of one process (MPI mode).
    CHAIN = 3
    #: Added by inference/ordering stages (Section 3.1.4).
    INFERRED = 4


class DisjointSets:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True

    def roots_array(self) -> List[int]:
        """Fully path-compressed root per element, in one pass.

        Stages that re-root many edges (adjacency construction) use this
        flat view instead of per-endpoint ``find`` calls.
        """
        return [self.find(i) for i in range(len(self.parent))]


class PartitionState:
    """Mutable state of the phase-finding stage.

    Attributes
    ----------
    init_events:
        Event ids per initial partition, in physical-time order.
    init_runtime:
        Whether each initial partition holds runtime-related dependencies.
    init_block:
        The serial block (see :mod:`repro.core.initial`) each initial
        partition was cut from.
    event_init:
        Initial partition id per event (-1 for events outside any block).
    edges:
        ``(src_init, dst_init, kind)`` triples.  Current-graph edges are
        obtained by rooting both endpoints through :attr:`dsu`.
    """

    def __init__(
        self,
        trace,
        init_events: List[List[int]],
        init_runtime: List[bool],
        init_block: List[int],
        event_init: List[int],
        edges: List[Tuple[int, int, EdgeKind]],
    ):
        self.trace = trace
        self.init_events = init_events
        self.init_runtime = init_runtime
        self.init_block = init_block
        self.event_init = event_init
        self.edges = edges
        self.dsu = DisjointSets(len(init_events))
        # Runtime flag per DSU root: a partition containing any
        # runtime-related dependency is a runtime partition (Section 3.1).
        self._root_runtime = list(init_runtime)

    # ------------------------------------------------------------------
    def find(self, init_pid: int) -> int:
        """Current partition (DSU root) of an initial partition."""
        return self.dsu.find(init_pid)

    def partition_of_event(self, event_id: int) -> int:
        """Current partition of an event (-1 if the event is unpartitioned)."""
        pid = self.event_init[event_id]
        return -1 if pid == -1 else self.dsu.find(pid)

    def is_runtime(self, pid: int) -> bool:
        """Runtime flag of a *current* partition (pass a DSU root)."""
        return self._root_runtime[self.dsu.find(pid)]

    def union(self, a: int, b: int) -> bool:
        """Merge two partitions, combining their runtime flags."""
        ra, rb = self.dsu.find(a), self.dsu.find(b)
        if ra == rb:
            return False
        flag = self._root_runtime[ra] or self._root_runtime[rb]
        self.dsu.union(ra, rb)
        self._root_runtime[self.dsu.find(ra)] = flag
        return True

    def add_edge(self, a: int, b: int, kind: EdgeKind = EdgeKind.INFERRED) -> None:
        """Add a happened-before edge between two (current) partitions.

        Endpoints are stored at the initial level (any member id works:
        future merges re-root it automatically).
        """
        self.edges.append((a, b, kind))

    # ------------------------------------------------------------------
    # Derived views of the current contracted graph
    # ------------------------------------------------------------------
    def roots(self) -> List[int]:
        """All current partition ids (DSU roots), ascending."""
        return sorted(set(self.dsu.roots_array()))

    def members(self) -> Dict[int, List[int]]:
        """Map current partition -> its initial partitions."""
        out: Dict[int, List[int]] = {}
        for i, root in enumerate(self.dsu.roots_array()):
            out.setdefault(root, []).append(i)
        return out

    def partition_events(self) -> Dict[int, List[int]]:
        """Map current partition -> its event ids (physical-time order)."""
        out: Dict[int, List[int]] = {}
        times = self.trace.events
        for root, inits in self.members().items():
            events: List[int] = []
            for i in inits:
                events.extend(self.init_events[i])
            events.sort(key=lambda e: (times[e].time, e))
            out[root] = events
        return out

    def partition_chares(self) -> Dict[int, Set[int]]:
        """Map current partition -> the set of chares with events in it.

        Unlike :meth:`partition_events`, no time-sorting is needed, so this
        walks the raw member lists directly.
        """
        out: Dict[int, Set[int]] = {}
        events = self.trace.events
        roots = self.dsu.roots_array()
        for i, evs in enumerate(self.init_events):
            bucket = out.setdefault(roots[i], set())
            for e in evs:
                bucket.add(events[e].chare)
        return out

    def event_fields(self, evs: Sequence[int], *names: str) -> List[list]:
        """One list per named event field (``kind``, ``chare``, ``pe``,
        ``time``), each holding that field of the events ``evs``."""
        events = self.trace.events
        recs = [events[e] for e in evs]
        return [[getattr(rec, name) for rec in recs] for name in names]

    def adjacency(self) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
        """(successors, predecessors) of the current contracted graph.

        Self-loops (edges inside one partition) are dropped; parallel edges
        are deduplicated.
        """
        roots = self.dsu.roots_array()
        # Dedupe via the dict itself (first occurrence wins) rather than
        # set(roots): keeps the adjacency key order deterministic.
        succs: Dict[int, Set[int]] = {r: set() for r in roots}
        preds: Dict[int, Set[int]] = {r: set() for r in succs}
        for a, b, _kind in self.edges:
            ra, rb = roots[a], roots[b]
            if ra != rb:
                succs[ra].add(rb)
                preds[rb].add(ra)
        return succs, preds

    def edges_by_kind(self, kind: EdgeKind) -> List[Tuple[int, int]]:
        """Current-graph edges of one provenance kind (self-loops dropped)."""
        find = self.dsu.find
        out = []
        for a, b, k in self.edges:
            if k == kind:
                ra, rb = find(a), find(b)
                if ra != rb:
                    out.append((ra, rb))
        return out

    def num_partitions(self) -> int:
        """Number of current partitions."""
        return self.dsu.count
