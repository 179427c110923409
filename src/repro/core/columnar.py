"""Columnar (NumPy) fast-path kernels for the extraction pipeline.

The paper's scaling studies (Figures 18/19, up to 13.8k chares) stress
per-event loops; this module replaces the hot ones with dense-array
kernels while producing *bit-identical* results to the pure-Python code:

* every kernel reads the trace's one column layout,
  :class:`~repro.trace.columns.TraceColumns` (``TraceColumns.of``: a
  chunk-ingested trace's own columns, or columns extracted once from an
  object-backed trace and cached on it); :class:`BlockTable` adds the
  per-event serial-block column derived from the initial structure.
* :func:`build_initial_columnar` — initial partitions via one global
  ``lexsort`` over ``(block, time, id)`` plus vectorized run splitting,
  instead of tens of thousands of tiny per-block sorts.
* :class:`ColumnarPartitionState` — a :class:`PartitionState` whose
  derived views (``roots_array``, ``adjacency``, ``partition_events``,
  ``partition_chares``, ``members``) are computed with array kernels and
  whose merge rounds run as one batched union pass each
  (:meth:`~ColumnarPartitionState.batch_union_pairs`).
* Stage-5 kernels — every phase of the trace in one pass: one
  (phase, time, id) sort; physical, task and message-passing event
  orders (:func:`physical_orders`, :func:`task_orders`,
  :func:`message_passing_orders`), where the task order takes the *w*
  clock as a forest depth by pointer doubling and sorts every serial
  block under one ``lexsort`` of its Figure 7 key written as a padded
  int64 row; and local steps as one segmented running-max fixed point
  (:func:`local_steps`) that hands each unsettled phase back to the
  python implementation on its own.  Plus leap computation
  (:func:`compute_leaps_columnar`) for the phase sort.

Bit-identity is not incidental: downstream stages iterate dicts and sets
whose *insertion order* influences union order in the DSU and therefore
which partition id represents a merged phase.  Every view here replays
the exact insertion sequence of its pure-Python counterpart
(first-occurrence deduplication in the original scan order), which the
differential harness (``repro.verify.differential``) cross-checks.

This is the one production kernel family (``backend="auto"`` selects
it); the pure-Python modules stay as the differential oracle and the
pipeline's fallback rung.
"""

from __future__ import annotations

import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

# NumPy 2's np.unique imports numpy.ma on its first call; importing it
# here keeps each forked ``repro batch`` worker from paying that import
# again for every trace.
import numpy as np
import numpy.ma  # noqa: F401

from repro.core.initial import (
    Block,
    InitialStructure,
    chare_chain_edges,
)
from repro.core.partition import EdgeKind, PartitionState
from repro.core.reorder import MAX_KEY_DEPTH
from repro.core.unionfind import batch_union
from repro.trace.columns import TraceColumns
from repro.trace.events import EventKind
from repro.trace.model import Trace

#: Fixed-point rounds before :func:`local_steps` hands a phase that is
#: still moving back to the python Kahn implementation (deep message
#: chains / cycles).
MAX_STEP_ROUNDS = 80


class BlockTable:
    """Dense per-event serial-block column for the stage-5 kernels."""

    __slots__ = ("block_of_event", "n_blocks")

    def __init__(self, block_of_event, n_blocks: int):
        self.block_of_event = block_of_event
        self.n_blocks = n_blocks


class LazyIntList:
    """Immutable ``List[int]`` facade over one int64 array.

    Million-event traces keep several per-event id maps alive for the
    lifetime of the result object (``event_init``, ``block_of_event``,
    ...); as python lists those cost ~30 bytes per element.  This view
    keeps the 8-byte column and materializes python ints only at the
    accessed positions.  Compares elementwise against real lists so
    differential tests see equal structures across backends.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr):
        self._arr = arr

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._arr[i].tolist()
        return int(self._arr[i])

    def __iter__(self):
        return iter(self._arr.tolist())

    def __eq__(self, other):
        if isinstance(other, LazyIntList):
            return np.array_equal(self._arr, other._arr)
        if isinstance(other, (list, tuple)):
            return (len(other) == len(self._arr)
                    and self._arr.tolist() == list(other))
        return NotImplemented

    __hash__ = None  # mutable-sequence semantics, like list

    def __array__(self, dtype=None):
        return self._arr if dtype is None else self._arr.astype(dtype)

    def __repr__(self) -> str:
        return f"LazyIntList({self._arr.tolist()!r})"

    def __getstate__(self):
        return self._arr

    def __setstate__(self, arr):
        self._arr = arr


class LazyIntListOfLists:
    """Immutable ``List[List[int]]`` facade over flat + offset arrays.

    Backs ``init_events`` (event ids per initial partition): one shared
    flat id array plus per-partition ``[start, end)`` bounds, instead of
    hundreds of thousands of small python lists.
    """

    __slots__ = ("_flat", "_starts", "_ends")

    def __init__(self, flat, starts, ends):
        self._flat = flat
        self._starts = starts
        self._ends = ends

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        s, e = self._starts[i], self._ends[i]
        return self._flat[s:e].tolist()

    def __iter__(self):
        flat = self._flat.tolist()
        for s, e in zip(self._starts.tolist(), self._ends.tolist()):
            yield flat[s:e]

    def __eq__(self, other):
        if isinstance(other, (LazyIntListOfLists, list, tuple)):
            return (len(other) == len(self)
                    and all(a == b for a, b in zip(self, other)))
        return NotImplemented

    __hash__ = None

    def __getstate__(self):
        return self._flat, self._starts, self._ends

    def __setstate__(self, state):
        self._flat, self._starts, self._ends = state


class EdgeList:
    """Append-only ``(src, dst, kind)`` edge log stored as int64 columns.

    List-compatible for the shared stage code (append / extend / len /
    indexing / iteration yield the same tuples, with ``kind`` revived as
    :class:`EdgeKind`), but 24 bytes per edge instead of ~120 for a
    tuple, and the columnar fast paths read the backing arrays without
    the list→array resync the previous implementation needed.
    """

    __slots__ = ("_src", "_dst", "_kind", "n")

    def __init__(self):
        self._src = np.empty(1024, np.int64)
        self._dst = np.empty(1024, np.int64)
        self._kind = np.empty(1024, np.int64)
        self.n = 0

    @classmethod
    def from_triples(cls, triples) -> "EdgeList":
        out = cls()
        out.extend(triples)
        return out

    def _reserve(self, need: int) -> None:
        cap = len(self._src)
        if need <= cap:
            return
        cap = max(cap * 2, need)
        for name in ("_src", "_dst", "_kind"):
            old = getattr(self, name)
            grown = np.empty(cap, np.int64)
            grown[:self.n] = old[:self.n]
            setattr(self, name, grown)

    def append(self, edge) -> None:
        a, b, k = edge
        n = self.n
        self._reserve(n + 1)
        self._src[n] = a
        self._dst[n] = b
        self._kind[n] = int(k)
        self.n = n + 1

    def extend(self, triples) -> None:
        for edge in triples:
            self.append(edge)

    def extend_columns(self, src, dst, kind: int) -> None:
        """Bulk append of parallel endpoint arrays with one edge kind."""
        k = len(src)
        if not k:
            return
        n = self.n
        self._reserve(n + k)
        self._src[n:n + k] = src
        self._dst[n:n + k] = dst
        self._kind[n:n + k] = int(kind)
        self.n = n + k

    def arrays(self):
        """(src, dst, kind) as trimmed array views — always in sync."""
        n = self.n
        return self._src[:n], self._dst[:n], self._kind[:n]

    def __len__(self) -> int:
        return self.n

    def _tuple(self, i: int):
        return (int(self._src[i]), int(self._dst[i]),
                EdgeKind(int(self._kind[i])))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._tuple(j) for j in range(*i.indices(self.n))]
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self._tuple(i)

    def __iter__(self):
        n = self.n
        kinds = [EdgeKind(k) for k in self._kind[:n].tolist()]
        return iter(list(zip(self._src[:n].tolist(),
                             self._dst[:n].tolist(), kinds)))

    def __eq__(self, other):
        if isinstance(other, (EdgeList, list, tuple)):
            return (len(other) == self.n
                    and all(a == b for a, b in zip(self, other)))
        return NotImplemented

    __hash__ = None

    def __getstate__(self):
        src, dst, kind = self.arrays()
        return src.copy(), dst.copy(), kind.copy()

    def __setstate__(self, state):
        self._src, self._dst, self._kind = [np.ascontiguousarray(a)
                                            for a in state]
        self.n = len(self._src)


class LazyBlockList:
    """Immutable ``List[Block]`` facade over per-block columns.

    Serial-block metadata lives in seven scalar arrays plus shared flat
    event/execution id arrays with per-block bounds; :class:`Block`
    objects (with real list fields, equal to the python backend's) are
    materialized only for the indices actually touched.  For a
    million-event trace this replaces ~450 MB of Block objects and
    per-block lists with ~50 MB of columns.
    """

    __slots__ = ("chare", "pe", "start", "end", "entry", "recv_event",
                 "sdag_ordinal", "_ev_flat", "_ev_lo", "_ev_hi",
                 "_x_flat", "_x_lo", "_x_hi")

    def __init__(self, *, chare, pe, start, end, entry, recv_event,
                 sdag_ordinal, ev_flat, ev_lo, ev_hi, x_flat, x_lo, x_hi):
        self.chare = chare
        self.pe = pe
        self.start = start
        self.end = end
        self.entry = entry
        self.recv_event = recv_event
        self.sdag_ordinal = sdag_ordinal
        self._ev_flat = ev_flat
        self._ev_lo = ev_lo
        self._ev_hi = ev_hi
        self._x_flat = x_flat
        self._x_lo = x_lo
        self._x_hi = x_hi

    def __len__(self) -> int:
        return len(self.chare)

    def _make(self, i: int) -> Block:
        b = Block.__new__(Block)
        b.__dict__ = {
            "id": i,
            "chare": int(self.chare[i]),
            "pe": int(self.pe[i]),
            "executions": self._x_flat[self._x_lo[i]:self._x_hi[i]].tolist(),
            "events": self._ev_flat[self._ev_lo[i]:self._ev_hi[i]].tolist(),
            "start": float(self.start[i]),
            "end": float(self.end[i]),
            "sdag_ordinal": int(self.sdag_ordinal[i]),
            "entry": int(self.entry[i]),
            "recv_event": int(self.recv_event[i]),
        }
        return b

    def __getitem__(self, i):
        n = len(self.chare)
        if isinstance(i, slice):
            return [self._make(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self._make(i)

    def __iter__(self):
        for i in range(len(self.chare)):
            yield self._make(i)

    def __eq__(self, other):
        if isinstance(other, (LazyBlockList, list, tuple)):
            return (len(other) == len(self)
                    and all(a == b for a, b in zip(self, other)))
        return NotImplemented

    __hash__ = None

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


def runtime_related_array(trace: Trace, cols: TraceColumns):
    """Vectorized :meth:`Trace.runtime_related_flags`."""
    runtime_chare = np.fromiter(
        (c.is_runtime for c in trace.chares), np.bool_, len(trace.chares)
    )
    flags = runtime_chare[cols.ev_chare] if cols.n_events else np.zeros(0, np.bool_)
    complete = (cols.msg_send >= 0) & (cols.msg_recv >= 0)
    send = cols.msg_send[complete]
    recv = cols.msg_recv[complete]
    flags[recv[runtime_chare[cols.ev_chare[send]]]] = True
    flags[send[runtime_chare[cols.ev_chare[recv]]]] = True
    return flags


class ColumnarPartitionState(PartitionState):
    """Partition state with array-kernel derived views and merge rounds.

    The union-find, edge list, and every per-pair mutation path are
    inherited, so the inference stages run the same code as the python
    backend and observe identical dict/set orders.  The presence of
    :meth:`batch_union_pairs` is what switches :mod:`repro.core.merges`
    onto the batched kernel: the stage bodies stay backend-agnostic and
    duck-type the state.
    """

    #: Attributes derived from the trace and ``event_init_arr``.  A
    #: pickled state leaves them out, as it does the adjacency cache;
    #: the restored state recomputes them on first use.
    _DERIVED = frozenset({"_flat_events", "_flat_init", "_flat_time",
                          "_flat_chare"})

    def __init__(self, trace, init_events, init_runtime, init_block, event_init,
                 edges, event_init_arr=None):
        super().__init__(trace, init_events, init_runtime, init_block,
                         event_init, edges)
        if not isinstance(self.edges, EdgeList):
            self.edges = EdgeList.from_triples(self.edges)
        if event_init_arr is None:
            event_init_arr = (
                np.asarray(event_init, np.int64)
                if len(event_init) else np.empty(0, np.int64)
            )
        self.event_init_arr = event_init_arr
        self._flatten()
        self._init_block_arr = (
            np.asarray(init_block, np.int64) if len(init_block)
            else np.empty(0, np.int64)
        )
        self.block_table: Optional[BlockTable] = None
        self._adj_cache = None

    def _flatten(self) -> None:
        # Partitioned events flattened in (initial partition, time, id)
        # order — exactly the concatenation order of ``init_events``.
        cols = TraceColumns.of(self.trace)
        evs = np.flatnonzero(self.event_init_arr >= 0)
        init_of = self.event_init_arr[evs]
        order = np.lexsort((evs, cols.ev_time[evs], init_of))
        self._flat_events = evs[order]
        self._flat_init = init_of[order]
        self._flat_time = cols.ev_time[self._flat_events]
        self._flat_chare = cols.ev_chare[self._flat_events]

    def __getstate__(self):
        state = {k: v for k, v in self.__dict__.items()
                 if k not in self._DERIVED}
        state["_adj_cache"] = None
        return state

    def __getattr__(self, name: str):
        # Only reached for a missing attribute: a derived one of a
        # restored state (never during unpickling, which asks for other
        # names before the instance dict is filled).
        if name not in ColumnarPartitionState._DERIVED:
            raise AttributeError(name)
        self._flatten()
        return self.__dict__[name]

    # -- array primitives ----------------------------------------------
    def roots_np(self):
        """Fully-rooted parent array via pointer jumping (no mutation)."""
        parent = np.asarray(self.dsu.parent, np.int64)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand

    def edge_arrays(self):
        """(src, dst, kind) columns of ``self.edges`` (live views)."""
        return self.edges.arrays()

    def _group_perm(self, roots):
        """Unique roots + the permutation putting them in first-occurrence
        (= smallest member initial id) order — the python dict key order."""
        uniq, first = np.unique(roots, return_index=True)
        return uniq, np.argsort(first)

    # -- derived views (bit-identical overrides) ------------------------
    def roots_array(self) -> List[int]:
        return self.roots_np().tolist()

    def roots(self) -> List[int]:
        return np.unique(self.roots_np()).tolist()

    def members(self) -> Dict[int, List[int]]:
        roots = self.roots_np()
        if not len(roots):
            return {}
        order = np.argsort(roots, kind="stable")
        sorted_roots = roots[order]
        starts = np.flatnonzero(np.r_[True, sorted_roots[1:] != sorted_roots[:-1]])
        ends = np.r_[starts[1:], len(order)]
        # Stable sort => the first element of each group is its smallest
        # member id; groups ordered by it reproduce setdefault key order.
        perm = np.argsort(order[starts])
        order_list = order.tolist()
        out: Dict[int, List[int]] = {}
        for gi in perm.tolist():
            s, e = int(starts[gi]), int(ends[gi])
            out[int(sorted_roots[s])] = order_list[s:e]
        return out

    def partition_events(self) -> Dict[int, List[int]]:
        roots = self.roots_np()
        if not len(roots):
            return {}
        uniq, perm = self._group_perm(roots)
        ev_root = roots[self._flat_init]
        order = np.lexsort((self._flat_events, self._flat_time, ev_root))
        r_sorted = ev_root[order]
        e_sorted = self._flat_events[order].tolist()
        starts = np.flatnonzero(np.r_[True, r_sorted[1:] != r_sorted[:-1]])
        ends = np.r_[starts[1:], len(order)]
        # Groups come out ascending by root value — the same order as
        # ``uniq`` — so group i belongs to uniq[present[i]].
        present = np.searchsorted(uniq, r_sorted[starts])
        slices = {}
        for gi, s, e in zip(present.tolist(), starts.tolist(), ends.tolist()):
            slices[gi] = (s, e)
        out: Dict[int, List[int]] = {}
        for gi in perm.tolist():
            se = slices.get(gi)
            out[int(uniq[gi])] = e_sorted[se[0]:se[1]] if se else []
        return out

    def partition_chares(self) -> Dict[int, Set[int]]:
        roots = self.roots_np()
        if not len(roots):
            return {}
        uniq, perm = self._group_perm(roots)
        out: Dict[int, Set[int]] = {int(uniq[gi]): set() for gi in perm.tolist()}
        if len(self._flat_events):
            ev_root = roots[self._flat_init]
            n_chares = max(len(self.trace.chares), 1)
            pair = ev_root * n_chares + self._flat_chare
            _, first = np.unique(pair, return_index=True)
            first.sort()  # chronological first occurrence per (root, chare)
            for r, c in zip(ev_root[first].tolist(),
                            self._flat_chare[first].tolist()):
                out[r].add(c)
        return out

    def initial_events_by_chare(self) -> Dict[int, Dict[int, int]]:
        """Vectorized ``inference.partition_initial_events``."""
        roots = self.roots_np()
        if not len(roots):
            return {}
        uniq, perm = self._group_perm(roots)
        out: Dict[int, Dict[int, int]] = {int(uniq[gi]): {} for gi in perm.tolist()}
        if len(self._flat_events):
            ev_root = roots[self._flat_init]
            order = np.lexsort((self._flat_events, self._flat_time, ev_root))
            n_chares = max(len(self.trace.chares), 1)
            pair = ev_root[order] * n_chares + self._flat_chare[order]
            _, first = np.unique(pair, return_index=True)
            first.sort()  # (root-grouped, time) order => per-root insertion order
            sel = order[first]
            for r, c, e in zip(ev_root[sel].tolist(),
                               self._flat_chare[sel].tolist(),
                               self._flat_events[sel].tolist()):
                out[r][c] = e
        return out

    def event_fields(self, evs: Sequence[int], *names: str) -> List[list]:
        """Column gather of :meth:`PartitionState.event_fields` from the
        ``ev_`` columns: no event record is built (kinds come back as
        ints, times as floats)."""
        cols = TraceColumns.of(self.trace)
        idx = np.asarray(evs, np.int64)
        return [getattr(cols, "ev_" + name)[idx].tolist() for name in names]

    def adjacency(self) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
        # The result is a pure function of (roots, edges).  ``dsu.count``
        # strictly decreases on every union and ``edges`` only grows, so
        # an unchanged (count, edge-count) stamp proves nothing relevant
        # changed since the last call.  All callers treat the returned
        # dicts as read-only (they iterate; cycle_merge unions through
        # the DSU, which bumps the stamp).
        stamp = (self.dsu.count, len(self.edges))
        if self._adj_cache is not None and self._adj_cache[0] == stamp:
            return self._adj_cache[1]
        roots = self.roots_np()
        roots_list = roots.tolist()
        uniq = set(roots_list)
        succs: Dict[int, Set[int]] = {r: set() for r in uniq}
        preds: Dict[int, Set[int]] = {r: set() for r in succs}
        src, dst, _kind = self.edge_arrays()
        ra = roots[src]
        rb = roots[dst]
        keep = ra != rb
        ra = ra[keep]
        rb = rb[keep]
        if len(ra):
            n = max(len(self.init_events), 1)
            pair = ra * n + rb
            _, first = np.unique(pair, return_index=True)
            first.sort()  # first occurrence in edge order = insertion order
            ra = ra[first]
            rb = rb[first]
            # Grouped set construction instead of a per-pair python loop.
            # The stable sort keeps each group's members in edge order, so
            # every set sees the exact insertion sequence the pair loop
            # would produce (int-set iteration order depends on it).
            for keys, vals, out in ((ra, rb, succs), (rb, ra, preds)):
                order = np.argsort(keys, kind="stable")
                ks = keys[order]
                vs = vals[order].tolist()
                starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
                bounds = np.r_[starts, len(ks)].tolist()
                key_list = ks[starts].tolist()
                for i, key in enumerate(key_list):
                    out[key].update(vs[bounds[i]:bounds[i + 1]])
        self._adj_cache = (stamp, (succs, preds))
        return succs, preds

    # -- merge-stage fast paths ----------------------------------------
    def batch_union_pairs(self, a_ids, b_ids, *,
                          same_class_only: bool = False) -> int:
        """One merge round: union candidate pairs in order, return count.

        :func:`repro.core.unionfind.batch_union` replays the sequential
        union-by-size decisions bit-identically, so representative ids,
        dict insertion orders and phase tie-breaks match the python
        reference loops.
        """
        dsu = self.dsu
        merged = batch_union(dsu.parent, dsu.size, self._root_runtime,
                             a_ids, b_ids, same_class_only=same_class_only)
        dsu.count -= merged
        return merged

    def _unmerged_same_class(self, a, b):
        """The ``(a[i], b[i])`` pairs whose partitions differ but share a
        class — the pairs a same-class merge round would union."""
        if not len(a):
            return a, b
        roots = self.roots_np()
        ra = roots[a]
        rb = roots[b]
        cls = np.asarray(self._root_runtime, np.bool_)
        keep = (ra != rb) & (cls[ra] == cls[rb])
        return a[keep], b[keep]

    def message_merge_arrays(self):
        """(src, dst) arrays of the MESSAGE endpoints Algorithm 1 would
        union, in edge order.  Prefiltering against a root snapshot is
        valid because Algorithm 1 only performs same-class unions, so
        partition classes are constant for the duration of the stage."""
        src, dst, kind = self.edge_arrays()
        sel = kind == int(EdgeKind.MESSAGE)
        return self._unmerged_same_class(src[sel], dst[sel])

    def block_repair_arrays(self):
        """(src, dst) arrays for repair rule 1 — BLOCK edges within one
        serial block whose classes re-agree; same static-class argument
        as :meth:`message_merge_arrays`."""
        src, dst, kind = self.edge_arrays()
        sel = kind == int(EdgeKind.BLOCK)
        a = src[sel]
        b = dst[sel]
        same_block = self._init_block_arr[a] == self._init_block_arr[b]
        return self._unmerged_same_class(a[same_block], b[same_block])

    def structural_succ_columns(self, blocks: Sequence[Block]):
        """(root(a), entry-of-b's-block, class(root(b)), root(b)) columns
        for the BLOCK/SDAG edges with distinct roots (repair rule 2)."""
        src, dst, kind = self.edge_arrays()
        sel = (kind == int(EdgeKind.BLOCK)) | (kind == int(EdgeKind.SDAG))
        if not sel.any():
            return [], [], [], []
        a = src[sel]
        b = dst[sel]
        roots = self.roots_np()
        ra = roots[a]
        rb = roots[b]
        keep = ra != rb
        ra = ra[keep]
        rb = rb[keep]
        b = b[keep]
        entry_of_block = (
            blocks.entry if isinstance(blocks, LazyBlockList)
            else np.fromiter((blk.entry for blk in blocks), np.int64,
                             len(blocks))
        )
        entry = entry_of_block[self._init_block_arr[b]]
        cls = np.asarray(self._root_runtime, np.bool_)[rb]
        return ra.tolist(), entry.tolist(), cls.tolist(), rb.tolist()


# ----------------------------------------------------------------------
# Stage 1: initial partitions
# ----------------------------------------------------------------------
def _absorb_flags(serial, pe, start, end, first_positions, absorb_tolerance):
    """Pairwise absorption predicate over one contiguous execution span.

    ``first_positions`` marks each chare's first execution in the span;
    those can never absorb, which also voids the (meaningless) pairwise
    predicate computed across a chare boundary.
    """
    total = len(serial)
    absorb = np.zeros(total, np.bool_)
    if total > 1:
        absorb[1:] = (
            (~serial[:-1]) & serial[1:] & (pe[1:] == pe[:-1])
            & (np.abs(start[1:] - end[:-1]) <= absorb_tolerance)
        )
    if total:
        absorb[first_positions] = False
    return absorb


def _scan_serial_blocks_columnar(trace: Trace, absorb_tolerance: float):
    """Vectorized :func:`repro.core.initial.scan_serial_blocks`.

    The absorption decision depends only on the (previous, current)
    execution pair — never on accumulated group state — so the per-chare
    scan reduces to pairwise boundary predicates.  Returns
    ``(block_of_exec_arr, xid_arr, group_starts, serial_seq)`` — group
    ``i`` owns the execution ids
    ``xid_arr[group_starts[i]:group_starts[i+1]]``; the differential
    harness cross-checks the grouping against the python scan.
    """
    cols = TraceColumns.of(trace)
    by_chare = trace.executions_by_chare
    xids = [xid for lst in by_chare.values() for xid in lst]
    total = len(xids)
    if total == 0:
        empty = np.empty(0, np.int64)
        return (np.full(cols.n_executions, -1, np.int64), empty, empty,
                np.empty(0, np.bool_))
    xid_arr = np.asarray(xids, np.int64)
    lens = np.fromiter((len(lst) for lst in by_chare.values()), np.int64,
                       len(by_chare))
    chare_starts = np.r_[0, np.cumsum(lens)[:-1]]
    entry_serial = np.fromiter((e.is_sdag_serial for e in trace.entries),
                               np.bool_, len(trace.entries))
    serial = entry_serial[cols.ex_entry[xid_arr]]
    pe = cols.ex_pe[xid_arr]
    start = cols.ex_start[xid_arr]
    end = cols.ex_end[xid_arr]
    chare_first = chare_starts[chare_starts < total]
    absorb = _absorb_flags(serial, pe, start, end, chare_first,
                           absorb_tolerance)
    starts = np.flatnonzero(~absorb)
    block_of_exec = np.full(cols.n_executions, -1, np.int64)
    block_of_exec[xid_arr] = np.cumsum(~absorb) - 1
    return block_of_exec, xid_arr, starts, serial


def _make_blocks_columnar(trace: Trace, xid_arr, starts, serial_seq,
                          ev_flat, ev_lo, ev_hi):
    """Vectorized :func:`repro.core.initial._make_block` over all groups.

    Returns a :class:`LazyBlockList` — every per-block attribute is a
    dense column; :class:`~repro.core.initial.Block` objects materialize
    only on access.  ``ev_flat``/``ev_lo``/``ev_hi`` carry each block's
    event ids ((time, id)-sorted); execution ids come from ``xid_arr``
    bounded by ``starts``.
    """
    nb = len(starts)
    empty = np.empty(0, np.int64)
    if nb == 0:
        return LazyBlockList(
            chare=empty, pe=empty, start=np.empty(0, np.float64),
            end=np.empty(0, np.float64), entry=empty, recv_event=empty,
            sdag_ordinal=empty, ev_flat=ev_flat, ev_lo=ev_lo, ev_hi=ev_hi,
            x_flat=xid_arr, x_lo=empty, x_hi=empty,
        )
    cols = TraceColumns.of(trace)
    total = len(xid_arr)
    ends = np.r_[starts[1:], total]
    first_x = xid_arr[starts]
    last_x = xid_arr[ends - 1]
    # SDAG ordinal of the group's last serial execution (-1 when none).
    ser_pos = np.where(serial_seq, np.arange(total, dtype=np.int64), -1)
    last_ser = np.maximum.reduceat(ser_pos, starts)
    entry_ordinal = np.fromiter((e.sdag_ordinal for e in trace.entries),
                                np.int64, len(trace.entries))
    ordinal = np.where(
        last_ser >= 0,
        entry_ordinal[cols.ex_entry[xid_arr[np.clip(last_ser, 0, None)]]],
        -1,
    )
    return LazyBlockList(
        chare=cols.ex_chare[first_x], pe=cols.ex_pe[first_x],
        start=cols.ex_start[first_x], end=cols.ex_end[last_x],
        entry=cols.ex_entry[last_x], recv_event=cols.ex_recv[first_x],
        sdag_ordinal=ordinal,
        ev_flat=ev_flat, ev_lo=ev_lo, ev_hi=ev_hi,
        x_flat=xid_arr, x_lo=starts, x_hi=ends,
    )


def _chain_edges_columnar(cols: TraceColumns, mode: str, relaxed_chain: bool,
                          edges, event_init_arr, b_chare, b_start, b_ordinal,
                          present_ids, first_ev, last_ev) -> bool:
    """Columnar :func:`repro.core.initial.chare_chain_edges`.

    Valid only when blocks are already grouped by chare in (start, id)
    order — always true for blocks built by this module, but verified;
    returns False to request the shared python fallback otherwise.  The
    per-chare scans are order-preserving, so the edges land in the same
    sequence the python helper appends them.
    """
    if not len(b_chare):
        return True
    if np.any(b_chare[1:] < b_chare[:-1]):
        return False
    same = b_chare[1:] == b_chare[:-1]
    if np.any(b_start[1:][same] < b_start[:-1][same]):
        return False
    # ``present_ids`` (blocks that own events) are ascending, so a single
    # pass over them is the python helper's per-chare traversal.
    chare_p = b_chare[present_ids].tolist()
    ei_first = event_init_arr[first_ev].tolist()
    ei_last = event_init_arr[last_ev].tolist()
    append = edges.append
    if mode == "mpi":
        pinned = (
            (cols.ev_kind[first_ev] == int(EventKind.SEND))
            | (cols.partner_send[first_ev] < 0)
        ).tolist()
        prev_ei = None
        cur_chare = -1
        for i, c in enumerate(chare_p):
            if c != cur_chare:
                cur_chare = c
                prev_ei = None
            if prev_ei is not None and (not relaxed_chain or pinned[i]):
                append((prev_ei, ei_first[i], EdgeKind.CHAIN))
            prev_ei = ei_last[i]
        return True
    ord_p = b_ordinal[present_ids].tolist()
    last_by_ordinal: Dict[int, int] = {}
    cur_chare = -1
    for i, c in enumerate(chare_p):
        if c != cur_chare:
            cur_chare = c
            last_by_ordinal = {}
        o = ord_p[i]
        if o >= 1:
            prev = last_by_ordinal.get(o - 1)
            if prev is not None:
                append((prev, ei_first[i], EdgeKind.SDAG))
        if o >= 0:
            last_by_ordinal[o] = ei_last[i]
    return True


def _message_edges_columnar(cols: TraceColumns, event_init_arr,
                            edges: "EdgeList") -> None:
    """Vectorized :func:`repro.core.initial.message_edges` (same order)."""
    complete = (cols.msg_send >= 0) & (cols.msg_recv >= 0)
    if not complete.any():
        return
    a = event_init_arr[cols.msg_send[complete]]
    b = event_init_arr[cols.msg_recv[complete]]
    keep = (a != -1) & (b != -1)
    edges.extend_columns(a[keep], b[keep], int(EdgeKind.MESSAGE))


def build_initial_columnar(trace: Trace, mode: str = "charm",
                           absorb_tolerance: float = 1e-9,
                           relaxed_chain: bool = False) -> InitialStructure:
    """Columnar :func:`repro.core.initial.build_initial`.

    The absorption scan, block metadata, per-block event grouping,
    runtime-flag computation and run splitting are vectorized; the
    cross-block SDAG/CHAIN heuristics and message edges run the shared
    python helpers.
    """
    if mode not in ("charm", "mpi"):
        raise ValueError(f"unknown mode {mode!r}")
    cols = TraceColumns.of(trace)
    n = cols.n_events

    block_of_exec_arr, xid_arr, gstarts, serial_seq = (
        _scan_serial_blocks_columnar(trace, absorb_tolerance)
    )
    nb = len(gstarts)

    boe = np.full(n, -1, np.int64)
    if trace.executions and n:
        has_exec = cols.ev_exec >= 0
        boe[has_exec] = block_of_exec_arr[cols.ev_exec[has_exec]]

    # One global (block, time, id) sort replaces the per-block sorts.
    seq = np.lexsort((np.arange(n), cols.ev_time, boe))
    seq = seq[boe[seq] >= 0]
    block_seq = boe[seq]
    if len(seq):
        bstarts = np.flatnonzero(np.r_[True, block_seq[1:] != block_seq[:-1]])
        bends = np.r_[bstarts[1:], len(seq)]
    else:
        bstarts = bends = np.empty(0, np.int64)
    # Per-block [lo, hi) bounds into ``seq`` (blocks without events get
    # the empty [0, 0) range).
    ev_lo = np.zeros(nb, np.int64)
    ev_hi = np.zeros(nb, np.int64)
    present = block_seq[bstarts]
    ev_lo[present] = bstarts
    ev_hi[present] = bends
    blocks = _make_blocks_columnar(trace, xid_arr, gstarts, serial_seq,
                                   seq, ev_lo, ev_hi)

    runtime_related = runtime_related_array(trace, cols)
    rt_seq = runtime_related[seq]
    edges = EdgeList()
    if mode == "charm":
        # Runs of constant runtime-relatedness within each block, in the
        # same traversal order as the python loop (ascending block id,
        # events in (time, id) order).
        if len(seq):
            newblock = np.r_[True, block_seq[1:] != block_seq[:-1]]
            boundary = newblock.copy()
            boundary[1:] |= rt_seq[1:] != rt_seq[:-1]
        else:
            newblock = boundary = np.empty(0, np.bool_)
        pid_seq = np.cumsum(boundary) - 1
        rstarts = np.flatnonzero(boundary)
        rends = np.r_[rstarts[1:], len(seq)]
        init_events = LazyIntListOfLists(seq, rstarts, rends)
        init_runtime = rt_seq[rstarts].tolist()
        init_block = LazyIntList(block_seq[rstarts])
        inner_pids = pid_seq[np.flatnonzero(boundary & ~newblock)]
        edges.extend_columns(inner_pids - 1, inner_pids,
                             int(EdgeKind.BLOCK))
    else:
        # MPI: every event is its own partition, chained within blocks.
        pid_seq = np.arange(len(seq), dtype=np.int64)
        positions = np.arange(len(seq), dtype=np.int64)
        init_events = LazyIntListOfLists(seq, positions, positions + 1)
        init_runtime = rt_seq.tolist()
        init_block = LazyIntList(block_seq)
        if len(seq):
            same = np.flatnonzero(np.r_[False, block_seq[1:] == block_seq[:-1]])
        else:
            same = np.empty(0, np.int64)
        edges.extend_columns(same - 1, same, int(EdgeKind.CHAIN))

    event_init_arr = np.full(n, -1, np.int64)
    event_init_arr[seq] = pid_seq
    event_init = LazyIntList(event_init_arr)

    chained = _chain_edges_columnar(
        cols, mode, relaxed_chain, edges, event_init_arr,
        blocks.chare, blocks.start, blocks.sdag_ordinal,
        present_ids=present, first_ev=seq[bstarts],
        last_ev=seq[bends - 1],
    )
    if not chained:  # ordering assumptions violated: shared python helper
        chare_chain_edges(trace, blocks, event_init, mode, relaxed_chain, edges)
    _message_edges_columnar(cols, event_init_arr, edges)

    state = ColumnarPartitionState(
        trace, init_events, init_runtime, init_block, event_init, edges,
        event_init_arr=event_init_arr,
    )
    state.block_table = BlockTable(boe, len(blocks))
    return InitialStructure(blocks, LazyIntList(boe),
                            LazyIntList(block_of_exec_arr), state)


# ----------------------------------------------------------------------
# Stage 5 kernels: every phase of the trace in one pass
# ----------------------------------------------------------------------
#: Padding of the fixed-width block sort keys.  It is below every key
#: element (w clocks, chare ids, array indices, the -1 of "no invoker"),
#: so a key sorts before every longer key it is a prefix of, exactly as
#: a python tuple does.
KEY_PAD = np.iinfo(np.int64).min


class PhaseOrders(NamedTuple):
    """The per-(phase, chare) event orders of every phase, concatenated.

    Order ``i`` is ``events[starts[i]:starts[i + 1]]``: the events of
    chare ``chare[i]`` in phase ``phase[i]`` (an index into the
    pipeline's phase list).  The orders are laid out in the insertion
    order of the pipeline's ``chare_orders`` dict: phases in turn, and
    within a phase the chares by their first event in (time, id) order.
    """

    events: np.ndarray
    starts: np.ndarray
    phase: np.ndarray
    chare: np.ndarray

    def lists(self) -> List[List[int]]:
        """The orders as python lists, in layout order."""
        flat = self.events.tolist()
        bounds = self.starts.tolist()
        return [flat[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def _no_orders() -> PhaseOrders:
    empty = np.empty(0, np.int64)
    return PhaseOrders(empty, np.zeros(1, np.int64), empty, empty)


def _ranges(starts, lens):
    """Concatenated ``arange(s, s + n)`` over the ``(s, n)`` pairs."""
    offsets = np.cumsum(lens) - lens
    return (np.repeat(starts - offsets, lens)
            + np.arange(int(lens.sum()), dtype=np.int64))


def _new_group(*keys):
    """Flags the positions where any of the (grouped) ``keys`` changes."""
    new = np.ones(len(keys[0]), np.bool_)
    if len(new) > 1:
        new[1:] = False
        for key in keys:
            new[1:] |= key[1:] != key[:-1]
    return new


def _phase_positions(cols: TraceColumns, phase_events: Sequence[Sequence[int]]):
    """Every phase's events sorted by (phase, time, id), and their phases.

    Within a phase this is the (time, id) replay order that every event
    ordering starts from.  The phase column is already in that order.
    """
    sizes = np.fromiter((len(evs) for evs in phase_events), np.int64,
                        len(phase_events))
    if not sizes.sum():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    flat = np.concatenate([np.asarray(evs, np.int64) for evs in phase_events])
    phase = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return flat[np.lexsort((flat, cols.ev_time[flat], phase))], phase


def _in_phase_send(cols: TraceColumns, ordered, phase):
    """Per position of ``ordered``: its matched send's position, or -1.

    Only a receive has one, and only when the send is in the same phase.
    """
    lookup = np.full(cols.n_events, -1, np.int64)
    lookup[ordered] = np.arange(len(ordered), dtype=np.int64)
    partner = cols.partner_send[ordered]
    is_recv = cols.ev_kind[ordered] == int(EventKind.RECV)
    send = np.where(is_recv & (partner >= 0),
                    lookup[np.clip(partner, 0, None)], -1)
    found = np.flatnonzero(send >= 0)
    other = found[phase[send[found]] != phase[found]]
    send[other] = -1
    return send


def _layout(ordered, perm, phase, chare) -> PhaseOrders:
    """:class:`PhaseOrders` from ``perm``, a permutation of positions.

    ``perm`` holds each (phase, chare) order contiguously, sorted by
    (phase, chare); the layout puts the orders in turn by their earliest
    position instead.
    """
    starts = np.flatnonzero(_new_group(phase[perm], chare[perm]))
    lens = np.diff(np.r_[starts, len(perm)])
    by_first = np.argsort(np.minimum.reduceat(perm, starts))
    take = perm[_ranges(starts[by_first], lens[by_first])]
    lead = perm[starts[by_first]]
    return PhaseOrders(ordered[take], np.r_[0, np.cumsum(lens[by_first])],
                       phase[lead], chare[lead])


def physical_orders(cols: TraceColumns,
                    phase_events: Sequence[Sequence[int]]) -> PhaseOrders:
    """Vectorized :func:`repro.core.reorder.physical_order`, every phase."""
    ordered, phase = _phase_positions(cols, phase_events)
    if not len(ordered):
        return _no_orders()
    chare = cols.ev_chare[ordered]
    return _layout(ordered, np.lexsort((chare, phase)), phase, chare)


def message_passing_orders(cols: TraceColumns,
                           phase_events: Sequence[Sequence[int]]) -> PhaseOrders:
    """Vectorized :func:`repro.core.reorder.reordered_order_mp`, every phase.

    A receive's w is its in-phase send's w + 1 when that send came
    earlier, else 0; any other event's w is 1 + the largest w of the
    receives before it on its chare in the phase (0 without one).  Every
    dependency points back in (phase, time, id) order, so one replay
    loop over the whole trace computes the clock; each chare's events
    are then stably sorted by it.
    """
    ordered, phase = _phase_positions(cols, phase_events)
    n = len(ordered)
    if not n:
        return _no_orders()
    chare = cols.ev_chare[ordered]
    perm = np.lexsort((chare, phase))
    new = _new_group(phase[perm], chare[perm])
    bucket = np.empty(n, np.int64)
    bucket[perm] = np.cumsum(new) - 1
    send = _in_phase_send(cols, ordered, phase)
    earlier = np.where(send < np.arange(n), send, -1)
    is_recv = cols.ev_kind[ordered] == int(EventKind.RECV)
    w = [0] * n
    top = [-1] * int(new.sum())  # per (phase, chare): max receive w so far
    for i, (recv, src, b) in enumerate(zip(is_recv.tolist(), earlier.tolist(),
                                           bucket.tolist())):
        if recv:
            value = w[src] + 1 if src >= 0 else 0
            if value > top[b]:
                top[b] = value
        else:
            value = top[b] + 1
        w[i] = value
    by_w = np.lexsort((np.array(w, np.int64), bucket))  # stable: time order
    return _layout(ordered, by_w, phase, chare)


def _forest_depth(parent):
    """Depth of every node of a forest given by parent pointers (-1 = root).

    Pointer doubling: each round adds the depth of the node a pointer
    reaches and doubles its reach.
    """
    depth = (parent >= 0).astype(np.int64)
    jump = parent.copy()
    while True:
        live = np.flatnonzero(jump >= 0)
        if not len(live):
            return depth
        target = jump[live]
        depth[live] += depth[target]
        jump[live] = jump[target]


def _block_keys(w, invoker, nxt, inv_keys: Sequence[Tuple[int, ...]]):
    """Fixed-width Figure 7 sort keys of the block groups, one column each.

    The key of group ``g`` is the flattened tuple ``(w, *invoker key,
    w', *invoker key', ...)`` of ``g`` and then of up to
    :data:`~repro.core.reorder.MAX_KEY_DEPTH` groups reached through
    ``nxt``.  ``invoker[g]`` indexes ``inv_keys`` (-1 when the block has
    no in-phase invoker, whose key is ``(-1,)``).  Row ``j`` of the
    result holds element ``j`` of every key, padded with
    :data:`KEY_PAD`, so comparing columns element by element is python
    tuple comparison, also when invoker keys differ in length.  Key
    elements must be integers (``operator.index``); anything else raises
    instead of being truncated.
    """
    width = max(map(len, inv_keys), default=1)
    table = np.full((len(inv_keys) + 1, width), KEY_PAD, np.int64)
    for c, key in enumerate(inv_keys):
        table[c, :len(key)] = [operator.index(v) for v in key]
    table[-1, 0] = -1
    lens = np.fromiter(map(len, inv_keys), np.int64, len(inv_keys))
    lens = np.r_[lens, 1]
    keys = np.full(((MAX_KEY_DEPTH + 1) * (1 + width), len(w)), KEY_PAD,
                   np.int64)
    rows = np.arange(len(w), dtype=np.int64)
    cur = rows
    col = np.zeros(len(w), np.int64)
    used = 0
    for hop in range(MAX_KEY_DEPTH + 1):
        keys[col, rows] = w[cur]
        inv = invoker[cur]
        klen = lens[inv]
        for j in range(width):
            has = klen > j
            keys[col[has] + 1 + j, rows[has]] = table[inv[has], j]
        col = col + 1 + klen
        used = max(used, int(col.max()))
        step = nxt[cur]
        live = step >= 0
        if hop == MAX_KEY_DEPTH or not live.any():
            break
        rows, cur, col = rows[live], step[live], col[live]
    return keys[:used]


def _block_groups(cols: TraceColumns, ordered, phase, block_of_event):
    """The (phase, serial block) groups of ``ordered`` and their key inputs.

    Returns ``(gperm, gstarts, block, w, nxt, invoker)``: the positions
    grouped, each group in (time, id) order; where each group starts;
    and per group its block, the w clock of its first event, the group
    its key chain hops to, and the chare of its trigger send (-1 for
    none).  The w clock is the depth of the replay forest: an event's
    parent is its matched send when that is in the same phase and
    earlier, else the previous event of its group.  The chain hops to
    the group of the trigger send (an in-phase send, so always in the
    phase) when that is another group.
    """
    n = len(ordered)
    block = block_of_event[ordered]
    gperm = np.lexsort((block, phase))
    gnew = _new_group(phase[gperm], block[gperm])
    gstarts = np.flatnonzero(gnew)
    firstpos = gperm[gstarts]
    group = np.empty(n, np.int64)
    group[gperm] = np.cumsum(gnew) - 1

    prev = np.full(n, -1, np.int64)
    inner = np.flatnonzero(~gnew)
    prev[gperm[inner]] = gperm[inner - 1]
    send = _in_phase_send(cols, ordered, phase)
    earlier = (send >= 0) & (send < np.arange(n))
    w = _forest_depth(np.where(earlier, send, prev))

    g_send = send[firstpos]
    has_send = g_send >= 0
    sender = np.clip(g_send, 0, None)
    g_src = np.where(has_send, group[sender], -1)
    nxt = np.where(has_send & (g_src != np.arange(len(gstarts))), g_src, -1)
    invoker = np.where(has_send, cols.ev_chare[ordered[sender]], -1)
    return gperm, gstarts, block[firstpos], w[firstpos], nxt, invoker


def task_orders(cols: TraceColumns, phase_events: Sequence[Sequence[int]],
                block_of_event,
                inv_keys: Sequence[Tuple[int, ...]]) -> PhaseOrders:
    """Vectorized :func:`repro.core.reorder.reordered_order_task`, every phase.

    ``inv_keys[c]`` is the invoker tie-break tuple for chare ``c``:
    ``(chare.id,)`` for ``tie_break="chare_id"``, or the array index for
    ``"index"``, matching ``invoker_key``.  One ``np.lexsort`` orders
    the serial-block groups of every phase (:func:`_block_groups`): by
    (phase, chare), then the Figure 7 key (:func:`_block_keys`), then
    the first event's time, then the block id.
    """
    ordered, phase = _phase_positions(cols, phase_events)
    n = len(ordered)
    if not n:
        return _no_orders()
    gperm, gstarts, g_block, g_w, nxt, invoker = _block_groups(
        cols, ordered, phase, block_of_event)
    keys = _block_keys(g_w, invoker, nxt, inv_keys)
    first = ordered[gperm[gstarts]]
    chare = cols.ev_chare[ordered]
    sg = np.lexsort((g_block, cols.ev_time[first]) + tuple(keys[::-1])
                    + (cols.ev_chare[first], phase[gperm[gstarts]]))
    glens = np.diff(np.r_[gstarts, n])
    return _layout(ordered, gperm[_ranges(gstarts[sg], glens[sg])], phase,
                   chare)


def local_steps(cols: TraceColumns, orders: PhaseOrders,
                         n_phases: int):
    """Vectorized :func:`repro.core.stepping.assign_local_steps`, every phase.

    Iterates chain relaxation (a segmented running max over the orders)
    and receive relaxation (``step[recv] >= step[send] + 1`` for a send
    in the same phase) to the least fixed point, which equals the Kahn
    longest path.  Phases leave the iteration on their own: a phase
    settles in the first round that leaves it unchanged, and is handed
    back when its largest step exceeds its event count (a dependency
    cycle) or when :data:`MAX_STEP_ROUNDS` rounds do not settle it.

    Returns ``(steps, max_step, unsettled)``: the step of every event of
    ``orders.events``, the largest step of every phase (-1 for an empty
    one), and the indices of the handed-back phases, which need the
    python implementation (their entries in the first two are void).
    """
    events = orders.events
    total = len(events)
    max_step = np.full(n_phases, -1, np.int64)
    if not total:
        return np.empty(0, np.int64), max_step, []
    seg = np.repeat(np.arange(len(orders.phase), dtype=np.int64),
                    np.diff(orders.starts))
    phase = orders.phase[seg]
    send = _in_phase_send(cols, events, phase)
    recv_idx = np.flatnonzero(send >= 0)
    send_idx = send[recv_idx]
    pstart = np.flatnonzero(_new_group(phase))
    psize = np.diff(np.r_[pstart, total])
    pid = phase[pstart]
    all_pstart, all_pid = pstart, pid
    # Segment isolation: a live step never exceeds its phase's event
    # count (a phase leaves once it does), so per-segment offsets of
    # 2*total+4 dominate every value and one running max over the whole
    # array never leaks from one order into the next.
    span = np.int64(2 * total + 4)
    final = np.zeros(total, np.int64)
    live = np.arange(total, dtype=np.int64)
    steps = np.zeros(total, np.int64)
    shift = seg * span - live
    unsettled = []
    for _ in range(MAX_STEP_ROUNDS):
        relaxed = np.maximum.accumulate(steps + shift) - shift
        if len(recv_idx):
            np.maximum.at(relaxed, recv_idx, relaxed[send_idx] + 1)
        moved = np.logical_or.reduceat(relaxed != steps, pstart)
        steps = relaxed
        cyclic = moved & (np.maximum.reduceat(steps, pstart) > psize)
        unsettled.append(pid[cyclic])
        keep = moved & ~cyclic
        if keep.all():
            continue
        settled = np.repeat(~moved, psize)
        final[live[settled]] = steps[settled]
        stay = np.repeat(keep, psize)
        renum = np.cumsum(stay) - 1
        pair = stay[recv_idx]
        recv_idx = renum[recv_idx[pair]]
        send_idx = renum[send_idx[pair]]
        live, steps, seg = live[stay], steps[stay], seg[stay]
        shift = seg * span - np.arange(len(live), dtype=np.int64)
        psize, pid = psize[keep], pid[keep]
        pstart = np.r_[0, np.cumsum(psize)[:-1]]
        if not len(live):
            break
    unsettled.append(pid)  # still moving after MAX_STEP_ROUNDS rounds
    max_step[all_pid] = np.maximum.reduceat(final, all_pstart)
    return final, max_step, sorted(np.concatenate(unsettled).tolist())


def compute_leaps_columnar(state: ColumnarPartitionState) -> Dict[int, int]:
    """Vectorized :func:`repro.core.leaps.compute_leaps`.

    Longest-path depth by Bellman relaxation over the contracted unique
    edges.  Values match the python Kahn pass; the dict *order* differs
    (ascending root id), so use it only where consumers re-sort — the
    pipeline's phase construction does.
    """
    roots = state.roots_np()
    if not len(roots):
        return {}
    uniq, inverse = np.unique(roots, return_inverse=True)
    k = len(uniq)
    src, dst, _kind = state.edge_arrays()
    if len(src):
        es = inverse[src]
        ed = inverse[dst]
        keep = es != ed
        enc = np.unique(es[keep] * np.int64(k) + ed[keep])
        es = enc // k
        ed = enc % k
    else:
        es = ed = np.empty(0, np.int64)
    leap = np.zeros(k, np.int64)
    for _ in range(k + 2):
        relaxed = leap.copy()
        if len(es):
            np.maximum.at(relaxed, ed, leap[es] + 1)
        if np.array_equal(relaxed, leap):
            return dict(zip(uniq.tolist(), leap.tolist()))
        leap = relaxed
    raise ValueError("partition graph contains a cycle; cycle-merge first")
