"""Batched union-find kernels for the merge stages.

The paper's phase finding (Algorithms 1 and 2) is a sequence of *merge
rounds*: each round walks a list of candidate partition pairs and unions
the pairs that still qualify.  The historical implementation performed
one :meth:`~repro.core.partition.PartitionState.union` method call per
candidate — two attribute lookups, two ``find`` calls, and a bounds
check of Python bytecode per pair.  This module collapses a whole round
into one :func:`batch_union` call over flat candidate columns, which is
the merge kernel of the ``columnar`` backend (see
:meth:`repro.core.columnar.ColumnarPartitionState.batch_union_pairs`).

Bit-identity is the design constraint, not an afterthought.  Which
element ends up as a component's *representative* (DSU root) depends on
the exact sequence of unions: union-by-size picks the larger side and
breaks ties toward the first argument, and the roots leak into
downstream dict insertion orders and the phase sort tie-break.  A
fully-vectorized connected-components pass (min-label hooking) would
produce the same *components* but different *representatives*, and the
differential harness would catch the drift immediately.  So the batch
kernel replays the sequential union-by-size decision process exactly —
one tight loop over plain Python lists, with the candidate filtering
(root inequality, class equality) done live inside the loop exactly as
the per-candidate code did it.  The win comes from stripping the
per-candidate interpreter overhead (method dispatch, tuple construction,
repeated ``self`` lookups), not from changing the algorithm.

:func:`connected_components` is the order-free vectorized reference the
property tests compare against: same components, representative-agnostic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


def batch_union(
    parent: List[int],
    size: List[int],
    runtime: List[bool],
    a_ids: Sequence[int],
    b_ids: Sequence[int],
    *,
    same_class_only: bool = False,
) -> int:
    """Union each candidate pair ``(a_ids[i], b_ids[i])`` in order.

    Mutates ``parent``/``size``/``runtime`` in place and returns the
    number of unions performed (pairs whose endpoints were in distinct
    sets and, with ``same_class_only``, whose live root classes agreed).
    The caller owns the set count: ``dsu.count -= batch_union(...)``.

    Semantics are exactly one sequential pass of
    :meth:`repro.core.partition.PartitionState.union` per pair:

    * roots via ``find`` with path compression (path halving — the
      compression style is unobservable, only roots and sizes are);
    * union by size, ties won by the root of ``a_ids[i]``;
    * the winner's ``runtime`` flag becomes the OR of both roots' flags;
    * with ``same_class_only``, a pair whose live roots disagree on the
      runtime flag is skipped (Algorithm 2's class check) — evaluated
      against the *current* roots, so unions earlier in the batch are
      observed by later pairs, exactly like the per-candidate loop.
    """
    tolist = getattr(a_ids, "tolist", None)
    if tolist is not None:
        a_ids = tolist()
    tolist = getattr(b_ids, "tolist", None)
    if tolist is not None:
        b_ids = tolist()
    merged = 0
    for a, b in zip(a_ids, b_ids):
        ra = a
        while parent[ra] != ra:
            parent[ra] = parent[parent[ra]]
            ra = parent[ra]
        rb = b
        while parent[rb] != rb:
            parent[rb] = parent[parent[rb]]
            rb = parent[rb]
        if ra == rb:
            continue
        fa = runtime[ra]
        fb = runtime[rb]
        if same_class_only and fa != fb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        runtime[ra] = fa or fb
        merged += 1
    return merged


class BatchUnionFind:
    """Standalone union-find with the batched kernel and a runtime flag.

    The pipeline states keep their own ``parent``/``size``/``runtime``
    lists and call :func:`batch_union` directly; this class packages the
    same state for tests and for callers outside the pipeline.  Its
    per-element operations mirror :class:`repro.core.partition.DisjointSets`
    so the two are interchangeable in differential tests.
    """

    def __init__(self, n: int, runtime: Optional[Sequence[bool]] = None):
        if runtime is not None and len(runtime) != n:
            raise ValueError("runtime flags must have one entry per element")
        self.parent = list(range(n))
        self.size = [1] * n
        self.runtime = list(runtime) if runtime is not None else [False] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int, *, same_class_only: bool = False) -> bool:
        """Single-pair form of :func:`batch_union`; True if merged."""
        return self.batch_union([a], [b], same_class_only=same_class_only) == 1

    def batch_union(self, a_ids: Sequence[int], b_ids: Sequence[int], *,
                    same_class_only: bool = False) -> int:
        merged = batch_union(self.parent, self.size, self.runtime,
                             a_ids, b_ids, same_class_only=same_class_only)
        self.count -= merged
        return merged

    def roots_array(self) -> List[int]:
        return [self.find(i) for i in range(len(self.parent))]


def roots_numpy(parent: Sequence[int]):
    """Fully-rooted parent array by pointer jumping (no mutation).

    The array twin of calling ``find`` per element; requires NumPy.
    """
    arr = np.asarray(parent, np.int64)
    while True:
        grand = arr[arr]
        if np.array_equal(grand, arr):
            return arr
        arr = grand


def connected_components(n: int, a_ids: Sequence[int], b_ids: Sequence[int]):
    """Min-label connected components over the given edges (NumPy).

    Returns an ``int64`` array labelling each element with the smallest
    element id of its component.  Independent of edge order and of any
    union sequencing — the representative-agnostic reference the
    property tests compare :func:`batch_union` results against.
    """
    label = np.arange(n, dtype=np.int64)
    a = np.asarray(a_ids, np.int64)
    b = np.asarray(b_ids, np.int64)
    if len(a) != len(b):
        raise ValueError("edge endpoint arrays must have equal length")
    if not len(a):
        return label
    while True:
        before = label
        lo = np.minimum(label[a], label[b])
        label = label.copy()
        np.minimum.at(label, a, lo)
        np.minimum.at(label, b, lo)
        while True:  # full shortcut: every label points at a fixed point
            hop = label[label]
            if np.array_equal(hop, label):
                break
            label = hop
        if np.array_equal(label, before):
            return label
