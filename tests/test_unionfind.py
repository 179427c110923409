"""Property battery for the batched union-find merge kernel.

:func:`repro.core.unionfind.batch_union` promises *bit-identity* with a
sequential per-candidate pass of union-by-size (the semantics of
:class:`repro.core.partition.DisjointSets` plus the runtime-flag OR of
:meth:`repro.core.partition.PartitionState.union`).  Bit-identity is
load-bearing: DSU representatives leak into downstream dict orders and
the phase sort tie-break, so "same components" is not enough — the tests
here pin representatives, sizes, flags, and counts, not just membership.

The membership-level properties (batch-order commutativity, component
counts) are checked against :func:`connected_components`, the order-free
vectorized reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import DisjointSets
from repro.core.unionfind import (
    BatchUnionFind,
    batch_union,
    connected_components,
    roots_numpy,
)

pytestmark = pytest.mark.verify


# ---------------------------------------------------------------------------
# Strategies: a universe size, candidate pairs over it, and runtime flags
# ---------------------------------------------------------------------------
@st.composite
def union_problems(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=120,
    ))
    runtime = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, pairs, runtime


def sequential_reference(n, pairs, runtime, *, same_class_only=False):
    """One :class:`DisjointSets` union per pair, flags OR'd like
    :meth:`PartitionState.union` — the per-candidate code the batch
    kernel replaced."""
    dsu = DisjointSets(n)
    flags = list(runtime)
    merged = 0
    for a, b in pairs:
        ra, rb = dsu.find(a), dsu.find(b)
        if ra == rb:
            continue
        fa, fb = flags[ra], flags[rb]
        if same_class_only and fa != fb:
            continue
        dsu.union(ra, rb)
        flags[dsu.find(ra)] = fa or fb
        merged += 1
    return dsu, flags, merged


def run_batch(n, pairs, runtime, *, same_class_only=False):
    parent = list(range(n))
    size = [1] * n
    flags = list(runtime)
    merged = batch_union(parent, size, flags,
                         [a for a, _ in pairs], [b for _, b in pairs],
                         same_class_only=same_class_only)
    return parent, size, flags, merged


def membership(roots):
    """Representative-agnostic view: the set of component member-sets."""
    comps = {}
    for i, r in enumerate(roots):
        comps.setdefault(r, set()).add(i)
    return frozenset(frozenset(m) for m in comps.values())


# ---------------------------------------------------------------------------
# Bit-identity against the sequential per-candidate pass
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(union_problems(), st.booleans())
def test_batch_matches_sequential_bit_for_bit(problem, same_class_only):
    n, pairs, runtime = problem
    dsu, ref_flags, ref_merged = sequential_reference(
        n, pairs, runtime, same_class_only=same_class_only)
    parent, size, flags, merged = run_batch(
        n, pairs, runtime, same_class_only=same_class_only)

    assert merged == ref_merged
    # Identical representatives, not just identical components.
    batch_roots = _roots_of(parent)
    ref_roots = dsu.roots_array()
    assert batch_roots == ref_roots
    for r in set(ref_roots):
        assert size[r] == dsu.size[r]
        assert flags[r] == ref_flags[r]


@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_runtime_flag_is_or_of_members(problem):
    n, pairs, runtime = problem
    parent, _size, flags, _merged = run_batch(n, pairs, runtime)
    roots = _roots_of(parent)
    for comp in membership(roots):
        root = roots[next(iter(comp))]
        assert flags[root] == any(runtime[i] for i in comp)


@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_same_class_only_never_mixes_classes(problem):
    n, pairs, runtime = problem
    parent, _size, _flags, _merged = run_batch(
        n, pairs, runtime, same_class_only=True)
    for comp in membership(_roots_of(parent)):
        classes = {runtime[i] for i in comp}
        assert len(classes) == 1


# ---------------------------------------------------------------------------
# Idempotence and count bookkeeping
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_replaying_a_batch_is_idempotent(problem):
    n, pairs, runtime = problem
    parent, size, flags, merged = run_batch(n, pairs, runtime)
    snapshot = (_roots_of(parent), list(size), list(flags))
    again = batch_union(parent, size, flags,
                        [a for a, _ in pairs], [b for _, b in pairs])
    assert again == 0
    assert (_roots_of(parent), size, flags) == snapshot
    assert merged == n - len(set(_roots_of(parent)))


@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_merged_count_matches_component_count(problem):
    n, pairs, runtime = problem
    uf = BatchUnionFind(n, runtime)
    uf.batch_union([a for a, _ in pairs], [b for _, b in pairs])
    assert uf.count == len(set(uf.roots_array()))
    assert uf.count == len(membership(uf.roots_array()))


# ---------------------------------------------------------------------------
# Batch-order commutativity (membership level) and the vectorized reference
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(union_problems(), st.integers(0, 2**16))
def test_shuffled_batches_reach_the_same_partition(problem, seed):
    n, pairs, runtime = problem
    baseline = membership(_roots_of(run_batch(n, pairs, runtime)[0]))
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    assert membership(_roots_of(run_batch(n, shuffled, runtime)[0])) == baseline


@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_components_match_minlabel_reference(problem):
    n, pairs, runtime = problem
    parent, _size, _flags, merged = run_batch(n, pairs, runtime)
    labels = connected_components(
        n, [a for a, _ in pairs], [b for _, b in pairs])
    assert membership(_roots_of(parent)) == membership(labels.tolist())
    assert n - merged == len(set(labels.tolist()))


@settings(deadline=None, max_examples=60)
@given(union_problems())
def test_roots_numpy_matches_per_element_find(problem):
    n, pairs, runtime = problem
    uf = BatchUnionFind(n, runtime)
    uf.batch_union([a for a, _ in pairs], [b for _, b in pairs])
    assert roots_numpy(uf.parent).tolist() == uf.roots_array()


# ---------------------------------------------------------------------------
# BatchUnionFind packaging: chunked batches and per-pair unions agree
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60)
@given(union_problems(), st.integers(1, 7))
def test_chunked_batches_equal_one_batch(problem, chunk):
    n, pairs, runtime = problem
    whole = BatchUnionFind(n, runtime)
    whole.batch_union([a for a, _ in pairs], [b for _, b in pairs])
    split = BatchUnionFind(n, runtime)
    for i in range(0, len(pairs), chunk):
        part = pairs[i:i + chunk]
        split.batch_union([a for a, _ in part], [b for _, b in part])
    assert split.parent == whole.parent
    assert split.size == whole.size
    assert split.runtime == whole.runtime
    assert split.count == whole.count


@settings(deadline=None, max_examples=60)
@given(union_problems(), st.booleans())
def test_per_pair_union_equals_batch(problem, same_class_only):
    n, pairs, runtime = problem
    whole = BatchUnionFind(n, runtime)
    whole.batch_union([a for a, _ in pairs], [b for _, b in pairs],
                      same_class_only=same_class_only)
    single = BatchUnionFind(n, runtime)
    for a, b in pairs:
        single.union(a, b, same_class_only=same_class_only)
    assert single.parent == whole.parent
    assert single.count == whole.count


def test_numpy_candidate_columns_accepted():
    uf = BatchUnionFind(4)
    merged = uf.batch_union(np.array([0, 2]), np.array([1, 3]))
    assert merged == 2
    assert uf.count == 2


def test_runtime_length_mismatch_rejected():
    with pytest.raises(ValueError):
        BatchUnionFind(3, runtime=[True])


def test_connected_components_rejects_ragged_edges():
    with pytest.raises(ValueError):
        connected_components(3, [0, 1], [2])


# ---------------------------------------------------------------------------
def _roots_of(parent):
    """Root per element without mutating ``parent``."""
    out = []
    for i in range(len(parent)):
        x = i
        while parent[x] != x:
            x = parent[x]
        out.append(x)
    return out
