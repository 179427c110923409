"""Mutation battery for the batched merge rounds.

One claim is load-bearing for the ``columnar`` backend's batched
union-find kernel and deserves adversarial tests rather than just the
happy-path differential: *merge rounds are order-independent at the
membership level.*  The candidate order determines the representatives
(and the batch kernel replays it bit-for-bit), but the fixed-point
*partition of events* must not depend on it — shuffling a round's
candidate columns must reach the same membership partition.
"""

from __future__ import annotations

import random

import pytest

from repro.api import PipelineOptions, extract
from repro.apps import jacobi2d
from repro.core.columnar import build_initial_columnar
from repro.core.merges import dependency_merge, repair_merge


def _trace():
    return jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=7)


def _membership(state):
    """The partition as a set of member-sets — representative-agnostic."""
    return frozenset(frozenset(m) for m in state.members().values())


def _shuffling(columns_fn, seed):
    """Wrap a candidate-columns method to return its pairs shuffled."""
    def shuffled():
        a, b = columns_fn()
        pairs = list(zip(a.tolist(), b.tolist()))
        random.Random(seed).shuffle(pairs)
        return ([x for x, _ in pairs], [y for _, y in pairs])
    return shuffled


# ---------------------------------------------------------------------------
# Shuffled candidate orders: same fixed-point membership partition
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_message_candidates_reach_same_partition(seed):
    trace = _trace()
    baseline = build_initial_columnar(trace)
    dependency_merge(baseline.state)

    mutated = build_initial_columnar(trace)
    mutated.state.message_merge_arrays = _shuffling(
        mutated.state.message_merge_arrays, seed)
    dependency_merge(mutated.state)

    assert _membership(mutated.state) == _membership(baseline.state)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_repair_candidates_reach_same_partition(seed):
    trace = _trace()
    baseline = build_initial_columnar(trace)
    dependency_merge(baseline.state)
    repair_merge(baseline)

    mutated = build_initial_columnar(trace)
    dependency_merge(mutated.state)
    mutated.state.block_repair_arrays = _shuffling(
        mutated.state.block_repair_arrays, seed)
    repair_merge(mutated)

    assert _membership(mutated.state) == _membership(baseline.state)


def test_reversed_candidates_reach_same_partition():
    # The extreme shuffle: process every round's candidates backwards.
    trace = _trace()
    baseline = build_initial_columnar(trace)
    dependency_merge(baseline.state)

    mutated = build_initial_columnar(trace)
    columns_fn = mutated.state.message_merge_arrays

    def reverse():
        a, b = columns_fn()
        return a[::-1], b[::-1]

    mutated.state.message_merge_arrays = reverse
    dependency_merge(mutated.state)
    assert _membership(mutated.state) == _membership(baseline.state)


# ---------------------------------------------------------------------------
# Strict verify mode stays green on the batched merge kernel
# ---------------------------------------------------------------------------
def test_strict_verify_green_on_batched_backend():
    trace = _trace()
    structure = extract(trace, PipelineOptions(
        backend="columnar", verify=True))
    assert structure.max_step >= 0
