"""Regression tests for the scoped GC pause and ``initial`` scaling.

The ``initial`` stage's super-linear scaling (ROADMAP item 2) was the
cyclic collector rescanning the whole live trace heap every ~70k
allocations while the block builders churned short-lived objects.  The
fix is :func:`repro.core.gcpause.pause_gc` around the columnar
extraction; these tests pin the pause's scoping semantics, assert that
no collection fires inside a batched extraction, and — under the bench
marker — pin the stage's growth ratio so the quadratic cannot return
unnoticed.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.api import PipelineOptions, PipelineStats, extract
from repro.apps import lulesh
from repro.core.gcpause import pause_gc


# ---------------------------------------------------------------------------
# pause_gc scoping semantics
# ---------------------------------------------------------------------------
def test_pause_disables_and_restores():
    assert gc.isenabled()
    with pause_gc():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_inactive_pause_is_noop():
    assert gc.isenabled()
    with pause_gc(False):
        assert gc.isenabled()
    assert gc.isenabled()


def test_nested_pause_composes():
    with pause_gc():
        with pause_gc():
            assert not gc.isenabled()
        # The inner pause must not re-enable under the outer one.
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_restores_on_exception():
    with pytest.raises(RuntimeError):
        with pause_gc():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_pause_leaves_disabled_collector_alone():
    gc.disable()
    try:
        with pause_gc():
            assert not gc.isenabled()
        # An outer no-GC policy is never overridden.
        assert not gc.isenabled()
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# No full-heap collection may fire inside a batched extraction
# ---------------------------------------------------------------------------
def test_no_full_collections_during_batched_extraction():
    # The quadratic came from older-generation collections rescanning the
    # whole live trace heap once per ~70k allocations.  With the stage
    # executor paused, none may fire during extraction; setup/teardown
    # outside the pause may still trigger a stray young collection.
    trace = lulesh.run_charm(chares=8, pes=4, iterations=2, seed=3)
    collections = []

    def observer(phase, info):
        if phase == "stop":
            collections.append(dict(info))

    gc.collect()  # drain pending garbage so thresholds start fresh
    gc.callbacks.append(observer)
    try:
        extract(trace, PipelineOptions(backend="columnar"))
    finally:
        gc.callbacks.remove(observer)
    assert not [c for c in collections if c["generation"] == 2]
    assert len(collections) <= 3, collections


def test_python_backend_keeps_collector_enabled():
    # The reference backend is the historical behavior — the pause is a
    # columnar-family optimization only.
    trace = lulesh.run_charm(chares=4, pes=2, iterations=1, seed=3)
    states = []

    class Probe:
        def __del__(self):
            states.append(gc.isenabled())

    def run(backend):
        states.clear()
        probe = Probe()  # noqa: F841 - dies during extraction teardown
        del probe
        extract(trace, PipelineOptions(backend=backend))
        return gc.isenabled()

    assert run("python") is True
    assert run("columnar") is True  # restored after the pause


# ---------------------------------------------------------------------------
# Growth-ratio pin: initial must stay near-linear in events
# ---------------------------------------------------------------------------
@pytest.mark.bench
def test_initial_stage_scales_near_linearly():
    def initial_seconds(iterations):
        trace = lulesh.run_charm(chares=64, pes=8, iterations=iterations,
                                 seed=3)
        best = float("inf")
        for _ in range(3):
            stats = PipelineStats()
            t0 = time.perf_counter()
            extract(trace, PipelineOptions(backend="columnar"), stats=stats)
            del t0
            best = min(best, stats.stage_seconds["initial"])
        return best, len(trace.events)

    small_s, small_n = initial_seconds(2)
    big_s, big_n = initial_seconds(8)
    event_ratio = big_n / small_n  # ~4x
    assert event_ratio > 3.0
    # Linear scaling would give time_ratio ~= event_ratio; the historical
    # GC quadratic gave ~= event_ratio**2.  Pin the geometric midpoint,
    # leaving generous room for container timing noise.
    assert big_s / max(small_s, 1e-9) < event_ratio ** 1.5, (
        f"initial grew {big_s / small_s:.1f}x for {event_ratio:.1f}x events"
    )
