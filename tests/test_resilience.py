"""The resilient stage executor: checkpoints, fallbacks, degradation,
resource guards, hook error policy, and crash-safe batch journaling.

Acceptance anchors (ISSUE 4):

* a checkpoint-resumed extraction and a fallback-path extraction are
  bit-identical to an uninterrupted python-reference run;
* ``repro batch --resume`` after a SIGKILL mid-batch completes the
  corpus without re-extracting finished traces;
* a watchdog deadline/RSS breach soft-aborts the stage instead of
  hanging or OOM-killing the process.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import (
    BatchExtractor,
    DegradationReport,
    PipelineOptions,
    PipelineStats,
    RunJournal,
    StructureCache,
    extract,
    extract_logical_structure,
    fault_corpus,
    read_journal,
    repair_trace,
    trace_digest,
    write_trace,
)
from repro.apps import jacobi2d
from repro.batch import options_token
from repro.cli import main
from repro.resilience import (
    ResilientExecutor,
    ResourceGuard,
    StageBreachError,
    StageError,
    StageOutcome,
    StageSpec,
    checkpoint_key,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
)
from repro.verify.invariants import InvariantViolationError

from .helpers import structures_equal

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def trace():
    return jacobi2d.run(chares=(4, 4), pes=4, iterations=3, seed=11)


@pytest.fixture(scope="module")
def reference(trace):
    """Uninterrupted pure-python reference extraction."""
    return extract(trace, backend="python")


# ---------------------------------------------------------------------------
# Executor unit behavior
# ---------------------------------------------------------------------------
def _spec(name, fn, **kw):
    return StageSpec(name, fn, **kw)


def test_executor_runs_stages_in_order():
    seen = []
    ex = ResilientExecutor([
        _spec("a", lambda c: seen.append("a")),
        _spec("b", lambda c: seen.append("b")),
    ])
    report = ex.run({})
    assert seen == ["a", "b"]
    assert [o.stage for o in report.outcomes] == ["a", "b"]
    assert not report.degraded and report.complete


def test_executor_raise_mode_propagates_first_error():
    def boom(ctx):
        raise KeyError("nope")

    ex = ResilientExecutor([
        _spec("a", boom, fallbacks=[("alt", lambda c: None)]),
    ], on_error="raise")
    with pytest.raises(KeyError):
        ex.run({})


def test_executor_fallback_restores_context_before_alternate():
    def primary(ctx):
        ctx["x"] = "halfway"  # mutation that must not leak into the fallback
        raise RuntimeError("primary died")

    def alternate(ctx):
        assert "x" not in ctx
        ctx["x"] = "fallback"

    ex = ResilientExecutor(
        [_spec("s", primary, fallbacks=[("alt", alternate)])],
        on_error="fallback",
    )
    ctx = {}
    report = ex.run(ctx)
    assert ctx["x"] == "fallback"
    out = report.outcome("s")
    assert out.status == "fallback" and out.path == "alt"
    assert "primary died" in out.reason
    assert report.degraded and report.complete


def test_executor_all_paths_fail_raises_stage_error():
    def boom(ctx):
        raise RuntimeError("dead")

    ex = ResilientExecutor(
        [_spec("s", boom, fallbacks=[("alt", boom)])], on_error="fallback",
    )
    with pytest.raises(StageError) as err:
        ex.run({})
    assert err.value.stage == "s" and len(err.value.errors) == 2


def test_executor_degrade_skips_degradable_stage():
    def boom(ctx):
        ctx["junk"] = 1
        raise RuntimeError("dead")

    ex = ResilientExecutor([
        _spec("good", lambda c: c.__setitem__("ok", True)),
        _spec("bad", boom, degradable=True),
        _spec("after", lambda c: c.__setitem__("ran", True)),
    ], on_error="degrade")
    ctx = {}
    report = ex.run(ctx)
    assert ctx.get("ok") and ctx.get("ran") and "junk" not in ctx
    assert report.outcome("bad").status == "skipped"
    assert report.degraded and not report.complete
    assert [o.stage for o in report.skipped] == ["bad"]


def test_executor_requires_cascades_skips():
    def boom(ctx):
        raise RuntimeError("dead")

    ex = ResilientExecutor([
        _spec("a", boom, degradable=True),
        _spec("b", lambda c: c.__setitem__("b", 1), degradable=True,
              requires=("a_done",)),
    ], on_error="degrade")
    ctx = {}
    report = ex.run(ctx)
    assert "b" not in ctx
    assert report.outcome("b").status == "skipped"
    assert "missing upstream" in report.outcome("b").reason


def test_executor_disabled_stage_produces_no_outcome():
    ex = ResilientExecutor([
        _spec("off", lambda c: c.__setitem__("off", 1),
              enabled=lambda c: False),
        _spec("on", lambda c: c.__setitem__("on", 1)),
    ])
    ctx = {}
    report = ex.run(ctx)
    assert "off" not in ctx and ctx["on"] == 1
    assert [o.stage for o in report.outcomes] == ["on"]


def test_degradation_report_round_trip():
    report = DegradationReport(outcomes=[
        StageOutcome("a"),
        StageOutcome("b", status="fallback", path="alt", reason="x"),
        StageOutcome("c", status="skipped"),
    ])
    clone = DegradationReport.from_dict(report.to_dict())
    assert [o.stage for o in clone.outcomes] == ["a", "b", "c"]
    assert clone.degraded and not clone.complete
    assert "b->alt" in report.summary() and "c:skipped" in report.summary()


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------
def test_checkpoint_save_load_round_trip(tmp_path):
    ctx = {"x": [1, 2, 3], "y": {"nested": (4, 5)}}
    blob = pickle.dumps(ctx)
    key = checkpoint_key("digest", "options")
    save_checkpoint(tmp_path, key, ["a", "b"], [{"stage": "a"}], blob)
    loaded = load_checkpoint(tmp_path, key)
    assert loaded is not None
    completed, outcomes, restored = loaded
    assert completed == ["a", "b"]
    assert outcomes == [{"stage": "a"}]
    assert restored == ctx


def test_checkpoint_corrupt_and_mismatched_files_read_as_absent(tmp_path):
    key = checkpoint_key("digest", "options")
    assert load_checkpoint(tmp_path, key) is None  # missing
    path = checkpoint_path(tmp_path, key)
    path.write_bytes(b"not a pickle at all")
    assert load_checkpoint(tmp_path, key) is None  # corrupt
    save_checkpoint(tmp_path, key, [], [], pickle.dumps({}))
    truncated = path.read_bytes()[:-10]
    path.write_bytes(truncated)
    assert load_checkpoint(tmp_path, key) is None  # torn
    other = checkpoint_key("other-digest", "options")
    save_checkpoint(tmp_path, key, [], [], pickle.dumps({}))
    os.replace(checkpoint_path(tmp_path, key), checkpoint_path(tmp_path, other))
    assert load_checkpoint(tmp_path, other) is None  # key mismatch


def test_checkpoint_key_separates_traces_and_options(trace):
    digest = trace_digest(trace)
    base = options_token(PipelineOptions())
    assert checkpoint_key(digest, base) != checkpoint_key("x", base)
    assert checkpoint_key(digest, base) != checkpoint_key(
        digest, options_token(PipelineOptions(order="physical")))
    # supervision knobs don't change the key: a resumed run may tighten
    # deadlines or flip on_error without orphaning its checkpoint
    assert options_token(PipelineOptions()) == options_token(
        PipelineOptions(on_error="degrade", stage_deadline=1.0,
                        max_rss_mb=512.0, hook_errors="raise",
                        checkpoint_dir="/tmp/x"))


# ---------------------------------------------------------------------------
# Pipeline: checkpoint resume and fallback bit-identity
# ---------------------------------------------------------------------------
def test_checkpoint_resume_is_bit_identical(trace, reference, tmp_path):
    opts = PipelineOptions(backend="python", checkpoint_dir=str(tmp_path))
    first = extract_logical_structure(trace, opts)
    assert structures_equal(first, reference)
    stats = PipelineStats()
    resumed = extract_logical_structure(trace, opts, stats)
    assert structures_equal(resumed, reference)
    assert resumed.degradation.resumed
    assert stats.checkpoint["resumed_stages"] > 0
    # resumed stage timings are still reported (from the original run)
    assert "dependency_merge" in stats.stage_seconds


def test_partial_checkpoint_resumes_midway(trace, reference, tmp_path):
    """Kill the run after an early stage; the retry picks up from there."""
    opts = PipelineOptions(backend="python", checkpoint_dir=str(tmp_path))

    class DieAfter:
        def on_stage(self, stage, *, state=None, structure=None, seconds=0.0):
            if stage == "repair_merge":
                raise KeyboardInterrupt  # not an Exception: no fallback path

    with pytest.raises(KeyboardInterrupt):
        extract_logical_structure(
            trace, opts.with_overrides(hooks=DieAfter(), hook_errors="raise"))
    key = checkpoint_key(trace_digest(trace), options_token(opts))
    loaded = load_checkpoint(tmp_path, key)
    assert loaded is not None and loaded[0][-1] == "dependency_merge"

    stats = PipelineStats()
    resumed = extract_logical_structure(trace, opts, stats)
    assert structures_equal(resumed, reference)
    assert stats.checkpoint["resumed_stages"] == 2  # initial, dependency_merge
    fresh = [o.stage for o in resumed.degradation.outcomes
             if not o.resumed]
    assert fresh[0] == "repair_merge"


def test_degraded_checkpoint_is_not_resumed_as_clean(trace, reference,
                                                     tmp_path, monkeypatch):
    """A degrade-mode run that skipped stages must not poison the
    checkpoint: the skip is never recorded as completed work, so a later
    run — even under on_error='raise' — re-attempts it and returns the
    genuinely complete structure instead of a partial one flying a
    complete=True flag."""
    from repro.core import pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("ordering fault injection")

    monkeypatch.setattr(pl, "reordered_order_task", boom)
    monkeypatch.setattr(pl, "physical_order", boom)
    opts = PipelineOptions(backend="python", checkpoint_dir=str(tmp_path))
    partial = extract_logical_structure(
        trace, opts.with_overrides(on_error="degrade"))
    assert not partial.degradation.complete
    monkeypatch.undo()

    stats = PipelineStats()
    healed = extract_logical_structure(trace, opts, stats)  # on_error="raise"
    assert healed.degradation.resumed  # the clean prefix was reused
    assert healed.degradation.complete and not healed.degradation.degraded
    # the skipped stages were actually re-run, not resumed
    by_stage = healed.degradation.by_stage()
    assert not by_stage["local_steps"].resumed
    assert by_stage["local_steps"].status == "ok"
    assert structures_equal(healed, reference)


def test_resume_preserves_fallback_status(trace, tmp_path, monkeypatch):
    """Resuming re-emits the checkpointed outcomes verbatim: a fallback
    stays a fallback (and keeps the report degraded) instead of being
    rewritten to a clean-looking resumed status."""
    from repro.core import columnar

    def boom(*a, **k):
        raise RuntimeError("columnar kernel fault injection")

    monkeypatch.setattr(columnar, "build_initial_columnar", boom)
    opts = PipelineOptions(checkpoint_dir=str(tmp_path), on_error="fallback")
    first = extract_logical_structure(trace, opts)
    assert first.degradation.outcome("initial").status == "fallback"

    second = extract_logical_structure(trace, opts)
    out = second.degradation.outcome("initial")
    assert out.resumed and out.status == "fallback"
    assert out.path == "python_reference"
    assert second.degradation.degraded  # the result is still a fallback's


def test_fallback_checkpoint_refused_under_raise(trace, reference, tmp_path,
                                                 monkeypatch):
    """A checkpoint containing fallback-path results was written under a
    laxer on_error policy; resuming it under 'raise' would present those
    results as the strict run's own, so the run starts fresh instead."""
    from repro.core import columnar

    def boom(*a, **k):
        raise RuntimeError("columnar kernel fault injection")

    monkeypatch.setattr(columnar, "build_initial_columnar", boom)
    opts = PipelineOptions(checkpoint_dir=str(tmp_path), on_error="fallback")
    extract_logical_structure(trace, opts)
    monkeypatch.undo()

    stats = PipelineStats()
    clean = extract_logical_structure(
        trace, opts.with_overrides(on_error="raise"), stats)
    assert not clean.degradation.resumed
    assert stats.checkpoint["resumed_stages"] == 0
    assert not clean.degradation.degraded
    assert structures_equal(clean, reference)


def test_fallback_paths_match_python_reference(trace, reference, monkeypatch):
    """Break every columnar kernel: the run lands on the python path and
    the structure stays bit-identical."""
    from repro.core import columnar

    def boom(*a, **k):
        raise RuntimeError("columnar kernel fault injection")

    monkeypatch.setattr(columnar, "build_initial_columnar", boom)
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(on_error="fallback"), stats)
    assert structures_equal(structure, reference)
    out = structure.degradation.outcome("initial")
    assert out.status == "fallback" and out.path == "python_reference"
    assert stats.degradation["degraded"]
    # raise mode still propagates the same failure
    with pytest.raises(RuntimeError, match="columnar kernel"):
        extract_logical_structure(trace, PipelineOptions(on_error="raise",
                                                         backend="columnar"))


class _RejectFirstResult:
    """Stage hook failing ``stage``'s first result as a strict verifier
    would.  Module-level: the finished structure (which carries the
    options, hooks included) is pickled into the executor's snapshot."""

    def __init__(self, stage):
        self.stage = stage
        self.rejected = False

    def on_stage(self, stage, *, state=None, structure=None, seconds=0.0):
        if stage == self.stage and not self.rejected:
            self.rejected = True
            raise InvariantViolationError(f"{stage} rejected", [])


@pytest.mark.parametrize("stage", [
    "initial", "dependency_merge", "repair_merge", "build_phases",
    "local_steps", "global_steps",
])
def test_python_rung_of_every_columnar_stage(trace, reference, stage):
    """Every stage that picks its kernels by ``use_columnar`` falls back
    to its own body on the python kernels, and the rest of the run stays
    there; ``stage_backends`` reports the kernels that actually ran."""
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(hooks=_RejectFirstResult(stage),
                               on_error="fallback"), stats)
    assert structures_equal(structure, reference)
    out = structure.degradation.outcome(stage)
    assert (out.status, out.path) == ("fallback", "python_reference")
    ran = list(stats.stage_backends)
    at = ran.index(stage)
    assert all(stats.stage_backends[s] == "columnar" for s in ran[:at])
    assert all(stats.stage_backends[s] == "python" for s in ran[at:])


def test_reorder_failure_degrades_to_physical_order(trace, monkeypatch):
    """Reorder failure → physical-time ordering, per the degradation
    matrix; the result matches a straight physical-order run."""
    from repro.core import pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("reorder fault injection")

    monkeypatch.setattr(pl, "reordered_order_task", boom)
    physical = extract(trace, backend="python", order="physical")
    structure = extract_logical_structure(
        trace, PipelineOptions(backend="python", on_error="fallback"))
    out = structure.degradation.outcome("local_steps")
    assert out.status == "fallback" and out.path == "physical_order"
    assert structure.step_of_event == physical.step_of_event


def test_degrade_mode_returns_partial_result(trace, monkeypatch):
    """Every ordering path dead: the run still returns phases, with the
    step assignment skipped and reported."""
    from repro.core import pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("ordering fault injection")

    monkeypatch.setattr(pl, "reordered_order_task", boom)
    monkeypatch.setattr(pl, "physical_order", boom)
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(backend="python", on_error="degrade"), stats)
    assert len(structure.phases) > 0
    assert structure.degradation.degraded
    assert not structure.degradation.complete
    assert {"local_steps", "global_steps"} <= {
        o.stage for o in structure.degradation.skipped}
    # partial result: phases are known, steps are not
    assert set(structure.phase_of_event) != {-1}
    assert all(s == -1 for s in structure.step_of_event)
    assert stats.degradation["degraded"]


def test_fallback_equivalence_on_fault_corpus():
    """Repaired fault-corpus traces extract identically on the primary
    and forced-fallback paths."""
    base = jacobi2d.run(chares=(3, 3), pes=2, iterations=2, seed=5)
    corpus = fault_corpus(base, ["drop_messages", "clock_skew"], seed=3,
                          severity=0.3)
    for kind, bad in corpus.items():
        fixed, _ = repair_trace(bad, mode="fix")
        ref = extract(fixed, backend="python")
        resilient = extract_logical_structure(
            fixed, PipelineOptions(backend="python", on_error="degrade"))
        assert structures_equal(ref, resilient), kind
        assert not resilient.degradation.degraded


def test_strict_verify_failure_falls_back_and_rechecks(trace, monkeypatch):
    """An invariant violation on the primary path participates in the
    fallback machinery: the safe path re-runs and is re-verified."""
    from repro.core import columnar

    calls = {"n": 0}

    def poisoned(*a, **k):
        calls["n"] += 1
        raise RuntimeError("poisoned kernel")

    monkeypatch.setattr(columnar, "build_initial_columnar", poisoned)
    structure = extract_logical_structure(
        trace, PipelineOptions(verify=True, on_error="fallback"))
    # The columnar primary calls the poisoned builder once; the python
    # reference rung, the only fallback, then survives.
    assert calls["n"] == 1
    assert structure.degradation.outcome("initial").path == "python_reference"


# ---------------------------------------------------------------------------
# Snapshots reference the run's inputs instead of copying them
# ---------------------------------------------------------------------------
def _break_initial(monkeypatch):
    from repro.core import columnar

    def boom(*a, **k):
        raise RuntimeError("columnar kernel fault injection")

    monkeypatch.setattr(columnar, "build_initial_columnar", boom)


def test_snapshot_references_inputs_and_binds_them():
    from repro.resilience.checkpoint import dump_snapshot, load_snapshot

    holder = SimpleNamespace(payload=list(range(10_000)))
    blob = dump_snapshot({"x": holder, "again": [holder]}, {"h": holder})
    assert len(blob) < 200  # a reference, not the ten thousand ints
    other = SimpleNamespace()
    restored = load_snapshot(blob, {"h": other})
    assert restored["x"] is other and restored["again"][0] is other
    assert load_snapshot(blob, None)["x"] is None  # unbound: reads as None


def test_fallback_restore_keeps_the_input_trace(trace, reference,
                                                monkeypatch):
    _break_initial(monkeypatch)
    opts = PipelineOptions(on_error="fallback")
    structure = extract_logical_structure(trace, opts)
    assert structure.degradation.outcome("initial").status == "fallback"
    assert structure.trace is trace
    assert structure.options is opts
    assert structures_equal(structure, reference)


def test_resume_binds_an_equal_distinct_trace(trace, reference, tmp_path):
    opts = PipelineOptions(checkpoint_dir=str(tmp_path))
    extract_logical_structure(trace, opts)
    twin = jacobi2d.run(chares=(4, 4), pes=4, iterations=3, seed=11)
    assert twin is not trace and trace_digest(twin) == trace_digest(trace)
    resumed_opts = PipelineOptions(checkpoint_dir=str(tmp_path))
    resumed = extract_logical_structure(twin, resumed_opts)
    assert resumed.degradation.resumed
    assert resumed.trace is twin
    assert resumed.options is resumed_opts
    assert structures_equal(resumed, reference)


def test_version_2_checkpoint_reads_as_absent(trace, reference, tmp_path):
    """A file in the previous format (the context, trace included,
    pickled by value after a version-2 header) is ignored: the run
    starts fresh and its result is unchanged."""
    opts = PipelineOptions(checkpoint_dir=str(tmp_path))
    key = checkpoint_key(trace_digest(trace), options_token(opts))
    extract_logical_structure(trace, opts)
    completed, outcomes, ctx = load_checkpoint(
        tmp_path, key, {"trace": trace, "options": opts})
    header = {"version": 2, "key": key, "completed": completed,
              "outcomes": outcomes}
    checkpoint_path(tmp_path, key).write_bytes(
        pickle.dumps(header) + pickle.dumps(ctx))
    assert load_checkpoint(tmp_path, key) is None
    stats = PipelineStats()
    fresh = extract_logical_structure(trace, opts, stats)
    assert stats.checkpoint["resumed_stages"] == 0
    assert not fresh.degradation.resumed
    assert structures_equal(fresh, reference)


def _local_hook():
    class Recorder:  # defined in a function: pickle cannot find it
        def __init__(self):
            self.stages = []
            self.keep = lambda stage: stage  # and neither can it a lambda

        def on_stage(self, stage, *, state=None, structure=None,
                     seconds=0.0):
            self.stages.append(self.keep(stage))

    return Recorder()


@pytest.mark.parametrize("supervision", [
    {"on_error": "fallback"},
    {"on_error": "degrade"},
    {"checkpoint_dir": True},
])
def test_unpicklable_hook_survives_hardened_runs(trace, reference, tmp_path,
                                                 supervision):
    if supervision.get("checkpoint_dir"):
        supervision = {"checkpoint_dir": str(tmp_path)}
    hook = _local_hook()
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(hook)
    opts = PipelineOptions(hooks=hook, **supervision)
    structure = extract_logical_structure(trace, opts)
    assert structures_equal(structure, reference)
    assert hook.stages[-1] == "finalize"
    assert structure.options is opts


def test_resumed_structure_carries_the_callers_options(trace, tmp_path):
    first = PipelineOptions(checkpoint_dir=str(tmp_path), hooks=_local_hook())
    extract_logical_structure(trace, first)
    opts = PipelineOptions(checkpoint_dir=str(tmp_path), on_error="degrade")
    resumed = extract_logical_structure(trace, opts)
    assert all(o.resumed for o in resumed.degradation.outcomes)
    assert resumed.options is opts


def test_partition_state_pickles_without_derived_data(trace):
    from repro.core import columnar

    state = columnar.build_initial_columnar(trace).state
    state.adjacency()
    assert state._adj_cache is not None
    restored = pickle.loads(pickle.dumps(state))
    for name in columnar.ColumnarPartitionState._DERIVED:
        assert name not in restored.__dict__
    assert restored._adj_cache is None
    # Recomputed on first use, equal to the originals.
    assert restored.adjacency() == state.adjacency()
    assert restored.partition_events() == state.partition_events()
    assert restored.initial_events_by_chare() == \
        state.initial_events_by_chare()
    for name in columnar.ColumnarPartitionState._DERIVED:
        assert (getattr(restored, name).tolist()
                == getattr(state, name).tolist()), name


def test_snapshots_only_before_restorable_stages(trace, monkeypatch):
    """Without checkpoints, a snapshot is taken only before a stage that
    can restore it: one with a fallback rung (the six columnar stages),
    or a degradable one under "degrade"."""
    from repro.resilience import executor as executor_module

    taken = []
    real = executor_module.dump_snapshot

    def counting(ctx, inputs):
        taken.append(sorted(ctx))
        return real(ctx, inputs)

    monkeypatch.setattr(executor_module, "dump_snapshot", counting)
    extract_logical_structure(trace, PipelineOptions(on_error="fallback"))
    assert len(taken) == 6
    taken.clear()
    extract_logical_structure(trace, PipelineOptions(on_error="raise"))
    assert taken == []
    extract_logical_structure(
        trace, PipelineOptions(backend="python", on_error="degrade"))
    assert len(taken) == 2  # local_steps and global_steps


# ---------------------------------------------------------------------------
# Resource guards
# ---------------------------------------------------------------------------
def test_guard_deadline_breach_aborts_stage():
    guard = ResourceGuard(deadline=0.1, interval=0.01)
    with pytest.raises(StageBreachError):
        with guard.watch("slow"):
            time.sleep(5.0)
    assert guard.breach[0] == "slow" and guard.breach[1] == "deadline"


def test_guard_inert_without_limits():
    guard = ResourceGuard()
    assert not guard.active
    with guard.watch("s"):
        pass
    assert guard.breach is None


def test_guard_validates_limits():
    with pytest.raises(ValueError):
        ResourceGuard(deadline=0.0)
    with pytest.raises(ValueError):
        ResourceGuard(max_rss_mb=-1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs procfs for RSS sampling")
def test_guard_rss_breach_aborts_stage():
    from repro.resilience.guard import current_rss_mb

    rss = current_rss_mb()
    assert rss is not None and rss > 0
    guard = ResourceGuard(max_rss_mb=1.0, interval=0.01)  # already over
    with pytest.raises(StageBreachError):
        with guard.watch("fat"):
            time.sleep(5.0)
    assert guard.breach[1] == "rss"


def test_watchdog_does_not_inject_after_body_completed():
    """A breach noticed only after the stage body finished is recorded
    on the outcome but never injected: a completed stage must not be
    retroactively failed by a late async exception."""
    import time as _time

    guard = ResourceGuard(deadline=0.01, interval=0.005)
    stop = threading.Event()
    injected = threading.Event()
    completed = threading.Event()
    completed.set()  # the body already finished
    guard._watchdog("late", threading.get_ident(),
                    _time.monotonic() - 1.0,  # deadline long blown
                    stop, injected, completed)
    assert guard.breach is not None and guard.breach[1] == "deadline"
    assert not injected.is_set()  # nothing was shot down


def test_pipeline_deadline_breach_fails_cleanly(trace, monkeypatch):
    """A stage hung past its deadline is soft-aborted: raise mode gets
    the breach error, fallback mode gets a StageError naming it."""
    from repro.core import pipeline as pl

    real = pl.dependency_merge

    def slow(state, **kwargs):
        time.sleep(5.0)
        real(state, **kwargs)

    monkeypatch.setattr(pl, "dependency_merge", slow)
    with pytest.raises(StageBreachError):
        extract_logical_structure(
            trace, PipelineOptions(stage_deadline=0.15, on_error="raise",
                                   backend="python"))
    with pytest.raises(StageError, match="dependency_merge"):
        extract_logical_structure(
            trace, PipelineOptions(stage_deadline=0.15, on_error="fallback",
                                   backend="python"))


def test_pipeline_generous_deadline_is_harmless(trace, reference):
    structure = extract_logical_structure(
        trace, PipelineOptions(stage_deadline=300.0, max_rss_mb=65536.0,
                               backend="python", on_error="fallback"))
    assert structures_equal(structure, reference)
    assert not structure.degradation.degraded


# ---------------------------------------------------------------------------
# Hook error policy
# ---------------------------------------------------------------------------
class _BrokenHook:
    def __init__(self):
        self.calls = 0

    def on_stage(self, stage, *, state=None, structure=None, seconds=0.0):
        self.calls += 1
        raise RuntimeError("hook bug")


def test_hook_errors_warn_continues(trace, reference):
    hook = _BrokenHook()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        structure = extract_logical_structure(
            trace, PipelineOptions(backend="python", hooks=hook))
    assert structures_equal(structure, reference)
    assert hook.calls > 1  # kept being called, stage after stage
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)
               and "hook" in str(w.message)]
    assert runtime and "_BrokenHook" in str(runtime[0].message)


def test_hook_errors_raise_aborts(trace):
    with pytest.raises(RuntimeError, match="hook bug"):
        extract_logical_structure(
            trace, PipelineOptions(backend="python", hooks=_BrokenHook(),
                                   hook_errors="raise"))


def test_invariant_violation_propagates_despite_warn(trace):
    class FakeStrict:
        def on_stage(self, stage, *, state=None, structure=None, seconds=0.0):
            raise InvariantViolationError("strict says no", [])

    with pytest.raises(InvariantViolationError):
        extract_logical_structure(
            trace, PipelineOptions(backend="python", hooks=FakeStrict(),
                                   hook_errors="warn"))


# ---------------------------------------------------------------------------
# Batch journal: crash-safe resume
# ---------------------------------------------------------------------------
def test_journal_round_trip(tmp_path):
    path = tmp_path / "j.jsonl"
    with RunJournal(path, "tok") as journal:
        journal.record_done("a", "d1", {"phases": 3}, 0.5, 1, False)
        journal.record_fail("b", "d2", "boom", 2, True)
        journal.record_done("b", "d2", {"phases": 9})  # retry succeeded
    state = read_journal(path)
    assert state.options == "tok"
    assert set(state.done) == {"d1", "d2"}
    assert not state.failed  # the later done superseded the fail
    assert state.done["d2"]["summary"] == {"phases": 9}


def test_journal_tolerates_torn_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    with RunJournal(path, "tok") as journal:
        journal.record_done("a", "d1", {})
    with open(path, "ab") as fh:
        fh.write(b'{"kind": "done", "digest": "d2", "summ')  # kill -9 here
    state = read_journal(path)
    assert state.is_done("d1") and not state.is_done("d2")
    assert state.corrupt_lines == 1
    # and the journal can keep appending after the torn tail
    with RunJournal(path, "tok", resume=True) as journal:
        assert journal.is_done("d1")
        journal.record_done("c", "d3", {})
    assert read_journal(path).is_done("d3")


def test_journal_resume_terminates_torn_tail(tmp_path):
    """Resume after a kill -9 mid-append must terminate the torn final
    line before writing its meta line; otherwise the two concatenate
    into one unparseable line, the meta is lost, and the next resume's
    options-mismatch guard is silently skipped."""
    path = tmp_path / "j.jsonl"
    # the run died while appending its very first line (the meta): the
    # torn fragment is the journal's only meta candidate
    path.write_bytes(b'{"kind": "meta", "version": 1, "opt')
    with RunJournal(path, "tok", resume=True) as journal:
        journal.record_done("a", "d1", {})
    state = read_journal(path)
    assert state.options == "tok"  # the resumed run's meta survived
    assert state.is_done("d1")
    assert state.corrupt_lines == 1  # only the torn fragment itself
    # the guard therefore still refuses a mismatched later resume
    with pytest.raises(ValueError, match="different pipeline options"):
        RunJournal(path, "tok-other", resume=True)


def test_journal_missing_file_reads_empty(tmp_path):
    state = read_journal(tmp_path / "absent.jsonl")
    assert state.entries == 0 and not state.done


def test_journal_options_mismatch_refuses_resume(tmp_path):
    path = tmp_path / "j.jsonl"
    RunJournal(path, "tok-a").close()
    with pytest.raises(ValueError, match="different pipeline options"):
        RunJournal(path, "tok-b", resume=True)


def test_batch_resume_skips_done_traces(tmp_path):
    traces = [jacobi2d.run(chares=(3, 3), pes=2, iterations=1, seed=s)
              for s in range(3)]
    path = tmp_path / "j.jsonl"
    first = BatchExtractor(journal=path).run(traces[:2])
    assert first.ok and not first.resumed
    second = BatchExtractor(journal=path, resume=True).run(traces)
    assert second.ok
    assert [r.resumed for r in second.results] == [True, True, False]
    assert len(read_journal(path).done) == 3
    doc = second.to_dict()
    assert doc["resumed"] == 2
    assert doc["results"][0]["resumed"] is True


def test_batch_resume_requires_journal():
    with pytest.raises(ValueError, match="journal"):
        BatchExtractor(resume=True)


def test_batch_sigkill_mid_run_resumes_without_rework(tmp_path):
    """SIGKILL the batch while it grinds through a corpus; the resumed
    run completes it and re-extracts only unfinished traces."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    paths = []
    for s in range(4):
        p = corpus_dir / f"t{s}.jsonl"
        write_trace(jacobi2d.run(chares=(4, 4), pes=4, iterations=3, seed=s),
                    p)
        paths.append(str(p))
    journal = tmp_path / "run.jsonl"
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.batch import BatchExtractor\n"
        "BatchExtractor(journal={journal!r}).run({paths!r})\n"
    ).format(src=str(Path(__file__).resolve().parents[1] / "src"),
             journal=str(journal), paths=paths)
    proc = subprocess.Popen([sys.executable, "-c", script])
    # kill -9 once at least one trace has been journaled as done
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break  # finished everything before we got the kill in
        if len(read_journal(journal).done) >= 1:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            break
        time.sleep(0.005)
    else:
        proc.kill()
        pytest.fail("worker never journaled a completed trace")
    done_before = set(read_journal(journal).done)
    assert done_before  # the journal survived the kill

    report = BatchExtractor(journal=journal, resume=True).run(paths)
    assert report.ok and len(report.results) == len(paths)
    resumed = {trace_digest(p) for p, r in zip(paths, report.results)
               if r.resumed}
    # exactly the traces journaled before the kill were skipped
    assert resumed == done_before
    assert len(read_journal(journal).done) == len(paths)


def test_degraded_summaries_are_not_cached(tmp_path, monkeypatch):
    from repro.core import pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("ordering fault injection")

    monkeypatch.setattr(pl, "reordered_order_task", boom)
    monkeypatch.setattr(pl, "physical_order", boom)
    cache = StructureCache(tmp_path / "cache")
    trace = jacobi2d.run(chares=(3, 3), pes=2, iterations=1, seed=9)
    report = BatchExtractor(
        PipelineOptions(backend="python", on_error="degrade"),
        cache=cache).run([trace])
    assert report.ok
    assert report.results[0].summary["degradation"]["degraded"]
    assert cache.stats()["disk_entries"] == 0  # degraded: never cached


# ---------------------------------------------------------------------------
# Structure cache caps
# ---------------------------------------------------------------------------
def test_cache_entry_cap_evicts_lru(tmp_path):
    cache = StructureCache(tmp_path, max_entries=2)
    cache.put("k1", b'{"v": 1}')
    time.sleep(0.01)
    cache.put("k2", b'{"v": 2}')
    time.sleep(0.01)
    assert cache.get("k1") is not None  # touch k1: k2 becomes LRU
    time.sleep(0.01)
    cache.put("k3", b'{"v": 3}')
    stats = cache.stats()
    assert stats["disk_entries"] == 2 and stats["evictions"] == 1
    fresh = StructureCache(tmp_path)
    assert fresh.get("k2") is None  # the untouched entry was evicted
    assert fresh.get("k1") is not None and fresh.get("k3") is not None


def test_cache_byte_cap_and_prune(tmp_path):
    cache = StructureCache(tmp_path)
    for i in range(6):
        cache.put(f"k{i}",
                  json.dumps({"payload": "x" * 100, "i": i}).encode())
        time.sleep(0.01)
    total = cache.stats()["disk_bytes"]
    removed = cache.prune(max_bytes=total // 2)
    assert removed >= 3
    assert cache.stats()["disk_bytes"] <= total // 2
    with pytest.raises(ValueError):
        cache.prune(max_entries=0)
    with pytest.raises(ValueError):
        StructureCache(tmp_path, max_entries=0)


def test_uncapped_cache_put_skips_disk_scan(tmp_path, monkeypatch):
    """With neither cap set there is nothing to evict: put() must not
    glob/stat the whole cache directory on every insert."""
    cache = StructureCache(tmp_path)
    calls = []
    monkeypatch.setattr(cache, "prune",
                        lambda *a, **k: calls.append(a) or 0)
    cache.put("k", b'{"v": 1}')
    assert not calls
    assert cache.get("k") == b'{"v": 1}'
    # a capped cache still prunes on put
    capped = StructureCache(tmp_path, max_entries=1)
    monkeypatch.setattr(capped, "prune",
                        lambda *a, **k: calls.append(a) or 0)
    capped.put("k2", b'{"v": 2}')
    assert calls


def test_cache_cli_stats_and_prune(tmp_path, capsys):
    cache = StructureCache(tmp_path)
    for i in range(3):
        cache.put(f"k{i}", json.dumps({"i": i}).encode())
        time.sleep(0.01)
    assert main(["cache", str(tmp_path), "--stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["disk_entries"] == 3
    assert main(["cache", str(tmp_path), "--prune", "--max-entries", "1"]) == 0
    out = capsys.readouterr().out
    assert "pruned 2" in out
    assert main(["cache", str(tmp_path), "--prune"]) == 2  # caps required


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_file(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("cli") / "t.jsonl"
    write_trace(trace, path)
    return str(path)


def test_cli_batch_journal_resume(trace_file, tmp_path, capsys):
    journal = tmp_path / "j.jsonl"
    assert main(["batch", trace_file, "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert main(["batch", trace_file, "--resume", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "resumed" in out
    assert main(["batch", trace_file, "--journal", str(journal),
                 "--resume", str(journal)]) == 2  # mutually exclusive


def test_cli_batch_resume_rejects_other_options(trace_file, tmp_path, capsys):
    journal = tmp_path / "j.jsonl"
    assert main(["batch", trace_file, "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert main(["batch", trace_file, "--resume", str(journal),
                 "--order", "physical"]) == 2
    assert "different pipeline options" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["batch", "t.jsonl", "--timeout", "0"],
    ["batch", "t.jsonl", "--timeout", "-3"],
    ["batch", "t.jsonl", "--timeout", "nan"],
    ["batch", "t.jsonl", "--timeout", "abc"],
    ["batch", "t.jsonl", "--retries", "-1"],
    ["batch", "t.jsonl", "--retries", "1.5"],
    ["batch", "t.jsonl", "--backoff", "-0.5"],
])
def test_cli_batch_rejects_bad_numbers(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "expected a" in capsys.readouterr().err


def test_cli_analyze_reports_degradation(trace_file, tmp_path, capsys):
    assert main(["analyze", trace_file, "--json", "--on-error", "degrade",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degradation"]["complete"] is True
    assert not doc["degradation"]["degraded"]
    # second run resumes from the checkpoint
    assert main(["analyze", trace_file, "--json", "--on-error", "degrade",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degradation"]["resumed"] is True
