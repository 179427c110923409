"""The repro.api facade: one flat namespace, one extract entry point."""

from __future__ import annotations

import warnings

import pytest

import repro
import repro.api as api
from repro.core.pipeline import extract_logical_structure
from repro.verify import StageHook, StageRecorder


def test_all_names_importable():
    for name in api.__all__:
        assert hasattr(api, name), name


def test_package_reexports_facade():
    assert repro.extract is api.extract
    assert repro.PipelineOptions is api.PipelineOptions
    assert repro.BatchExtractor is api.BatchExtractor


def test_extract_accepts_trace_and_path(jacobi_trace, tmp_path):
    path = tmp_path / "t.jsonl"
    api.write_trace(jacobi_trace, path)
    from_obj = api.extract(jacobi_trace)
    from_path = api.extract(str(path))
    assert from_obj.step_of_event == from_path.step_of_event
    assert from_obj.phase_of_event == from_path.phase_of_event


def test_extract_overrides_compose_with_options(jacobi_trace):
    base = api.PipelineOptions(order="physical")
    structure = api.extract(jacobi_trace, base, tie_break="index")
    assert structure.options.order == "physical"
    assert structure.options.tie_break == "index"
    # The caller's options object is never mutated.
    assert base.tie_break == "chare_id"


def test_extract_rejects_unknown_override(jacobi_trace):
    with pytest.raises(TypeError, match="definitely_not_an_option"):
        api.extract(jacobi_trace, definitely_not_an_option=1)


def test_extract_emits_no_warnings(jacobi_trace):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        api.extract(jacobi_trace, api.PipelineOptions(), order="physical")


def test_options_plus_kwargs_rejected(jacobi_trace):
    # The deprecated dual path is gone: combining an options object with
    # keyword overrides is a hard error (use with_overrides, or extract).
    with pytest.raises(TypeError, match="with_overrides"):
        extract_logical_structure(
            jacobi_trace, options=api.PipelineOptions(), order="physical"
        )


def test_hooks_accept_single_and_list(jacobi_trace):
    single = StageRecorder()
    api.extract(jacobi_trace, hooks=single)
    assert single.records

    a, b = StageRecorder(), StageRecorder()
    api.extract(jacobi_trace, hooks=[a, b])
    assert [r.stage for r in a.records] == [r.stage for r in b.records]
    assert [r.stage for r in a.records] == [r.stage for r in single.records]


def test_stagehook_protocol_is_structural():
    class Custom:
        def __init__(self):
            self.stages = []

        def on_stage(self, stage, *, state=None, structure=None, seconds=0.0):
            self.stages.append(stage)

    hook = Custom()
    assert isinstance(hook, StageHook)

    trace = __import__("repro.apps", fromlist=["jacobi2d"]).jacobi2d.run(
        chares=(4, 4), pes=4, iterations=2, seed=1
    )
    api.extract(trace, hooks=hook)
    assert hook.stages[0] == "initial"
    assert hook.stages[-1] == "finalize"


def test_stats_threaded_through(jacobi_trace):
    stats = api.PipelineStats()
    api.extract(jacobi_trace, stats=stats)
    assert stats.total_seconds > 0
    assert stats.backend in ("python", "columnar")
