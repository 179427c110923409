"""The columnar backend is a pure implementation detail.

For every bundled proxy app, extracting with ``backend="python"`` and
``backend="columnar"`` (under either of its accepted names) must assign
bit-identical steps and phases — not merely equivalent partitions.  The
columnar kernels go out of their way to replay the python
implementation's insertion and tie-break orders, and the batched
union-find kernel replays the sequential union-by-size decision stream;
this is the test that holds them to it, including on the fault corpus
under ingestion repair, and holds the one-pass step kernel to the python
per-phase reference down to ``chare_orders`` insertion order.
"""

from __future__ import annotations

import pytest

from repro.api import PipelineOptions, PipelineStats, extract
from repro.apps import (
    btsweep,
    jacobi2d,
    lassen,
    lulesh,
    mergetree,
    multigrid,
    nasbt,
    pdes,
    sssp,
)
from repro.core import columnar, pipeline
from repro.trace.faults import FAULT_KINDS, inject_fault

pytestmark = pytest.mark.stepping

#: The accepted names of the non-reference backend ("columnar_batched" is
#: a legacy alias); each must be bit-identical to "python".
COLUMNAR_FAMILY = ("columnar", "columnar_batched")

APPS = {
    "jacobi2d": lambda: jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=7),
    "lulesh": lambda: lulesh.run_charm(chares=8, pes=4, iterations=2, seed=3),
    "lassen": lambda: lassen.run_charm(chares=8, pes=4, iterations=3, seed=1),
    "pdes": lambda: pdes.run(chares=8, pes=4, seed=5),
    "mergetree": lambda: mergetree.run(ranks=8, seed=2),
    "nasbt": lambda: nasbt.run(ranks=9, iterations=2, seed=4),
    "btsweep": lambda: btsweep.run(tiles=(3, 3), pes=4, iterations=2, seed=6),
    "multigrid": lambda: multigrid.run(fine=(8, 8), pes=4, cycles=2, seed=8),
    "sssp": lambda: sssp.run(nodes=40, edges=120, parts=8, pes=4, seed=9)[0],
}


@pytest.mark.parametrize("backend", COLUMNAR_FAMILY)
@pytest.mark.parametrize("app", sorted(APPS))
def test_backends_bit_identical(app, backend):
    trace = APPS[app]()
    py = extract(trace, PipelineOptions(backend="python"))
    col = extract(trace, PipelineOptions(backend=backend))
    assert py.step_of_event == col.step_of_event
    assert py.phase_of_event == col.phase_of_event
    assert py.local_step_of_event == col.local_step_of_event


@pytest.mark.parametrize("backend", COLUMNAR_FAMILY)
@pytest.mark.parametrize("app", ["lulesh", "lassen"])
def test_backends_bit_identical_mpi(app, backend):
    run = lulesh.run_mpi if app == "lulesh" else lassen.run_mpi
    trace = run(ranks=8, iterations=2, seed=3)
    py = extract(trace, PipelineOptions(backend="python"))
    col = extract(trace, PipelineOptions(backend=backend))
    assert py.step_of_event == col.step_of_event
    assert py.phase_of_event == col.phase_of_event


@pytest.mark.parametrize("backend", COLUMNAR_FAMILY)
@pytest.mark.parametrize("overrides", [
    {"order": "physical"},
    {"infer": False},
    {"tie_break": "index"},
])
def test_backends_bit_identical_under_options(overrides, backend):
    trace = APPS["jacobi2d"]()
    py = extract(trace, PipelineOptions(backend="python"), **overrides)
    col = extract(trace, PipelineOptions(backend=backend), **overrides)
    assert py.step_of_event == col.step_of_event
    assert py.phase_of_event == col.phase_of_event


# ---------------------------------------------------------------------------
# Step assignment: the one-pass columnar kernel against the per-phase python
# reference, down to the insertion order of ``chare_orders``.
# ---------------------------------------------------------------------------
MPI_APPS = {
    "lulesh_mpi": lambda: lulesh.run_mpi(ranks=8, iterations=2, seed=3),
    "lassen_mpi": lambda: lassen.run_mpi(ranks=8, iterations=2, seed=3),
}

STEP_VARIANTS = {
    "default": {},
    "physical": {"order": "physical"},
    "index": {"tie_break": "index"},
    "no_infer": {"infer": False},
}


def _step_bits(structure):
    """Every output of step assignment, as plain comparable data."""
    return (
        list(structure.step_of_event),
        list(structure.local_step_of_event),
        list(structure.chare_orders.items()),
        [(p.id, p.max_local_step, p.offset) for p in structure.phases],
    )


@pytest.mark.parametrize("variant", sorted(STEP_VARIANTS))
@pytest.mark.parametrize("app", sorted(APPS) + sorted(MPI_APPS))
def test_step_assignment_bit_identical(app, variant):
    trace = {**APPS, **MPI_APPS}[app]()
    options = STEP_VARIANTS[variant]
    py = extract(trace, PipelineOptions(backend="python"), **options)
    stats = PipelineStats()
    col = extract(trace, PipelineOptions(backend="columnar"), stats=stats,
                  **options)
    assert stats.stage_backends["local_steps"] == "columnar"
    assert _step_bits(col) == _step_bits(py)


#: Phases the step kernel hands to ``assign_local_steps`` when it may run
#: only three rounds: the ones whose fixed point needs more.
FALLBACK_PHASES = {"lulesh": 3, "lassen": 3, "jacobi2d": 2, "mergetree": 0}


@pytest.mark.parametrize("app", sorted(FALLBACK_PHASES))
def test_unsettled_phases_fall_back_one_at_a_time(app, monkeypatch):
    trace = APPS[app]()
    py = extract(trace, PipelineOptions(backend="python"))
    monkeypatch.setattr(columnar, "MAX_STEP_ROUNDS", 3)
    sent = []
    reference = pipeline.assign_local_steps

    def counting(trace_, phase_events, chare_orders):
        sent.append(len(phase_events))
        return reference(trace_, phase_events, chare_orders)

    monkeypatch.setattr(pipeline, "assign_local_steps", counting)
    stats = PipelineStats()
    col = extract(trace, PipelineOptions(backend="columnar"), stats=stats)
    assert stats.stage_backends["local_steps"] == "columnar"
    assert len(sent) == FALLBACK_PHASES[app]
    assert _step_bits(col) == _step_bits(py)


# ---------------------------------------------------------------------------
# Fault corpus: bit-identity must survive damaged inputs under repair.
# The repaired trace feeds repair_merge's rule paths, which the batched
# kernel accelerates — exactly where a divergence would hide.
# ---------------------------------------------------------------------------
@pytest.mark.faults
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_backends_bit_identical_on_fault_corpus(kind):
    trace = inject_fault(APPS["jacobi2d"](), kind, seed=11)
    results = {
        backend: extract(trace, PipelineOptions(backend=backend, repair="fix"))
        for backend in ("python",) + COLUMNAR_FAMILY
    }
    py = results["python"]
    for backend in COLUMNAR_FAMILY:
        other = results[backend]
        assert py.step_of_event == other.step_of_event, (kind, backend)
        assert py.phase_of_event == other.phase_of_event, (kind, backend)
        assert py.local_step_of_event == other.local_step_of_event, (
            kind, backend)


# ---------------------------------------------------------------------------
# Stage reporting: stats must name the backend that actually ran per stage.
# ---------------------------------------------------------------------------
def test_stage_backend_stats_shape(jacobi_trace):
    stats = PipelineStats()
    extract(jacobi_trace, PipelineOptions(backend="columnar"), stats=stats)
    assert stats.backend == "columnar"
    assert set(stats.stage_backends) == set(stats.stage_seconds)
    assert set(stats.stage_backends.values()) == {"columnar"}


def test_stage_backend_stats_python(jacobi_trace):
    stats = PipelineStats()
    extract(jacobi_trace, PipelineOptions(backend="python"), stats=stats)
    assert set(stats.stage_backends.values()) == {"python"}


def test_auto_backend_selects_columnar(jacobi_trace):
    structure = extract(jacobi_trace, PipelineOptions(backend="auto"))
    assert structure.options.resolve_backend() == "columnar"


def _structure_bits(structure):
    """Everything a backend could perturb, as plain comparable data."""
    return (
        structure.step_of_event,
        structure.phase_of_event,
        structure.local_step_of_event,
        structure.chare_orders,
        [(p.id, p.events, p.leap, p.offset, p.max_local_step,
          sorted(p.preds), sorted(p.succs)) for p in structure.phases],
    )


def test_columnar_batched_is_an_alias_of_columnar(jacobi_trace):
    # Old scripts name the former batched variant; it must run the one
    # columnar backend and key caches, checkpoints and journals the same.
    runs = {}
    for name in ("columnar_batched", "columnar", "auto"):
        options = PipelineOptions(backend=name)
        assert options.resolve_backend() == "columnar"
        stats = PipelineStats()
        structure = extract(jacobi_trace, options, stats=stats)
        assert stats.backend == "columnar"
        assert set(stats.stage_backends.values()) == {"columnar"}
        runs[name] = (options.result_token(), _structure_bits(structure))
    assert len({token for token, _ in runs.values()}) == 1
    assert len({repr(bits) for _, bits in runs.values()}) == 1
