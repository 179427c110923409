"""End-to-end logical-structure extraction (Sections 3.1 + 3.2).

The pipeline mirrors the paper's stage order:

1. initial partitions from serial blocks (3.1.1);
2. inter-chare dependency merge + cycle merge (3.1.2, Algorithm 1);
3. serial-block repair + cycle merge (3.1.3, Algorithm 2);
4. orderability enforcement (3.1.4): source-order inference (Algorithm 3),
   leap merge (Algorithm 4), app/runtime ordering, chare-path edges
   (Algorithm 5) — skippable via ``infer=False`` for the Figure 17
   ablation (overlaps are then forced into sequence instead of merged);
5. per-phase event ordering — physical or idealized-replay reordered
   (3.2.1) — and local step assignment (3.2);
6. global offsets from the phase DAG.

MPI-mode traces follow Isaacs et al. [13]: per-process program order
provides the missing dependencies, so stage 4 is unnecessary (Section 3.4)
and runs only when explicitly requested.

Since the resilience rework the stages are a declarative graph
(:class:`~repro.resilience.executor.StageSpec` list) run by the
:class:`~repro.resilience.executor.ResilientExecutor` over a shared
context dict.  Every stage that reads ``use_columnar`` gets one derived
fallback rung on a columnar run — its own body rerun on the python
kernels — and ``local_steps`` adds physical-time ordering after it.  A
stage also declares whether it is degradable (a failure past phase
finding yields a partial result instead of losing the run), and the
executor adds between-stage checkpoints (``checkpoint_dir``), per-stage
resource guards (``stage_deadline`` / ``max_rss_mb``), and the
:class:`~repro.resilience.report.DegradationReport` threaded through
:class:`PipelineStats`.  With the default ``on_error="raise"`` the
behavior — including every exception — is the historical one.
"""

from __future__ import annotations

import dataclasses
import time as _time
import warnings
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # repro.verify builds on this module; avoid the cycle.
    from repro.verify.stagehooks import StageHook

from repro.core import columnar
from repro.core.inference import (
    enforce_chare_paths,
    infer_source_dependencies,
    leap_merge,
    order_overlapping,
)
from repro.core.gcpause import pause_gc
from repro.core.initial import build_initial
from repro.core.leaps import compute_leaps
from repro.core.merges import dependency_merge, repair_merge
from repro.core.reorder import physical_order, reordered_order_mp, reordered_order_task
from repro.core.stepping import assign_global_offsets, assign_local_steps
from repro.core.structure import LogicalStructure, Phase
from repro.resilience.executor import (
    ON_ERROR_MODES,
    ResilientExecutor,
    StageFn,
    StageSpec,
)
from repro.resilience.guard import ResourceGuard
from repro.trace.columns import TraceColumns
from repro.trace.model import Trace
from repro.trace.repair import REPAIR_MODES

#: Option fields that instrument or supervise the run without changing
#: the extracted structure: excluded from cache/checkpoint keying.
#: (``on_error`` modes only diverge on *failing* runs, whose results are
#: never cached.)
NON_RESULT_FIELDS = frozenset({
    "hooks",
    "verify",
    "checkpoint_dir",
    "hook_errors",
    "on_error",
    "stage_deadline",
    "max_rss_mb",
})

#: Context keys present before any stage runs (seeded by
#: :func:`extract_logical_structure`); the stage graph's dataflow roots.
SEED_KEYS = frozenset({"trace", "use_columnar"})

#: Condition tokens a :class:`StageSignature` may name.  The concrete
#: predicates close over the run's options, so the declarative graph
#: carries only these symbolic names:
#:
#: * ``"repair"`` — runs when ``options.repair != "off"``;
#: * ``"infer"`` — runs when properties are enforced and ``options.infer``;
#: * ``"enforce"`` — runs when DAG properties are enforced (Section 3.4).
CONDITION_TOKENS = ("", "repair", "infer", "enforce")


@dataclass(frozen=True)
class StageSignature:
    """Declared dataflow signature of one pipeline stage.

    The signature is pure data — importable without building a pipeline —
    so tooling (``repro lint``'s dataflow rules, docs generators) can
    reason about the stage graph statically.  ``body`` and the second
    element of each ``fallbacks`` entry name the stage-body functions
    defined inside :func:`extract_logical_structure`; the builder
    resolves them by name and fails loudly on a dangling reference.

    ``inputs`` lists every context key the stage (or any of its
    fallbacks) reads; ``outputs`` every key the stage *or any fallback*
    produces or mutates in place (an output that is also an input is an
    in-place update).  The declarations are exhaustive — telemetry keys
    included — because ``repro lint``'s dataflow rules check the stage
    bodies against them: an undeclared read breaks checkpoint resume,
    an undeclared write hides dataflow from downstream reasoning.
    ``requires`` keys are *enforced* by the executor: when one is
    missing — an upstream degradable stage was skipped — the stage is
    skipped too instead of computing on stale defaults.

    A stage that reads ``use_columnar`` picks its kernels by that flag,
    so :func:`build_stage_specs` derives its ``python_reference`` rung
    instead of naming one here; every rung turns the flag off, which
    makes ``use_columnar`` an output of each stage that reads it.
    """

    name: str
    body: str
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    fallbacks: Tuple[Tuple[str, str], ...] = ()
    degradable: bool = False
    condition: str = ""
    requires: Tuple[str, ...] = ()


#: The extraction pipeline as declarative data, in execution order.
#: This is the single source of truth for stage order, dataflow, and
#: degradation policy; :func:`extract_logical_structure` materializes it
#: into :class:`~repro.resilience.executor.StageSpec` objects, and
#: ``repro lint`` statically checks it against the stage bodies.
STAGE_GRAPH: Tuple[StageSignature, ...] = (
    StageSignature(
        "repair", "st_repair",
        inputs=("trace",), outputs=("trace", "repair"),
        condition="repair",
    ),
    StageSignature(
        "initial", "st_initial",
        inputs=("trace", "use_columnar"),
        outputs=("initial", "state", "initial_partitions", "use_columnar"),
    ),
    StageSignature(
        "dependency_merge", "st_dependency_merge",
        inputs=("state", "use_columnar"), outputs=("state", "use_columnar"),
    ),
    StageSignature(
        "repair_merge", "st_repair_merge",
        inputs=("initial", "state", "use_columnar"),
        outputs=("state", "use_columnar"),
    ),
    StageSignature(
        "infer_sources", "st_infer_sources",
        inputs=("state",), outputs=("state",),
        condition="infer",
    ),
    StageSignature(
        "leap_merge", "st_leap_merge",
        inputs=("state",), outputs=("state",),
        condition="infer",
    ),
    StageSignature(
        "order_overlapping", "st_order_overlapping",
        inputs=("state",), outputs=("state",),
        condition="enforce",
    ),
    StageSignature(
        "chare_paths", "st_chare_paths",
        inputs=("state",), outputs=("state",),
        condition="enforce",
    ),
    StageSignature(
        # Besides the phases, this stage seeds safe defaults for every
        # step-assignment key so a degraded run that skips the two
        # degradable stages below still finalizes a partial structure.
        "build_phases", "st_build_phases",
        inputs=("trace", "state", "use_columnar"),
        outputs=("phases", "phase_of_event", "final_phases",
                 "local_step", "step_of_event", "chare_orders",
                 "use_columnar"),
    ),
    StageSignature(
        "local_steps", "st_local_steps",
        inputs=("trace", "initial", "state", "phases", "use_columnar"),
        outputs=("phases", "local_step", "chare_orders", "local_arr",
                 "local_steps_done", "use_columnar"),
        fallbacks=(("physical_order", "st_local_steps_physical"),),
        degradable=True,
    ),
    StageSignature(
        "global_steps", "st_global_steps",
        inputs=("trace", "phases", "phase_of_event", "local_step",
                "use_columnar"),
        outputs=("phases", "step_of_event", "use_columnar"),
        degradable=True,
        requires=("local_steps_done",),
    ),
    StageSignature(
        "finalize", "st_finalize",
        inputs=("trace", "initial", "phases", "phase_of_event",
                "step_of_event", "local_step", "chare_orders"),
        outputs=("structure",),
    ),
)


def _fallback_rung(body: StageFn) -> StageFn:
    """``body`` as a fallback rung: it runs, and the rest of the run
    stays, on the python kernels."""
    def rung(ctx: dict) -> None:
        ctx["use_columnar"] = False
        body(ctx)

    return rung


def build_stage_specs(
    bodies: Dict[str, "StageFn"],
    *,
    enabled: Dict[str, Callable[[dict], bool]],
    use_columnar: bool,
) -> List[StageSpec]:
    """Materialize :data:`STAGE_GRAPH` into executable :class:`StageSpec`s.

    ``bodies`` maps body-function names to the callables defined for
    this run and ``enabled`` maps condition tokens to predicates.  On a
    columnar run every stage that reads ``use_columnar`` gets its own
    body, rerun with the flag off, as the first rung of its ladder
    (``"python_reference"``); a python run has no such rung, since it
    would rerun the failed path.  A signature referencing an unknown
    body or token is a programming error and raises ``LookupError``
    immediately.
    """
    specs: List[StageSpec] = []
    for sig in STAGE_GRAPH:
        for _, body_name in ((("", sig.body),) + sig.fallbacks):
            if body_name not in bodies:
                raise LookupError(
                    f"stage {sig.name!r} references unknown body "
                    f"{body_name!r}"
                )
        condition = None
        if sig.condition:
            if sig.condition not in enabled:
                raise LookupError(
                    f"stage {sig.name!r} names unknown condition "
                    f"{sig.condition!r}"
                )
            condition = enabled[sig.condition]
        ladder = list(sig.fallbacks)
        if use_columnar and "use_columnar" in sig.inputs:
            ladder.insert(0, ("python_reference", sig.body))
        specs.append(StageSpec(
            sig.name, bodies[sig.body],
            inputs=sig.inputs, outputs=sig.outputs,
            fallbacks=[(name, _fallback_rung(bodies[fn]))
                       for name, fn in ladder],
            degradable=sig.degradable,
            enabled=condition, requires=sig.requires,
        ))
    return specs


#: Accepted values of the enumerated :class:`PipelineOptions` fields, in
#: the order the CLI lists them (its ``choices`` are these tuples);
#: :meth:`PipelineOptions.validate` checks against them.
OPTION_CHOICES: Dict[str, Tuple[str, ...]] = {
    "order": ("reordered", "physical"),
    "mode": ("auto", "charm", "mpi"),
    "tie_break": ("chare_id", "index"),
    "backend": ("auto", "python", "columnar", "columnar_batched"),
    "repair": REPAIR_MODES,
    "on_error": ON_ERROR_MODES,
    "hook_errors": ("warn", "raise"),
}


@dataclass
class PipelineOptions:
    """Knobs of the extraction pipeline (the paper's ablation axes)."""

    #: "charm" (task model), "mpi" (message passing), or "auto" — read the
    #: trace metadata key ``model`` and default to "charm".
    mode: str = "auto"
    #: "reordered" (Section 3.2.1 idealized replay) or "physical".
    order: str = "reordered"
    #: Run the Section 3.1.4 inference/merging (Figure 17 ablates this).
    infer: bool = True
    #: Force DAG-property enforcement even in MPI mode.
    enforce_properties: Optional[bool] = None
    #: Tie-break for equal-w serial blocks: "chare_id" (paper default) or
    #: "index" (topology-aware, by the invoking chare's array index).
    tie_break: str = "chare_id"
    #: Gap tolerance for absorbing an entry method into a following serial.
    absorb_tolerance: float = 1e-9
    #: Kernel backend: "columnar" (NumPy array kernels plus the batched
    #: union-find merge kernel), "python" (pure reference
    #: implementation, the differential oracle), or "auto", which is
    #: "columnar".  "columnar_batched" is accepted as an alias of
    #: "columnar".  Both backends produce bit-identical structures; the
    #: differential harness cross-checks them.
    backend: str = "auto"
    #: Stage instrumentation: one :class:`repro.verify.stagehooks.StageHook`
    #: (an object with an ``on_stage(stage, *, state, structure, seconds)``
    #: method) or a sequence of them, called after every stage with the
    #: live intermediate state.
    hooks: Union[None, "StageHook", Sequence["StageHook"]] = None
    #: Strict mode: install a :class:`repro.verify.stagehooks.StrictVerifier`
    #: that asserts stage postconditions and runs the full invariant suite
    #: on the result, raising ``InvariantViolationError`` on any failure.
    verify: bool = False
    #: Ingestion hardening (:mod:`repro.trace.repair`): "off" trusts the
    #: trace (historical behavior), "warn" detects defects and reports
    #: them (RuntimeWarning + ``PipelineStats.repair``) without touching
    #: the trace, "fix" repairs what is safely repairable and extracts
    #: from the repaired trace.  Affects the result, so it is part of the
    #: batch cache key.
    repair: str = "off"
    #: Stage-failure policy: "raise" (historical fail-fast), "fallback"
    #: (walk each stage's safe-path ladder before giving up), or
    #: "degrade" (additionally skip degradable stages past phase finding
    #: and return a partial result with a DegradationReport).
    on_error: str = "raise"
    #: Directory for atomic between-stage checkpoints; an interrupted
    #: run re-invoked with the same trace + options resumes after its
    #: last completed stage.  None (default) disables checkpointing.
    checkpoint_dir: Optional[str] = None
    #: Wall-clock budget per stage in seconds; a stage exceeding it is
    #: soft-aborted by the watchdog and handled per ``on_error``.
    stage_deadline: Optional[float] = None
    #: Process RSS ceiling in MiB sampled by the watchdog while a stage
    #: runs; a breach soft-aborts the stage instead of riding into OOM.
    max_rss_mb: Optional[float] = None
    #: What to do when a user stage hook raises: "warn" (default) logs a
    #: RuntimeWarning and continues, "raise" aborts extraction
    #: (historical behavior).  ``InvariantViolationError`` from strict
    #: verification always propagates regardless.
    hook_errors: str = "warn"

    def resolve_mode(self, trace: Trace) -> str:
        if self.mode != "auto":
            return self.mode
        return "mpi" if trace.metadata.get("model") == "mpi" else "charm"

    def validate(self) -> "PipelineOptions":
        """Check every enumerated field against :data:`OPTION_CHOICES`.

        Raises ``ValueError`` naming the first field with a value
        outside its choices; returns ``self`` so a caller can chain.
        """
        for name, choices in OPTION_CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r}; expected one of "
                    f"{', '.join(choices)}"
                )
        return self

    def resolve_backend(self) -> str:
        """Concrete backend for this run ("columnar" or "python")."""
        if self.backend not in OPTION_CHOICES["backend"]:
            raise ValueError(f"unknown backend {self.backend!r}")
        return "python" if self.backend == "python" else "columnar"

    def result_token(self) -> str:
        """Canonical string of the result-affecting option fields.

        Fields in :data:`NON_RESULT_FIELDS` instrument the run without
        changing a successful result, so they are excluded; ``backend``
        is resolved so "auto" keys the same as the backend it picks.
        This is the options half of cache and checkpoint keys.
        """
        fields = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in NON_RESULT_FIELDS
        }
        fields["backend"] = self.resolve_backend()
        return repr(sorted(fields.items()))

    def with_overrides(self, **overrides) -> "PipelineOptions":
        """A copy of these options with the given fields replaced.

        The supported way to combine an options object with keyword
        tweaks: ``opts.with_overrides(order="physical")``.  Unknown field
        names raise ``TypeError``.
        """
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise TypeError(
                f"unknown PipelineOptions field(s): {', '.join(sorted(unknown))}"
            )
        return dataclasses.replace(self, **overrides)

    def hook_list(self) -> List["StageHook"]:
        """``hooks`` normalized to a list (one hook, a sequence, or none)."""
        if self.hooks is None:
            return []
        if isinstance(self.hooks, (list, tuple)):
            return list(self.hooks)
        return [self.hooks]


@dataclass
class PipelineStats:
    """Per-stage timings and merge counts (drives Figures 18/19)."""

    initial_partitions: int = 0
    final_phases: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: Concrete backend the run selected ("columnar" or "python").
    backend: str = ""
    #: Kernel family each executed stage actually ran under, by stage
    #: name — "columnar" or "python".  Differs from ``backend`` after a
    #: mid-run downgrade by the fallback ladder; which *rung* of which
    #: ladder ran is in ``degradation``.
    stage_backends: Dict[str, str] = field(default_factory=dict)
    #: :meth:`repro.trace.repair.RepairReport.to_dict` of the ingestion
    #: repair pass, or None when ``options.repair == "off"``.
    repair: Optional[Dict[str, object]] = None
    #: :meth:`repro.resilience.report.DegradationReport.to_dict` of the
    #: run — which stages fell back, degraded, resumed, or breached.
    degradation: Optional[Dict[str, object]] = None
    #: Checkpoint telemetry (dir, key, resumed stage count) when
    #: ``options.checkpoint_dir`` is set.
    checkpoint: Optional[Dict[str, object]] = None


def _checkpoint_key(trace: Trace, opts: PipelineOptions) -> str:
    # Imported lazily: repro.batch builds on this module.
    from repro.batch import trace_digest
    from repro.resilience.checkpoint import checkpoint_key

    return checkpoint_key(trace_digest(trace), opts.result_token())


def extract_logical_structure(
    trace: Trace,
    options: Optional[PipelineOptions] = None,
    stats: Optional[PipelineStats] = None,
    **kwargs,
) -> LogicalStructure:
    """Recover the logical structure of ``trace``.

    Keyword arguments are a shorthand for :class:`PipelineOptions` fields,
    e.g. ``extract_logical_structure(trace, order="physical")``.
    Combining an ``options`` object with keyword overrides was
    deprecated and now raises ``TypeError`` — call
    ``options.with_overrides(**kwargs)`` yourself.  Pass a
    :class:`PipelineStats` to collect per-stage timings.
    """
    if options is not None and kwargs:
        raise TypeError(
            "extract_logical_structure() takes either an options object "
            "or keyword overrides, not both; use "
            "options.with_overrides(**kwargs)"
        )
    if options is not None:
        opts = options
    else:
        opts = PipelineOptions(**kwargs)
    opts.validate()
    mode = opts.resolve_mode(trace)
    backend = opts.resolve_backend()
    stats = stats if stats is not None else PipelineStats()
    stats.backend = backend
    t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=PipelineStats timing telemetry, excluded from result keys

    hook_list = opts.hook_list()
    if opts.verify:
        # Imported lazily: repro.verify builds on this module.
        from repro.verify.stagehooks import StrictVerifier

        hook_list.append(StrictVerifier())
    from repro.verify.invariants import InvariantViolationError

    # Reordered MPI stepping relaxes the per-process chain so receives
    # can float to their logical wave (Section 3.2.1, Figure 10).
    relaxed = mode == "mpi" and opts.order == "reordered"
    # The strict message-passing chain makes every process a single path
    # through the DAG, so enforcement is unnecessary (Section 3.4); the
    # relaxed chain of reordered MPI mode reintroduces same-leap
    # overlaps and needs it.
    enforce = opts.enforce_properties
    if enforce is None:
        enforce = mode == "charm" or relaxed

    # ------------------------------------------------------------------
    # Stage bodies.  Each mutates the shared context dict, which the
    # executor snapshots for fallback restore and checkpoints.  The
    # trace and ``opts`` (which ``finalize`` hands to the structure,
    # hooks included) are run inputs: a snapshot references them by name
    # and a restore binds them to this run's objects, so neither is
    # copied and a hook need not be picklable.
    # ------------------------------------------------------------------
    def st_repair(ctx: dict) -> None:
        from repro.trace.repair import repair_trace, warn_on_defects

        repaired, report = repair_trace(ctx["trace"], mode=opts.repair)
        ctx["trace"] = repaired
        ctx["repair"] = report.to_dict()
        warn_on_defects(report, stacklevel=3)

    def st_initial(ctx: dict) -> None:
        build = (columnar.build_initial_columnar if ctx["use_columnar"]
                 else build_initial)
        initial = build(ctx["trace"], mode=mode,
                        absorb_tolerance=opts.absorb_tolerance,
                        relaxed_chain=relaxed)
        ctx["initial"] = initial
        ctx["state"] = initial.state
        ctx["initial_partitions"] = len(initial.state.init_events)

    def st_dependency_merge(ctx: dict) -> None:
        dependency_merge(ctx["state"], use_fast_path=ctx["use_columnar"])

    def st_repair_merge(ctx: dict) -> None:
        repair_merge(ctx["initial"], use_fast_path=ctx["use_columnar"])

    def st_infer_sources(ctx: dict) -> None:
        infer_source_dependencies(ctx["state"])

    def st_leap_merge(ctx: dict) -> None:
        leap_merge(ctx["state"])

    def st_order_overlapping(ctx: dict) -> None:
        order_overlapping(ctx["state"], cross_class_only=opts.infer)

    def st_chare_paths(ctx: dict) -> None:
        enforce_chare_paths(ctx["state"])

    def st_build_phases(ctx: dict) -> None:
        state = ctx["state"]
        events = ctx["trace"].events
        # The leap values feed a totally-ordered sort key, so the
        # columnar kernel's different dict order is safe here (it is NOT
        # safe inside the inference stages, which keep the python
        # compute_leaps).
        if ctx["use_columnar"]:
            leaps = columnar.compute_leaps_columnar(state)
        else:
            leaps = compute_leaps(state)
        succs, preds = state.adjacency()
        part_events = state.partition_events()
        # partition_events lists are (time, id)-sorted: the first event
        # holds the minimum time.
        nonempty = [r for r, evs in part_events.items() if evs]
        (first_times,) = state.event_fields(
            [part_events[r][0] for r in nonempty], "time")
        first_time = dict(zip(nonempty, first_times))
        roots = sorted(
            part_events,
            key=lambda r: (leaps[r], first_time.get(r, 0.0), r),
        )
        # A columnar partition's chare -> first-event map lists the
        # distinct chares of its events in (time, id) order, so a set
        # comprehension over it inserts them in the same order as one over
        # the events (``set(dict)`` would presize the table instead).
        first_of = (state.initial_events_by_chare() if ctx["use_columnar"]
                    else None)
        phase_index = {root: i for i, root in enumerate(roots)}
        phases: List[Phase] = []
        for root in roots:
            evs = part_events[root]
            phases.append(
                Phase(
                    id=phase_index[root],
                    events=evs,
                    chares=({c for c in first_of[root]} if first_of is not None
                            else {events[e].chare for e in evs}),
                    is_runtime=state.is_runtime(root),
                    leap=leaps[root],
                    preds={phase_index[q] for q in preds[root]},
                    succs={phase_index[q] for q in succs[root]},
                )
            )
        ctx["phases"] = phases
        ctx["final_phases"] = len(phases)
        # Defaults the step-assignment stages overwrite; a degraded run
        # that skips them still returns a valid partial structure.
        phase_of_event = [-1] * len(events)
        for phase in phases:
            for ev in phase.events:
                phase_of_event[ev] = phase.id
        ctx["phase_of_event"] = phase_of_event
        ctx["local_step"] = [-1] * len(events)
        ctx["step_of_event"] = [-1] * len(events)
        ctx["chare_orders"] = {}

    def _local_steps_columnar(ctx: dict) -> None:
        trace_, initial, state = ctx["trace"], ctx["initial"], ctx["state"]
        phases = ctx["phases"]
        cols = TraceColumns.of(trace_)
        phase_events = [phase.events for phase in phases]
        if opts.order == "physical":
            orders = columnar.physical_orders(cols, phase_events)
        elif mode == "mpi":
            orders = columnar.message_passing_orders(cols, phase_events)
        else:
            block_table = getattr(state, "block_table", None)
            boe_arr = (block_table.block_of_event if block_table is not None
                       else np.asarray(initial.block_of_event, np.int64))
            by_index = opts.tie_break == "index"
            inv_keys = [tuple(c.index) if by_index and c.index else (c.id,)
                        for c in trace_.chares]
            orders = columnar.task_orders(cols, phase_events, boe_arr,
                                          inv_keys)
        steps, max_steps, unsettled = columnar.local_steps(
            cols, orders, len(phases))
        local_arr = np.full(len(trace_.events), -1, np.int64)
        local_arr[orders.events] = steps
        lists = orders.lists()
        chare_orders: Dict[Tuple[int, int], List[int]] = {
            (phases[p].id, chare): order
            for p, chare, order in zip(orders.phase.tolist(),
                                       orders.chare.tolist(), lists)
        }
        for phase, max_s in zip(phases, max_steps.tolist()):
            phase.max_local_step = max_s
        for p in unsettled:  # suspected cycle: python reference fallback
            phase = phases[p]
            lo, hi = np.searchsorted(orders.phase, [p, p + 1]).tolist()
            per_chare = dict(zip(orders.chare[lo:hi].tolist(), lists[lo:hi]))
            py_steps, phase.max_local_step = assign_local_steps(
                trace_, phase.events, per_chare)
            for ev, s in py_steps.items():
                local_arr[ev] = s
        ctx["local_step"] = local_arr.tolist()
        ctx["local_arr"] = local_arr
        ctx["chare_orders"] = chare_orders
        ctx["local_steps_done"] = True

    def _local_steps_python(ctx: dict, physical: bool) -> None:
        trace_, initial = ctx["trace"], ctx["initial"]
        local_step = [-1] * len(trace_.events)
        chare_orders: Dict[Tuple[int, int], List[int]] = {}
        for phase in ctx["phases"]:
            if physical:
                orders = physical_order(trace_, phase.events)
            elif mode == "mpi":
                orders = reordered_order_mp(trace_, phase.events,
                                            initial.block_of_event)
            else:
                orders = reordered_order_task(
                    trace_, phase.events, initial.block_of_event,
                    tie_break=opts.tie_break,
                )
            for chare, order in orders.items():
                chare_orders[(phase.id, chare)] = order
            steps, max_s = assign_local_steps(trace_, phase.events, orders)
            for ev, s in steps.items():
                local_step[ev] = s
            phase.max_local_step = max_s
        ctx["local_step"] = local_step
        ctx.pop("local_arr", None)
        ctx["chare_orders"] = chare_orders
        ctx["local_steps_done"] = True

    def st_local_steps(ctx: dict) -> None:
        if ctx["use_columnar"]:
            _local_steps_columnar(ctx)
        else:
            _local_steps_python(ctx, physical=opts.order == "physical")

    def st_local_steps_physical(ctx: dict) -> None:
        # Last-resort ordering: physical time needs no inference and no
        # reorder fixed point, so it survives inputs the idealized
        # replay cannot.
        _local_steps_python(ctx, physical=True)

    def st_global_steps(ctx: dict) -> None:
        phases = ctx["phases"]
        max_local = {p.id: p.max_local_step for p in phases}
        offsets = assign_global_offsets(
            [p.id for p in phases], {p.id: p.preds for p in phases}, max_local
        )
        for phase in phases:
            phase.offset = offsets[phase.id]
        local_arr = ctx.get("local_arr")
        if ctx["use_columnar"] and local_arr is not None and phases:
            offset_arr = np.fromiter((p.offset for p in phases), np.int64,
                                     len(phases))
            phase_arr = np.asarray(ctx["phase_of_event"], np.int64)
            in_phase = phase_arr >= 0
            step_arr = np.where(
                in_phase, offset_arr[np.clip(phase_arr, 0, None)] + local_arr,
                -1,
            )
            ctx["step_of_event"] = step_arr.tolist()
        else:
            step_of_event = [-1] * len(ctx["trace"].events)
            local_step = ctx["local_step"]
            for phase in phases:
                for ev in phase.events:
                    step_of_event[ev] = phase.offset + local_step[ev]
            ctx["step_of_event"] = step_of_event

    def st_finalize(ctx: dict) -> None:
        initial = ctx["initial"]
        ctx["structure"] = LogicalStructure(
            trace=ctx["trace"],
            phases=ctx["phases"],
            phase_of_event=ctx["phase_of_event"],
            step_of_event=ctx["step_of_event"],
            local_step_of_event=ctx["local_step"],
            chare_orders=ctx["chare_orders"],
            blocks=initial.blocks,
            block_of_event=initial.block_of_event,
            block_of_exec=initial.block_of_exec,
            options=opts,
        )

    # ------------------------------------------------------------------
    # Materialize the declarative graph.  Fallback ladders implement the
    # degradation matrix in docs/ROBUSTNESS.md; only the step-assignment
    # stages are degradable (a failure before phases exist has nothing
    # to salvage).
    # ------------------------------------------------------------------
    bodies: Dict[str, StageFn] = {
        fn.__name__: fn
        for fn in (
            st_repair, st_initial, st_dependency_merge, st_repair_merge,
            st_infer_sources, st_leap_merge, st_order_overlapping,
            st_chare_paths, st_build_phases, st_local_steps,
            st_local_steps_physical, st_global_steps, st_finalize,
        )
    }
    use_columnar = backend != "python"
    stages = build_stage_specs(
        bodies,
        enabled={
            "repair": lambda ctx: opts.repair != "off",
            "infer": lambda ctx: enforce and opts.infer,
            "enforce": lambda ctx: enforce,
        },
        use_columnar=use_columnar,
    )

    def observer(stage: str, seconds: float, ctx: dict) -> None:
        stats.stage_seconds[stage] = (
            stats.stage_seconds.get(stage, 0.0) + seconds
        )
        stats.stage_backends[stage] = (
            "columnar" if ctx.get("use_columnar") else "python"
        )
        structure = ctx.get("structure") if stage == "finalize" else None
        state = None if structure is not None else ctx.get("state")
        for hook in hook_list:
            try:
                hook.on_stage(stage, state=state, structure=structure,
                              seconds=seconds)
            except InvariantViolationError:
                raise  # strict verification: the designed failure signal
            except Exception as exc:
                if opts.hook_errors == "raise":
                    raise
                warnings.warn(
                    f"stage hook {type(hook).__name__} failed on stage "
                    f"{stage!r}: {type(exc).__name__}: {exc} "
                    f"(hook_errors='warn': continuing)",
                    RuntimeWarning,
                    stacklevel=2,
                )

    checkpoint_dir = opts.checkpoint_dir
    key = ""
    if checkpoint_dir is not None:
        key = _checkpoint_key(trace, opts)

    executor = ResilientExecutor(
        stages,
        on_error=opts.on_error,
        guard=ResourceGuard(opts.stage_deadline, opts.max_rss_mb),
        checkpoint_dir=(str(checkpoint_dir) if checkpoint_dir is not None
                        else None),
        checkpoint_key=key,
        observer=observer,
        inputs={"trace": trace, "options": opts},
    )
    ctx: Dict[str, object] = {
        "trace": trace,
        "use_columnar": use_columnar,
    }
    # The cyclic collector does pure wasted work during extraction (the
    # kernels allocate bursts of acyclic short-lived objects while the
    # whole trace heap sits in the old generations — see
    # :mod:`repro.core.gcpause` for the quadratic this caused).  The
    # python reference backend keeps the historical collector behavior.
    with pause_gc(backend != "python"):
        report = executor.run(ctx)

    structure: LogicalStructure = ctx["structure"]
    structure.degradation = report
    stats.initial_partitions = ctx.get("initial_partitions", 0)
    stats.final_phases = ctx.get("final_phases", 0)
    stats.repair = ctx.get("repair")
    for outcome in report.outcomes:
        if outcome.resumed:
            stats.stage_seconds.setdefault(outcome.stage, outcome.seconds)
    stats.degradation = report.to_dict()
    if checkpoint_dir is not None:
        stats.checkpoint = {
            "dir": str(checkpoint_dir),
            "key": key,
            "resumed_stages": sum(
                1 for o in report.outcomes if o.resumed
            ),
        }
    stats.total_seconds = _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=PipelineStats timing telemetry, excluded from result keys
    return structure
