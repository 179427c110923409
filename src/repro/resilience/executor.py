"""The resilient stage executor.

:class:`ResilientExecutor` runs a declarative list of
:class:`StageSpec` over a mutable context dict — the pipeline's
intermediate state — and owns everything the stages should not know
about:

* **Fallbacks.**  Each stage may declare an ordered ladder of fallback
  implementations (columnar kernel → python reference → physical-time
  ordering).  When a primary path raises, the context is restored from
  the pre-stage snapshot and the next path runs; the stage's outcome
  records which path produced the result and why the others failed.
* **Graceful degradation.**  A stage marked ``degradable`` whose every
  path failed is skipped: the context is restored, the outcome says so,
  and the run continues to a partial result instead of losing the
  completed stages.
* **Resource guards.**  Each attempt runs under a
  :class:`~repro.resilience.guard.ResourceGuard` watch; a deadline or
  RSS breach soft-aborts the attempt (a breach on an attempt that
  completed anyway is recorded on the outcome without discarding it).
* **Checkpoints.**  With a ``checkpoint_dir``, the context is snapshotted
  after every *successfully* completed stage (atomic replace, see
  :mod:`repro.resilience.checkpoint`); a later run with the same key
  resumes after the last completed stage, re-emitting the checkpointed
  outcomes (original status, path, and timing preserved) with their
  ``resumed`` flag set.  A skipped stage is never checkpointed — once a
  stage degrades to skipped, checkpointing stops for the rest of the
  run, so a resume always re-attempts the skipped work instead of
  presenting a partial result as complete.  A checkpoint whose outcomes
  the current ``on_error`` mode could not have produced (e.g. a
  fallback-path result resumed under ``"raise"``) is refused and the
  run starts fresh.

Error policy (``on_error``): ``"raise"`` (default) propagates the first
stage failure unchanged — bit-for-bit the historical behavior, with no
snapshotting cost; ``"fallback"`` walks the fallback ladder and raises
only when every path failed; ``"degrade"`` additionally skips degradable
stages so the run always produces its best partial result.

Context snapshots (:func:`~repro.resilience.checkpoint.dump_snapshot`)
pickle the context in one dump, so shared references inside the state
survive restore and a resumed or fallback run stays bit-identical to an
uninterrupted one.  The run's ``inputs`` (the trace and options the
pipeline was given) are stored as named references, not copies, and a
restore binds them back to the same objects.  Without a
``checkpoint_dir``, a snapshot is taken only before a stage that can
restore it: one with a fallback rung, or a degradable stage under
``"degrade"``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.resilience.checkpoint import (
    Inputs,
    dump_snapshot,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
)
from repro.resilience.guard import ResourceGuard, StageBreachError
from repro.resilience.report import (
    STATUS_FALLBACK,
    STATUS_OK,
    STATUS_SKIPPED,
    DegradationReport,
    StageOutcome,
)

#: Outcome statuses each on_error mode is able to produce.  A checkpoint
#: containing a status outside the current mode's set was written under
#: a laxer policy and must not be resumed into the stricter run.
_MODE_STATUSES = {
    "raise": frozenset({STATUS_OK}),
    "fallback": frozenset({STATUS_OK, STATUS_FALLBACK}),
    "degrade": frozenset({STATUS_OK, STATUS_FALLBACK}),
}

ON_ERROR_MODES = ("raise", "fallback", "degrade")

StageFn = Callable[[dict], None]


@dataclass
class StageSpec:
    """One stage of the pipeline graph.

    ``run`` mutates the context dict in place; ``inputs``/``outputs``
    document (and ``requires`` enforces) the context keys the stage
    consumes and produces.  ``fallbacks`` is an ordered ladder of
    ``(name, fn)`` alternatives tried when an earlier path raises.
    """

    name: str
    run: StageFn
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    fallbacks: Sequence[Tuple[str, StageFn]] = ()
    #: May the run continue (with a partial result) if every path fails?
    degradable: bool = False
    #: Optional predicate deciding whether the stage runs at all for
    #: these options (a disabled stage produces no outcome).
    enabled: Optional[Callable[[dict], bool]] = None
    #: Context keys that must exist before the stage can run; a missing
    #: key (an upstream stage was skipped) skips this stage too.
    requires: Tuple[str, ...] = ()


class StageError(RuntimeError):
    """Raised when a non-degradable stage failed on every declared path."""

    def __init__(self, stage: str, errors: List[str]) -> None:
        self.stage = stage
        self.errors = errors
        super().__init__(
            f"stage {stage!r} failed on every path: " + "; ".join(errors)
        )


class ResilientExecutor:
    """Run a stage list over a context dict with the declared policies."""

    def __init__(
        self,
        stages: Sequence[StageSpec],
        *,
        on_error: str = "raise",
        guard: Optional[ResourceGuard] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_key: str = "",
        observer: Optional[Callable[[str, float, dict], None]] = None,
        inputs: Optional[Inputs] = None,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(f"unknown on_error mode {on_error!r}")
        self.stages = list(stages)
        self.on_error = on_error
        self.guard = guard if guard is not None else ResourceGuard()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_key = checkpoint_key
        self.observer = observer
        #: Objects the context may hold that snapshots reference by name
        #: instead of copying; held here for the run, so their ids stay
        #: unique.
        self.inputs = dict(inputs or {})

    # ------------------------------------------------------------------
    def _attempts(self, spec: StageSpec) -> List[Tuple[str, StageFn]]:
        attempts: List[Tuple[str, StageFn]] = [("primary", spec.run)]
        if self.on_error != "raise":
            attempts.extend(spec.fallbacks)
        return attempts

    def _restores(self, spec: StageSpec) -> bool:
        """Can a failure of ``spec`` restore the pre-stage snapshot?"""
        return len(self._attempts(spec)) > 1 or (
            spec.degradable and self.on_error == "degrade")

    def _snapshot(self, ctx: dict) -> bytes:
        return dump_snapshot(ctx, self.inputs)

    def _restore(self, ctx: dict, snapshot: bytes) -> None:
        ctx.clear()
        ctx.update(load_snapshot(snapshot, self.inputs))

    def _run_stage(self, spec: StageSpec, ctx: dict,
                   snapshot: Optional[bytes]) -> StageOutcome:
        errors: List[str] = []
        last_exc: Optional[BaseException] = None
        for index, (path, fn) in enumerate(self._attempts(spec)):
            if index > 0 and snapshot is not None:
                # The failed path may have half-mutated the state; start
                # the fallback from the pre-stage snapshot.
                self._restore(ctx, snapshot)
            self.guard.breach = None
            t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=per-stage timing telemetry for the degradation report
            try:
                with self.guard.watch(spec.name):
                    fn(ctx)
                seconds = _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=per-stage timing telemetry for the degradation report
                if self.observer is not None:
                    # Hooks and strict verification run per attempt: a
                    # fallback result is re-checked, not waved through.
                    self.observer(spec.name, seconds, ctx)
            except Exception as exc:
                last_exc = exc
                errors.append(f"{path}: {type(exc).__name__}: {exc}")
                if self.on_error == "raise":
                    raise
                continue
            breach = self.guard.breach
            return StageOutcome(
                spec.name,
                status=STATUS_OK if index == 0 else STATUS_FALLBACK,
                path=path,
                reason="; ".join(errors),
                seconds=seconds,
                breach=breach[1] if breach is not None else "",
            )
        if spec.degradable and self.on_error == "degrade":
            if snapshot is not None:
                self._restore(ctx, snapshot)
            return StageOutcome(spec.name, status=STATUS_SKIPPED, path="",
                                reason="; ".join(errors))
        if isinstance(last_exc, StageBreachError) or len(errors) > 1:
            raise StageError(spec.name, errors) from last_exc
        assert last_exc is not None  # the attempt loop always runs once
        raise last_exc  # single ordinary failure: propagate it unchanged

    # ------------------------------------------------------------------
    def run(self, ctx: dict) -> DegradationReport:
        """Execute the stages over ``ctx``; returns the outcome report."""
        report = DegradationReport()
        completed: List[str] = []
        resumed: List[str] = []
        ckpt_dir = self.checkpoint_dir
        checkpointing = ckpt_dir is not None
        if ckpt_dir is not None:
            loaded = load_checkpoint(ckpt_dir, self.checkpoint_key,
                                     self.inputs)
            if loaded is not None and all(
                d.get("status") in _MODE_STATUSES[self.on_error]
                for d in loaded[1]
            ):
                resumed, outcome_dicts, saved_ctx = loaded
                ctx.clear()
                ctx.update(saved_ctx)
                for data in outcome_dicts:
                    outcome = StageOutcome.from_dict(data)
                    outcome.resumed = True
                    report.outcomes.append(outcome)
                completed = list(resumed)

        # With checkpoints, the snapshot after each stage is both the
        # file's payload and the next stage's restore point; without,
        # a snapshot is taken only before a stage that can restore it.
        snapshot: Optional[bytes] = None
        if ckpt_dir is not None:
            snapshot = self._snapshot(ctx)

        consume = 0  # how many restored stage names we have matched
        for spec in self.stages:
            if spec.enabled is not None and not spec.enabled(ctx):
                continue
            if consume < len(resumed):
                if resumed[consume] == spec.name:
                    consume += 1
                    continue
                # The saved stage list diverged from this run's stages
                # (should not happen for a well-formed key): run the
                # remainder fresh rather than trusting the mismatch.
                resumed = resumed[:consume]
            missing = [k for k in spec.requires if k not in ctx]
            if missing:
                report.outcomes.append(StageOutcome(
                    spec.name, status=STATUS_SKIPPED, path="",
                    reason="missing upstream result(s): "
                           + ", ".join(missing),
                ))
                # A skipped stage is not completed work: freeze the
                # checkpoint at the last clean prefix so a resume
                # re-attempts it rather than resuming past the hole.
                checkpointing = False
                continue
            if ckpt_dir is None:
                snapshot = self._snapshot(ctx) if self._restores(spec) else None
            outcome = self._run_stage(spec, ctx, snapshot)
            report.outcomes.append(outcome)
            if ckpt_dir is not None:
                snapshot = self._snapshot(ctx)
            if outcome.status == STATUS_SKIPPED:
                checkpointing = False
                continue
            completed.append(spec.name)
            if checkpointing and ckpt_dir is not None:
                save_checkpoint(
                    ckpt_dir, self.checkpoint_key, completed,
                    [o.to_dict() for o in report.outcomes], snapshot,
                )
        return report
