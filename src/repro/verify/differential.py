"""Differential verification: run the pipeline under variant options and
assert both the per-variant invariants and the cross-variant facts the
paper guarantees.

The extraction has three ablation axes (Section 3's knobs): event order
("reordered" vs "physical"), the Section 3.1.4 inference ("infer" on/off),
and the reorder tie-break.  Phase *finding* never looks at the order or
the tie-break — those only rearrange events inside phases — so variants
that differ only in them must partition events into identical phases.
The one exception is reordered MPI mode, whose relaxed per-process chain
changes the stage-1 edges (Section 3.2.1, Figure 10); such variants are
compared only against variants with the same order.

Every variant also runs the full invariant suite, so
``run_differential(trace).assert_ok()`` is the one-call safety net the
performance PRs run before and after touching the hot path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineOptions, PipelineStats, extract_logical_structure
from repro.core.structure import LogicalStructure
from repro.trace.model import Trace
from repro.trace.validate import Violation
from repro.verify.invariants import InvariantViolationError, check_structure


@dataclass
class VariantResult:
    """One pipeline run of the differential matrix."""

    name: str
    options: PipelineOptions
    structure: LogicalStructure
    stats: PipelineStats
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "variant": self.name,
            "phases": len(self.structure.phases),
            "max_step": self.structure.max_step,
            "stage_seconds": dict(self.stats.stage_seconds),
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class DifferentialReport:
    """All variant runs plus the cross-variant comparison results."""

    results: List[VariantResult]
    cross_violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cross_violations and all(r.ok for r in self.results)

    def all_violations(self) -> List[Violation]:
        out: List[Violation] = []
        for r in self.results:
            out.extend(r.violations)
        out.extend(self.cross_violations)
        return out

    def assert_ok(self) -> None:
        """Raise :class:`InvariantViolationError` unless every check passed."""
        if not self.ok:
            raise InvariantViolationError(
                "differential verification failed", self.all_violations()
            )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "variants": [r.to_dict() for r in self.results],
            "cross_violations": [v.to_dict() for v in self.cross_violations],
        }


def default_variants(
    tie_breaks: bool = True, backends: bool = True
) -> List[Tuple[str, PipelineOptions]]:
    """The standard matrix: order × infer, plus tie-break and backend twins.

    Base variants pin ``backend="python"`` — the reference implementation.
    With ``backends=True`` columnar twins join the matrix; Fact 3 then
    asserts they are *bit-identical* to their python counterparts, not
    merely partition-equivalent.
    """
    variants: List[Tuple[str, PipelineOptions]] = []
    for order in ("reordered", "physical"):
        for infer in (True, False):
            name = f"{order}/{'infer' if infer else 'noinfer'}"
            variants.append(
                (name, PipelineOptions(order=order, infer=infer, backend="python"))
            )
    if tie_breaks:
        variants.append(
            ("reordered/infer/index",
             PipelineOptions(order="reordered", infer=True, tie_break="index",
                             backend="python"))
        )
    if backends:
        variants.append(
            ("reordered/infer/columnar",
             PipelineOptions(order="reordered", infer=True, backend="columnar"))
        )
        variants.append(
            ("physical/noinfer/columnar",
             PipelineOptions(order="physical", infer=False, backend="columnar"))
        )
    return variants


def _partition_signature(structure: LogicalStructure) -> frozenset:
    """The event partition induced by the phases, order-insensitive."""
    return frozenset(frozenset(p.events) for p in structure.phases)


def _comparison_group(trace: Trace, options: PipelineOptions) -> Tuple:
    """Variants in one group must produce identical phase partitions.

    Phase finding depends on the model, the inference switch, and — for
    MPI traces only — the order (via the relaxed chain).  The tie-break
    never affects it.
    """
    mode = options.resolve_mode(trace)
    if mode == "mpi":
        return (mode, options.infer, options.order)
    return (mode, options.infer)


def run_differential(
    trace: Trace,
    variants: Optional[Sequence[Tuple[str, PipelineOptions]]] = None,
) -> DifferentialReport:
    """Extract ``trace`` under every variant and cross-check the results."""
    chosen = list(variants) if variants is not None else default_variants()
    results: List[VariantResult] = []
    for name, options in chosen:
        stats = PipelineStats()
        structure = extract_logical_structure(trace, options=options, stats=stats)
        violations = check_structure(structure)
        results.append(VariantResult(name, options, structure, stats, violations))

    cross: List[Violation] = []

    # Fact 1: the set of stepped events is option-independent (blocks and
    # their events never depend on the pipeline knobs).
    stepped = [
        (r.name, frozenset(
            ev for ev, s in enumerate(r.structure.step_of_event) if s >= 0
        ))
        for r in results
    ]
    for (name_a, evs_a), (name_b, evs_b) in zip(stepped, stepped[1:]):
        if evs_a != evs_b:
            delta = evs_a.symmetric_difference(evs_b)
            cross.append(Violation(
                "differential-stepped-events",
                f"variants {name_a} and {name_b} step different event sets "
                f"({len(delta)} events differ)",
                tuple(sorted(delta)[:10]),
            ))

    # Fact 2: within a comparison group the phase event-partitions match.
    groups: Dict[Tuple, VariantResult] = {}
    for r in results:
        key = _comparison_group(trace, r.options)
        first = groups.setdefault(key, r)
        if first is r:
            continue
        sig_a = _partition_signature(first.structure)
        sig_b = _partition_signature(r.structure)
        if sig_a != sig_b:
            cross.append(Violation(
                "differential-partitions",
                f"variants {first.name} and {r.name} disagree on the phase "
                f"event-partition ({len(sig_a)} vs {len(sig_b)} phases)",
            ))

    # Fact 3: the backend is a pure implementation detail — variants whose
    # options differ only in it must assign bit-identical steps and phases.
    twins: Dict[Tuple, VariantResult] = {}
    for r in results:
        base = dataclasses.replace(r.options, backend="python", hooks=None)
        key = (base.mode, base.order, base.infer, base.enforce_properties,
               base.tie_break, base.absorb_tolerance)
        first = twins.setdefault(key, r)
        if first is r:
            continue
        if (first.structure.step_of_event != r.structure.step_of_event
                or first.structure.phase_of_event != r.structure.phase_of_event):
            cross.append(Violation(
                "differential-backend",
                f"variants {first.name} and {r.name} differ only in backend "
                "but disagree on step or phase assignments",
            ))

    return DifferentialReport(results, cross)
