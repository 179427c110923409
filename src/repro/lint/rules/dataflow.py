"""Stage-graph dataflow rules: the declared pipeline vs. its bodies.

Since the resilience rework the pipeline is declarative data — the
:data:`repro.core.pipeline.STAGE_GRAPH` tuple of
:class:`~repro.core.pipeline.StageSignature` records — materialized into
executor stages at run time.  That makes the dataflow contract statically
checkable, and these rules do exactly that, on two levels:

* **graph-only** checks (:func:`check_stage_graph` with no effects):
  every declared input has a producer, degradable outputs are only
  consumed behind a guard or an earlier default;
* **graph-vs-body** checks: a lightweight interprocedural analysis
  (:func:`collect_ctx_effects`) extracts each stage body's actual
  ``ctx[...]`` reads and writes — following helper calls that receive
  the context dict — and verifies them against the declarations, and
  every fallback against its primary.

The pure functions take the graph and effects as arguments so tests can
inject mutated copies; the :class:`Rule` wrappers resolve both from
``repro.core.pipeline`` (preferring the linted tree's copy of the module
source when present).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.engine import ProjectContext, Rule

PIPELINE_MODULE = "repro.core.pipeline"

#: The kernel-selection flag.  The pipeline derives a python rung for
#: every stage that reads it (its own body, rerun with the flag off), so
#: such a stage writes it although no named body does.
COLUMNAR_FLAG = "use_columnar"


# ----------------------------------------------------------------------
# Context-effect analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CtxEffects:
    """What one function does to the shared pipeline context dict.

    ``reads`` are hard reads (``ctx["k"]`` loads): the key must exist.
    ``soft_reads`` (``ctx.get("k")``) tolerate absence and are exempt
    from the declared-input check — they are how a body probes for an
    optional artifact.  ``writes`` cover assignment, ``ctx.pop`` and
    ``ctx.setdefault`` (both deliberately decide the key's fate), and
    in-place updates of the value: an attribute or item store through a
    local name bound to ``ctx["k"]`` (see :func:`_ctx_aliases`).
    """

    reads: FrozenSet[str]
    soft_reads: FrozenSet[str]
    writes: FrozenSet[str]


def _iter_scope(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _subscript_key(node: ast.Subscript) -> Optional[str]:
    sl: ast.AST = node.slice
    index_cls = getattr(ast, "Index", None)
    if index_cls is not None and isinstance(sl, index_cls):
        sl = sl.value  # pragma: no cover - pre-3.9 AST shape
    if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
        return sl.value
    return None


def _ctx_key(node: ast.AST, param: str) -> Optional[str]:
    """``k`` when ``node`` is the literal-key subscript ``param["k"]``."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == param):
        return _subscript_key(node)
    return None


def _ctx_aliases(fn: ast.AST, param: str) -> Dict[str, Set[str]]:
    """Local names of ``fn`` bound to context values: name -> keys.

    A name is bound to ``ctx["k"]`` by assignment (``x = ctx["k"]``,
    tuple unpacking included), as the loop variable over ``ctx["k"]``,
    or as the loop variable over a name so bound.  Flow-insensitive: a
    binding anywhere in ``fn`` counts.
    """
    direct: List[Tuple[ast.AST, ast.AST]] = []  # (target, value)
    loops: List[Tuple[str, str]] = []  # (loop variable, iterated name)
    for node in _iter_scope(fn):
        if isinstance(node, ast.Assign):
            direct.extend((t, node.value) for t in node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            direct.append((node.target, node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                if isinstance(node.iter, ast.Name):
                    loops.append((node.target.id, node.iter.id))
                else:
                    direct.append((node.target, node.iter))
    aliases: Dict[str, Set[str]] = {}
    while direct:
        target, value = direct.pop()
        if (isinstance(target, (ast.Tuple, ast.List))
                and isinstance(value, (ast.Tuple, ast.List))
                and len(target.elts) == len(value.elts)):
            direct.extend(zip(target.elts, value.elts))
        elif isinstance(target, ast.Name):
            key = _ctx_key(value, param)
            if key is not None:
                aliases.setdefault(target.id, set()).add(key)
    changed = True
    while changed:  # loop variables over aliases, to a fixed point
        changed = False
        for var, source in loops:
            keys = aliases.get(source, set()) - aliases.get(var, set())
            if keys:
                aliases.setdefault(var, set()).update(keys)
                changed = True
    return aliases


def _store_base(node: ast.AST) -> Optional[str]:
    """The local name an attribute/item store goes through, if any."""
    if not (isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, (ast.Store, ast.Del))):
        return None
    base = node.value
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value
    return base.id if isinstance(base, ast.Name) else None


def collect_ctx_effects(tree: ast.Module,
                        param: str = "ctx") -> Dict[str, CtxEffects]:
    """Per-function context effects for every function in ``tree``.

    A function participates when it has a parameter named ``param``;
    effects propagate transitively through calls that pass that
    parameter onward (``_build_phases(ctx, ...)``), so a stage body's
    entry reflects everything its helpers touch.  Dynamic keys
    (``ctx[var]``) are invisible to this analysis — the pipeline bodies
    use literal keys only, by design.  So are stores through a value
    reached any other way than a local name bound as
    :func:`_ctx_aliases` describes (an argument, an attribute chain).
    """
    functions: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node

    direct: Dict[str, Tuple[Set[str], Set[str], Set[str], Set[str]]] = {}
    for name, fn in functions.items():
        args = fn.args
        all_params = (args.posonlyargs + args.args + args.kwonlyargs
                      if hasattr(args, "posonlyargs")
                      else args.args + args.kwonlyargs)
        if not any(a.arg == param for a in all_params):
            continue
        reads: Set[str] = set()
        soft: Set[str] = set()
        writes: Set[str] = set()
        calls: Set[str] = set()
        aliases = _ctx_aliases(fn, param)
        for node in _iter_scope(fn):
            base = _store_base(node)
            if base is not None and base != param:
                writes.update(aliases.get(base, ()))
            if isinstance(node, ast.Subscript):
                key = _ctx_key(node, param)
                if key is None:
                    continue
                if isinstance(node.ctx, ast.Load):
                    reads.add(key)
                else:  # Store and Del both decide the key's fate
                    writes.add(key)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == param):
                    if node.args and isinstance(node.args[0], ast.Constant) \
                            and isinstance(node.args[0].value, str):
                        key = node.args[0].value
                        if func.attr == "get":
                            soft.add(key)
                        elif func.attr in ("pop", "setdefault"):
                            writes.add(key)
                elif isinstance(func, ast.Name) and func.id in functions:
                    passes_ctx = any(
                        isinstance(a, ast.Name) and a.id == param
                        for a in node.args
                    ) or any(
                        isinstance(kw.value, ast.Name)
                        and kw.value.id == param
                        for kw in node.keywords
                    )
                    if passes_ctx:
                        calls.add(func.id)
        direct[name] = (reads, soft, writes, calls)

    resolved: Dict[str, CtxEffects] = {}

    def resolve(name: str, stack: Tuple[str, ...]) -> CtxEffects:
        if name in resolved:
            return resolved[name]
        if name in stack or name not in direct:
            return CtxEffects(frozenset(), frozenset(), frozenset())
        reads, soft, writes, calls = direct[name]
        reads, soft, writes = set(reads), set(soft), set(writes)
        for callee in calls:
            sub = resolve(callee, stack + (name,))
            reads |= sub.reads
            soft |= sub.soft_reads
            writes |= sub.writes
        effects = CtxEffects(frozenset(reads), frozenset(soft),
                             frozenset(writes))
        resolved[name] = effects
        return effects

    return {name: resolve(name, ()) for name in direct}


# ----------------------------------------------------------------------
# Graph checks (pure functions — tests inject mutated graphs here)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphFinding:
    """One dataflow defect, attributed to a stage by name."""

    rule: str
    stage: str
    message: str


def check_stage_graph(
    graph: Sequence[object],
    seed_keys: FrozenSet[str],
    effects: Optional[Dict[str, CtxEffects]] = None,
) -> List[GraphFinding]:
    """All dataflow findings for ``graph``.

    Graph-only checks (DF001, DF003) always run; the body-contract
    checks (DF002, DF004, DF005) need ``effects`` from
    :func:`collect_ctx_effects` over the module defining the bodies.
    """
    findings: List[GraphFinding] = []
    seeds = frozenset(seed_keys)
    seen: Set[str] = set()

    for index, sig in enumerate(graph):
        if sig.name in seen:
            findings.append(GraphFinding(
                "DF001", sig.name,
                f"duplicate stage name {sig.name!r} in the stage graph",
            ))
        seen.add(sig.name)
        earlier = graph[:index]

        for key in sig.inputs:
            if key in seeds:
                continue
            producers = [p for p in earlier if key in p.outputs
                         and p.condition in ("", sig.condition)]
            if not producers:
                findings.append(GraphFinding(
                    "DF001", sig.name,
                    f"input {key!r} of stage {sig.name!r} is not a seed "
                    f"key and no unconditional (or same-condition) "
                    f"predecessor produces it",
                ))
                continue
            degraders = [p for p in earlier
                         if p.degradable and key in p.outputs]
            if not degraders:
                continue
            guarded = any(set(sig.requires) & set(d.outputs)
                          for d in degraders)
            defaulted = any(key in p.outputs for p in earlier
                            if not p.degradable)
            if not (guarded or defaulted):
                findings.append(GraphFinding(
                    "DF003", sig.name,
                    f"stage {sig.name!r} consumes {key!r} from degradable "
                    f"stage {degraders[-1].name!r} without a requires= "
                    f"guard or an earlier non-degradable default; a "
                    f"degraded run would read a missing key",
                ))

        for req in sig.requires:
            if not any(req in p.outputs for p in earlier):
                findings.append(GraphFinding(
                    "DF001", sig.name,
                    f"requires key {req!r} of stage {sig.name!r} is not "
                    f"produced by any predecessor, so the stage could "
                    f"never run",
                ))

    if effects is None:
        return findings

    for sig in graph:
        ladder: List[Tuple[str, Optional[CtxEffects]]] = [
            (sig.body, effects.get(sig.body))
        ]
        for _, fallback_body in sig.fallbacks:
            ladder.append((fallback_body, effects.get(fallback_body)))
        for body_name, body_effects in ladder:
            if body_effects is None:
                findings.append(GraphFinding(
                    "DF005", sig.name,
                    f"stage {sig.name!r} names body {body_name!r}, which "
                    f"is not a known context-taking function",
                ))
        known = [(n, e) for n, e in ladder if e is not None]
        if not known:
            continue

        primary = known[0][1] if known[0][0] == sig.body else None
        declared_out = set(sig.outputs)
        if primary is not None:
            required = declared_out & primary.writes
            for body_name, body_effects in known[1:]:
                missing = required - body_effects.writes
                if missing:
                    findings.append(GraphFinding(
                        "DF002", sig.name,
                        f"fallback {body_name!r} of stage {sig.name!r} "
                        f"does not produce declared output(s) "
                        f"{', '.join(sorted(missing))} that the primary "
                        f"body writes; falling back would change the "
                        f"stage's signature",
                    ))

        declared_in = set(sig.inputs)
        for body_name, body_effects in known:
            undeclared = body_effects.reads - declared_in
            if undeclared:
                findings.append(GraphFinding(
                    "DF004", sig.name,
                    f"body {body_name!r} of stage {sig.name!r} reads "
                    f"undeclared context key(s) "
                    f"{', '.join(sorted(undeclared))}; checkpoint resume "
                    f"and the executor's requires= skipping cannot see "
                    f"these reads",
                ))

        all_writes: Set[str] = set()
        for _, body_effects in known:
            all_writes |= body_effects.writes
        if COLUMNAR_FLAG in declared_in or sig.fallbacks:
            all_writes.add(COLUMNAR_FLAG)  # every rung turns the flag off
        unproduced = [k for k in sig.outputs
                      if k not in all_writes and k not in declared_in]
        if unproduced:
            findings.append(GraphFinding(
                "DF005", sig.name,
                f"declared output(s) {', '.join(sorted(unproduced))} of "
                f"stage {sig.name!r} are neither written by any ladder "
                f"body nor in-place-updatable inputs",
            ))
        undeclared_writes = all_writes - declared_out
        if undeclared_writes:
            findings.append(GraphFinding(
                "DF005", sig.name,
                f"stage {sig.name!r} bodies write undeclared context "
                f"key(s) {', '.join(sorted(undeclared_writes))}; declare "
                f"them as outputs so downstream dataflow reasoning (and "
                f"checkpoint audits) can see them",
            ))
    return findings


def stage_graph_lines(tree: ast.Module) -> Dict[str, int]:
    """Map stage name -> line of its ``StageSignature(...)`` entry."""
    lines: Dict[str, int] = {}
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "STAGE_GRAPH"
                   for t in targets):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            for element in value.elts:
                if (isinstance(element, ast.Call) and element.args
                        and isinstance(element.args[0], ast.Constant)
                        and isinstance(element.args[0].value, str)):
                    lines[element.args[0].value] = element.lineno
    return lines


# ----------------------------------------------------------------------
# Rule wrappers
# ----------------------------------------------------------------------
class StageGraphAnalysis:
    """Shared, lazily-computed dataflow findings for one rule set.

    All five DF rules report slices of one analysis, so the graph is
    loaded and the pipeline module parsed once per lint run.  Tests
    inject ``graph``/``seed_keys``/``module_source`` to lint a mutated
    graph against the real (or a fixture) pipeline module.
    """

    def __init__(self, graph: Optional[Sequence[object]] = None,
                 seed_keys: Optional[FrozenSet[str]] = None,
                 module_source: Optional[str] = None,
                 module_path: Optional[str] = None) -> None:
        self._graph = graph
        self._seed_keys = seed_keys
        self._module_source = module_source
        self._module_path = module_path
        self._cache: Optional[List[Tuple[str, int, GraphFinding]]] = None
        self._cache_project: Optional[int] = None

    def findings(
        self, project: ProjectContext
    ) -> List[Tuple[str, int, GraphFinding]]:
        if self._cache is not None and self._cache_project == id(project):
            return self._cache
        self._cache = self._compute(project)
        self._cache_project = id(project)
        return self._cache

    # ------------------------------------------------------------------
    def _compute(
        self, project: ProjectContext
    ) -> List[Tuple[str, int, GraphFinding]]:
        try:
            graph, seeds = self._graph, self._seed_keys
            if graph is None or seeds is None:
                from repro.core import pipeline as pipeline_module

                if graph is None:
                    graph = pipeline_module.STAGE_GRAPH
                if seeds is None:
                    seeds = pipeline_module.SEED_KEYS
            path, tree = self._pipeline_tree(project)
        except Exception as exc:  # degraded environment: one loud finding
            return [("<stage-graph>", 1, GraphFinding(
                "DF001", "<graph>",
                f"stage graph unavailable: {type(exc).__name__}: {exc}",
            ))]
        effects = collect_ctx_effects(tree)
        anchors = stage_graph_lines(tree)
        return [
            (path, anchors.get(finding.stage, 1), finding)
            for finding in check_stage_graph(graph, seeds, effects)
        ]

    def _pipeline_tree(
        self, project: ProjectContext
    ) -> Tuple[str, ast.Module]:
        if self._module_source is not None:
            path = self._module_path or "<pipeline>"
            return path, ast.parse(self._module_source, filename=path)
        in_tree = project.modules.get(PIPELINE_MODULE)
        if in_tree is not None:
            return in_tree.path, in_tree.tree
        from repro.core import pipeline as pipeline_module

        path = pipeline_module.__file__ or "<pipeline>"
        return path, ast.parse(Path(path).read_text(), filename=path)


class _StageGraphRule(Rule):
    """Base: report this rule's slice of the shared analysis."""

    def __init__(self, analysis: StageGraphAnalysis) -> None:
        self.analysis = analysis

    def check_project(self, project: ProjectContext) -> None:
        for path, line, finding in self.analysis.findings(project):
            if finding.rule == self.id:
                project.report_at(self, path, line, finding.message)


class StageInputProducedRule(_StageGraphRule):
    id = "DF001"
    title = "stage input without a producer"
    rationale = (
        "Every StageSpec input must be a seed key or the output of an "
        "unconditional (or same-condition) predecessor; otherwise the "
        "stage reads a key that some run never creates and dies with a "
        "KeyError only on that configuration."
    )


class FallbackSignatureRule(_StageGraphRule):
    id = "DF002"
    title = "fallback body diverges from the primary's signature"
    rationale = (
        "A fallback that skips one of the primary's declared outputs "
        "turns a survivable stage failure into a latent KeyError several "
        "stages downstream — the exact failure mode the ladder exists to "
        "prevent."
    )


class DegradableConsumptionRule(_StageGraphRule):
    id = "DF003"
    title = "degradable output consumed without a guard"
    rationale = (
        "A degradable stage may be skipped entirely under "
        "on_error='degrade'. Its outputs may only be consumed behind a "
        "requires= guard or after an earlier non-degradable stage seeded "
        "a default."
    )


class UndeclaredReadRule(_StageGraphRule):
    id = "DF004"
    title = "stage body reads an undeclared context key"
    rationale = (
        "Checkpoint resume restores exactly the declared dataflow; a "
        "read the signature does not declare can see stale or missing "
        "data after a resume, and the executor's requires= skipping "
        "cannot account for it."
    )


class OutputContractRule(_StageGraphRule):
    id = "DF005"
    title = "declared outputs disagree with the body's writes"
    rationale = (
        "The declarations are the single source of truth for dataflow "
        "tooling: an output no body produces (or a write no signature "
        "declares) silently invalidates every conclusion drawn from the "
        "graph."
    )


def dataflow_rules(
    graph: Optional[Sequence[object]] = None,
    seed_keys: Optional[FrozenSet[str]] = None,
    module_source: Optional[str] = None,
    module_path: Optional[str] = None,
) -> Tuple[Rule, ...]:
    analysis = StageGraphAnalysis(graph, seed_keys, module_source,
                                  module_path)
    return (
        StageInputProducedRule(analysis),
        FallbackSignatureRule(analysis),
        DegradableConsumptionRule(analysis),
        UndeclaredReadRule(analysis),
        OutputContractRule(analysis),
    )
