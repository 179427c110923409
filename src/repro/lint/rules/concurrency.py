"""Concurrency and IO-ordering rules for the persistence/batch layer.

The batch scheduler, structure cache, run journal, and checkpoint writer
all promise crash safety built on two idioms: *fsync before rename* (an
``os.replace`` of un-synced data can surface as a zero-length file after
power loss on common filesystems) and *no shared mutable module state*
across the fork boundary (a fork-inherited dict silently diverges
between scheduler and workers).  These rules pin both idioms, plus the
lock-release discipline that keeps watchdog threads from deadlocking a
failed stage.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.cfg import FunctionNode
from repro.lint.dataflow import dominators, postdominators
from repro.lint.engine import SEVERITY_WARNING, FileContext, Rule

_LOCKISH_RE = re.compile(r"(lock|mutex|sem(aphore)?|cond(ition)?)s?$",
                         re.IGNORECASE)

#: Module-level calls producing mutable containers.
MUTABLE_FACTORY_CALLS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
})

PROCESS_POOL_MODULES = ("multiprocessing", "concurrent.futures")


class FsyncBeforeReplaceRule(Rule):
    id = "CONC001"
    title = "os.replace not dominated by an fsync"
    rationale = (
        "os.replace is atomic for readers but not durable: renaming a "
        "file whose data was never fsync'd can leave an empty or torn "
        "target after a crash. The fsync must *dominate* the replace — "
        "happen on every path to it, not just exist earlier in the "
        "function text — so an fsync inside one branch of an if does "
        "not cover a replace after the join."
    )

    def _check_scope(self, function: FunctionNode,
                     ctx: FileContext) -> None:
        cfg = ctx.cfg(function)
        fsync_nodes: List[int] = []
        replaces: List[Tuple[int, ast.Call]] = []
        for cfg_node in cfg.nodes.values():
            for expr in cfg_node.exprs:
                for sub in ast.walk(expr):
                    if not isinstance(sub, ast.Call):
                        continue
                    qual = ctx.qualname(sub.func) or ""
                    if qual == "os.fsync" or qual.endswith(".fsync"):
                        fsync_nodes.append(cfg_node.id)
                    elif (qual == "os.replace" or qual == "fs.replace"
                          or qual.endswith(".fs.replace")):
                        replaces.append((cfg_node.id, sub))
        if not replaces:
            return
        dom = dominators(cfg)
        for node_id, call in replaces:
            node_doms = dom.get(node_id, set())
            covered = any(f == node_id or f in node_doms
                          for f in fsync_nodes)
            if not covered:
                ctx.report(self, call,
                           "os.replace() is not dominated by an "
                           "os.fsync() of the source file: on some path "
                           "the rename happens without a preceding "
                           "fsync, so a crash can surface a torn or "
                           "empty target")

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: FileContext) -> None:
        self._check_scope(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               ctx: FileContext) -> None:
        self._check_scope(node, ctx)


class ModuleMutableStateRule(Rule):
    id = "CONC002"
    title = "module-level mutable state in a process-pool module"
    rationale = (
        "A module that fans work across processes must not keep mutable "
        "module-level containers: each fork inherits a snapshot that "
        "then diverges silently from the parent. Use immutable "
        "constants, or keep state on instances passed explicitly."
    )

    def _uses_process_pools(self, ctx: FileContext) -> bool:
        return any(origin.split(".")[0] in
                   (m.split(".")[0] for m in PROCESS_POOL_MODULES)
                   or origin.startswith(PROCESS_POOL_MODULES)
                   for origin in ctx.aliases.values())

    def _is_mutable_value(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.qualname(node.func) in MUTABLE_FACTORY_CALLS
        return False

    def finish_module(self, ctx: FileContext) -> None:
        if not self._uses_process_pools(ctx):
            return
        for stmt in ctx.tree.body:
            targets: List[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not self._is_mutable_value(value, ctx):
                continue
            names = ", ".join(t.id for t in targets
                              if isinstance(t, ast.Name))
            if not names:
                continue
            ctx.report(self, stmt,
                       f"module-level mutable container {names!r} in a "
                       f"module that spawns worker processes; forked "
                       f"copies diverge silently — use an immutable "
                       f"value or instance state")


class LockDisciplineRule(Rule):
    id = "CONC003"
    title = "lock release does not post-dominate the acquire"
    rationale = (
        "An exception between acquire() and release() leaks the lock "
        "and deadlocks every later acquirer — exactly the code paths "
        "the resilience layer exists to survive. The release must "
        "post-dominate the acquire: every outcome after the acquire "
        "succeeds, normal or exceptional, must pass a release. Use "
        "`with lock:` (or try/finally)."
    )

    def _base_name(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _check_scope(self, function: FunctionNode,
                     ctx: FileContext) -> None:
        cfg = ctx.cfg(function)
        acquires: List[Tuple[int, str, ast.Call]] = []
        releases: Dict[str, Set[int]] = {}
        for cfg_node in cfg.nodes.values():
            for expr in cfg_node.exprs:
                for sub in ast.walk(expr):
                    if not (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)):
                        continue
                    base = self._base_name(sub.func.value)
                    if base is None or not _LOCKISH_RE.search(base):
                        continue
                    if sub.func.attr == "acquire":
                        acquires.append((cfg_node.id, base, sub))
                    elif sub.func.attr == "release":
                        releases.setdefault(base, set()).add(cfg_node.id)
        if not acquires:
            return
        pdom = postdominators(cfg)
        for node_id, base, call in acquires:
            # The acquire's *own* exception edge means the lock was
            # never taken — judge only flow after it succeeds: every
            # normal successor must be post-dominated by a release.
            release_nodes = releases.get(base, set())
            successors = list(cfg.normal_successors(node_id))
            held_paths_released = successors and all(
                any(r == succ or r in pdom.get(succ, set())
                    for r in release_nodes)
                for succ in successors
            )
            if not held_paths_released:
                ctx.report(self, call,
                           f"{base}.acquire() without a release on every "
                           f"path (normal and exceptional); use "
                           f"'with {base}:' or try/finally so an "
                           f"exception cannot leak the lock")

    def visit_FunctionDef(self, node: ast.FunctionDef,
                          ctx: FileContext) -> None:
        self._check_scope(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef,
                               ctx: FileContext) -> None:
        self._check_scope(node, ctx)


#: Modules CONC004 scopes to: the columnar merge-kernel layer, where a
#: per-candidate union loop defeats the batched kernel.  The python
#: reference loops live in ``merges.py`` (out of scope, by design — they
#: are the oracle and the fallback rung, not the hot path).
MERGE_KERNEL_BASENAMES = ("columnar.py", "unionfind.py")


class PerCandidateMergeLoopRule(Rule):
    id = "CONC004"
    title = "per-candidate python loop over merge candidate columns"
    rationale = (
        "The columnar merge stages exist to run one batched union pass "
        "per round; a python for-loop that walks candidate columns "
        "(tolist()/zip of columns, or a *_candidates/*_pairs stream) and "
        "unions per element reintroduces the per-candidate interpreter "
        "overhead the batched kernel removed. Emit candidate arrays and "
        "hand them to repro.core.unionfind.batch_union instead."
    )

    def _iterates_candidates(self, iter_node: ast.AST) -> bool:
        for sub in ast.walk(iter_node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                return True
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else "")
            if name.endswith("_candidates") or name.endswith("_pairs"):
                return True
        return False

    def _body_unions(self, node: ast.For) -> Optional[ast.Call]:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("union", "find")):
                    return sub
        return None

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        basename = ctx.path.replace("\\", "/").rsplit("/", 1)[-1]
        if basename not in MERGE_KERNEL_BASENAMES:
            return
        if not self._iterates_candidates(node.iter):
            return
        call = self._body_unions(node)
        if call is None:
            return
        ctx.report(self, node,
                   f"per-candidate loop over merge columns calls "
                   f".{call.func.attr}() per element; batch the round "
                   f"through repro.core.unionfind.batch_union")


#: Path fragment CONC005 scopes to: the HTTP service layer, where an
#: unbounded socket/stream read hands a slow or malicious peer
#: unlimited server (or client) time — the slow-loris shape.
SERVE_PATH_FRAGMENT = "/serve/"

#: asyncio.StreamReader methods that block until the peer sends bytes.
STREAM_READ_METHODS = frozenset({
    "read", "readline", "readexactly", "readuntil",
})


class BlockingReadDeadlineRule(Rule):
    id = "CONC005"
    severity = SEVERITY_WARNING
    title = "stream read without a deadline in a serve module"
    rationale = (
        "A socket read with no timeout lets one stalled peer pin a "
        "connection (and its coroutine or thread) forever — the "
        "slow-loris failure the serve front end must shed. Wrap awaited "
        "stream reads in asyncio.wait_for(...) under the connection's "
        "read deadline, and give every urlopen() an explicit timeout=."
    )

    def _in_scope(self, ctx: FileContext) -> bool:
        return SERVE_PATH_FRAGMENT in ctx.path.replace("\\", "/")

    def visit_Await(self, node: ast.Await, ctx: FileContext) -> None:
        if not self._in_scope(ctx):
            return
        value = node.value
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in STREAM_READ_METHODS):
            # In the sanctioned idiom the read call is an *argument* of
            # asyncio.wait_for(...), so its parent is that Call, not the
            # Await — a directly-awaited read has no deadline.
            ctx.report(self, value,
                       f"awaited {value.func.attr}() with no deadline; a "
                       f"stalled peer blocks this coroutine forever — "
                       f"wrap the read in asyncio.wait_for(...) under "
                       f"the connection's read timeout")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not self._in_scope(ctx):
            return
        qual = ctx.qualname(node.func) or ""
        if qual.rsplit(".", 1)[-1] != "urlopen":
            return
        if any(kw.arg == "timeout" for kw in node.keywords):
            return
        if len(node.args) >= 3:  # urlopen(url, data, timeout, ...)
            return
        ctx.report(self, node,
                   "urlopen() without timeout= blocks forever on an "
                   "unresponsive server; pass an explicit timeout")


def concurrency_rules() -> Tuple[Rule, ...]:
    return (FsyncBeforeReplaceRule(), ModuleMutableStateRule(),
            LockDisciplineRule(), PerCandidateMergeLoopRule(),
            BlockingReadDeadlineRule())
