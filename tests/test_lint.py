"""repro.lint: rule fixtures, suppressions, schema, CLI, and self-check.

Each rule gets at least one positive fixture (the defect fires) and one
negative fixture (the idiomatic fix stays silent).  The dataflow rules
are additionally exercised against the *real* ``STAGE_GRAPH`` with
injected defects — the analyzer must fail loudly when a stage
declaration and its body disagree.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.pipeline import SEED_KEYS, STAGE_GRAPH
from repro.lint import (
    LINT_REPORT_SCHEMA,
    LintEngine,
    check_stage_graph,
    collect_ctx_effects,
    parse_suppressions,
    validate_report,
)
from repro.lint.rules.dataflow import dataflow_rules

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]
PIPELINE_PATH = REPO / "src" / "repro" / "core" / "pipeline.py"


def lint_source(source, rule_ids=None, path="fixture.py"):
    return LintEngine(rule_ids=rule_ids).lint_sources([(path, source)])


def fired(report):
    return sorted({f.rule for f in report.findings})


# ---------------------------------------------------------------------------
# Determinism rules
# ---------------------------------------------------------------------------
def test_det001_wall_clock_fires():
    report = lint_source(
        "import time\n"
        "def stage(ctx):\n"
        "    ctx['t'] = time.time()\n",
        rule_ids=["DET001"],
    )
    assert fired(report) == ["DET001"]
    assert report.findings[0].line == 3


def test_det001_sees_through_import_alias():
    report = lint_source(
        "import time as _time\n"
        "t0 = _time.perf_counter()\n",
        rule_ids=["DET001"],
    )
    assert fired(report) == ["DET001"]


def test_det001_silent_without_clock_read():
    report = lint_source(
        "import time\n"
        "def stage(ctx):\n"
        "    ctx['t'] = 0.0\n",
        rule_ids=["DET001"],
    )
    assert report.findings == []


def test_det002_global_rng_and_unseeded_generator():
    report = lint_source(
        "import random\n"
        "a = random.random()\n"
        "b = random.Random()\n"
        "random.seed(0)\n",
        rule_ids=["DET002"],
    )
    assert [f.rule for f in report.findings] == ["DET002"] * 3


def test_det002_seeded_instance_is_fine():
    report = lint_source(
        "import random\n"
        "rng = random.Random(1234)\n"
        "x = rng.random()\n",
        rule_ids=["DET002"],
    )
    assert report.findings == []


def test_det003_set_iteration_feeding_ordered_output():
    report = lint_source(
        "s = {1, 2, 3}\n"
        "out = []\n"
        "for x in s | {4}:\n"
        "    out.append(x)\n"
        "items = [x for x in {'a', 'b'}]\n"
        "sep = ','\n"
        "joined = sep.join(str(x) for x in set(out))\n",
        rule_ids=["DET003"],
    )
    assert [f.rule for f in report.findings] == ["DET003"] * 3


def test_det003_sorted_and_order_neutral_consumers_are_fine():
    report = lint_source(
        "s = {1, 2, 3}\n"
        "for x in sorted(s):\n"
        "    pass\n"
        "n = len([x for x in {1, 2}])\n"
        "m = max(x for x in [1, 2])\n"
        "t = {x for x in {1, 2}}\n",
        rule_ids=["DET003"],
    )
    assert report.findings == []


def test_det004_environment_reads():
    report = lint_source(
        "import os\n"
        "a = os.environ['HOME']\n"
        "b = os.getenv('THREADS')\n"
        "c = os.environ.get('SEED')\n",
        rule_ids=["DET004"],
    )
    assert [f.rule for f in report.findings] == ["DET004"] * 3


def test_det004_environ_write_is_not_a_read():
    report = lint_source(
        "import os\n"
        "os.environ['X'] = '1'\n",
        rule_ids=["DET004"],
    )
    assert report.findings == []


def test_det005_sum_over_set():
    report = lint_source(
        "vals = {0.1, 0.2}\n"
        "a = sum(vals | set())\n"
        "b = sum(v for v in {0.1, 0.2})\n",
        rule_ids=["DET005"],
    )
    assert [f.rule for f in report.findings] == ["DET005"] * 2


def test_det005_sorted_sum_and_fsum_are_fine():
    report = lint_source(
        "import math\n"
        "vals = {0.1, 0.2}\n"
        "a = sum(sorted(vals))\n"
        "b = math.fsum(vals)\n",
        rule_ids=["DET005"],
    )
    assert report.findings == []


def test_determinism_scope_excludes_unreachable_modules(tmp_path):
    # A miniature package whose pipeline module imports `used` but not
    # `unused`: the clock read is flagged only inside the import closure.
    pkg = tmp_path / "repro"
    (pkg / "core").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "core" / "__init__.py").write_text("")
    (pkg / "core" / "pipeline.py").write_text(
        "from repro.core import used\n"
    )
    (pkg / "core" / "used.py").write_text(
        "import time\nt = time.time()\n"
    )
    (pkg / "core" / "unused.py").write_text(
        "import time\nt = time.time()\n"
    )
    report = LintEngine(rule_ids=["DET001"]).lint_paths([str(tmp_path)])
    flagged = {Path(f.path).name for f in report.findings}
    assert flagged == {"used.py"}


# ---------------------------------------------------------------------------
# Concurrency / IO rules
# ---------------------------------------------------------------------------
def test_conc001_replace_without_fsync():
    report = lint_source(
        "import os\n"
        "def put(tmp, path, data):\n"
        "    with open(tmp, 'w') as fh:\n"
        "        fh.write(data)\n"
        "    os.replace(tmp, path)\n",
        rule_ids=["CONC001"],
    )
    assert fired(report) == ["CONC001"]


def test_conc001_fsync_before_replace_is_fine():
    report = lint_source(
        "import os\n"
        "def put(tmp, path, data):\n"
        "    with open(tmp, 'w') as fh:\n"
        "        fh.write(data)\n"
        "        fh.flush()\n"
        "        os.fsync(fh.fileno())\n"
        "    os.replace(tmp, path)\n",
        rule_ids=["CONC001"],
    )
    assert report.findings == []


def test_conc002_module_mutable_in_process_pool_module():
    report = lint_source(
        "import multiprocessing\n"
        "CACHE = {}\n"
        "LIMITS = (1, 2)\n",
        rule_ids=["CONC002"],
    )
    assert fired(report) == ["CONC002"]
    assert len(report.findings) == 1  # the tuple is immutable


def test_conc002_silent_without_process_pools():
    report = lint_source(
        "CACHE = {}\n",
        rule_ids=["CONC002"],
    )
    assert report.findings == []


def test_conc003_bare_acquire_fires():
    report = lint_source(
        "import threading\n"
        "lock = threading.Lock()\n"
        "def f():\n"
        "    lock.acquire()\n"
        "    work()\n"
        "    lock.release()\n",
        rule_ids=["CONC003"],
    )
    assert fired(report) == ["CONC003"]


def test_conc003_try_finally_release_is_fine():
    report = lint_source(
        "import threading\n"
        "lock = threading.Lock()\n"
        "def f():\n"
        "    lock.acquire()\n"
        "    try:\n"
        "        work()\n"
        "    finally:\n"
        "        lock.release()\n"
        "def g():\n"
        "    with lock:\n"
        "        work()\n",
        rule_ids=["CONC003"],
    )
    assert report.findings == []


_PER_CANDIDATE_LOOP = (
    "def dependency_merge_round(state, src, dst):\n"
    "    for a, b in zip(src.tolist(), dst.tolist()):\n"
    "        state.dsu.union(a, b)\n"
)


def test_conc004_per_candidate_union_loop_in_kernel_module():
    report = lint_source(
        _PER_CANDIDATE_LOOP,
        rule_ids=["CONC004"],
        path="src/repro/core/columnar.py",
    )
    assert fired(report) == ["CONC004"]
    assert "batch_union" in report.findings[0].message


def test_conc004_candidate_stream_loop_fires():
    report = lint_source(
        "def run(state):\n"
        "    for a, b in state.merge_candidates():\n"
        "        state.dsu.find(a)\n",
        rule_ids=["CONC004"],
        path="unionfind.py",
    )
    assert fired(report) == ["CONC004"]


def test_conc004_scoped_to_merge_kernel_modules():
    # The identical loop is fine elsewhere — e.g. the explicit
    # per-candidate fallback rungs in merges.py.
    report = lint_source(
        _PER_CANDIDATE_LOOP,
        rule_ids=["CONC004"],
        path="src/repro/core/merges.py",
    )
    assert report.findings == []


def test_conc004_batched_kernel_shape_is_fine():
    # The batch_union kernel itself: iterates pre-converted plain lists
    # with inlined finds — no per-element union()/find() attribute calls.
    report = lint_source(
        "def batch_union(parent, size, a_ids, b_ids):\n"
        "    a_ids = list(a_ids)\n"
        "    b_ids = list(b_ids)\n"
        "    merged = 0\n"
        "    for a, b in zip(a_ids, b_ids):\n"
        "        while parent[a] != a:\n"
        "            parent[a] = parent[parent[a]]\n"
        "            a = parent[a]\n"
        "        merged += 1\n"
        "    return merged\n",
        rule_ids=["CONC004"],
        path="src/repro/core/unionfind.py",
    )
    assert report.findings == []


def test_conc004_loop_without_union_in_body_is_fine():
    report = lint_source(
        "def summarize(src):\n"
        "    out = []\n"
        "    for a in src.tolist():\n"
        "        out.append(a + 1)\n"
        "    return out\n",
        rule_ids=["CONC004"],
        path="columnar.py",
    )
    assert report.findings == []


_NAKED_AWAITED_READ = (
    "async def handle(reader):\n"
    "    line = await reader.readline()\n"
    "    return line\n"
)


def test_conc005_awaited_read_without_deadline_fires():
    report = lint_source(
        _NAKED_AWAITED_READ,
        rule_ids=["CONC005"],
        path="src/repro/serve/app.py",
    )
    assert fired(report) == ["CONC005"]
    assert "wait_for" in report.findings[0].message
    assert report.findings[0].severity == "warning"


def test_conc005_wait_for_wrapped_read_is_fine():
    report = lint_source(
        "import asyncio\n"
        "async def handle(reader, deadline):\n"
        "    line = await asyncio.wait_for(reader.readline(), deadline)\n"
        "    body = await asyncio.wait_for(reader.readexactly(10), deadline)\n"
        "    return line + body\n",
        rule_ids=["CONC005"],
        path="src/repro/serve/app.py",
    )
    assert report.findings == []


def test_conc005_scoped_to_serve_modules():
    # The identical naked read is fine outside the service layer.
    report = lint_source(
        _NAKED_AWAITED_READ,
        rule_ids=["CONC005"],
        path="src/repro/trace/reader.py",
    )
    assert report.findings == []


def test_conc005_urlopen_without_timeout_fires():
    report = lint_source(
        "import urllib.request\n"
        "def fetch(url):\n"
        "    return urllib.request.urlopen(url).read()\n",
        rule_ids=["CONC005"],
        path="src/repro/serve/client.py",
    )
    assert fired(report) == ["CONC005"]
    assert "timeout" in report.findings[0].message


def test_conc005_urlopen_with_timeout_is_fine():
    report = lint_source(
        "import urllib.request\n"
        "def fetch(url):\n"
        "    return urllib.request.urlopen(url, timeout=30.0).read()\n",
        rule_ids=["CONC005"],
        path="src/repro/serve/client.py",
    )
    assert report.findings == []


def test_conc005_all_reads_in_shipped_serve_modules_have_deadlines():
    # Self-check: the real service front end and client must satisfy
    # their own lint rule.
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "src/repro/serve"
    sources = [(f"src/repro/serve/{p.name}", p.read_text())
               for p in sorted(root.glob("*.py"))]
    report = LintEngine(rule_ids=["CONC005"]).lint_sources(sources)
    assert report.findings == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------
def test_suppression_with_reason_moves_finding_to_suppressed():
    report = lint_source(
        "import time\n"
        "t = time.time()  # repro-lint: disable=DET001 reason=telemetry\n",
        rule_ids=["DET001"],
    )
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_suppression_own_line_applies_to_next_code_line():
    report = lint_source(
        "import time\n"
        "# repro-lint: disable=DET001 reason=telemetry\n"
        "t = time.time()\n",
        rule_ids=["DET001"],
    )
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_suppression_without_reason_is_inert_and_flagged():
    report = lint_source(
        "import time\n"
        "t = time.time()  # repro-lint: disable=DET001\n",
        rule_ids=["DET001"],
    )
    assert fired(report) == ["DET001", "LNT001"]


def test_unused_suppression_warns_only_on_full_rule_set():
    source = "x = 1  # repro-lint: disable=DET001 reason=nothing here\n"
    full = lint_source(source)
    assert fired(full) == ["LNT002"]
    assert all(f.severity == "warning" for f in full.findings)
    filtered = lint_source(source, rule_ids=["DET002"])
    assert filtered.findings == []


def test_lnt_findings_cannot_be_suppressed():
    report = lint_source(
        "import time\n"
        "t = time.time()  "
        "# repro-lint: disable=DET001,LNT001\n",
        rule_ids=["DET001"],
    )
    # The directive has no reason: LNT001 fires and the directive stays
    # inert even though it names LNT001 itself.
    assert "LNT001" in fired(report)


def test_directive_inside_docstring_is_inert():
    report = lint_source(
        '"""Example: # repro-lint: disable=DET001\n\nmore text."""\n'
        "x = 1\n",
    )
    assert report.findings == []
    assert report.suppressions == []


def test_parse_suppressions_extracts_rules_and_reason():
    sups, problems = parse_suppressions(
        "x = 1  # repro-lint: disable=DET001,CONC003 reason=why not\n",
        "f.py",
    )
    assert problems == []
    assert sups[0].rules == ("DET001", "CONC003")
    assert sups[0].reason == "why not"
    assert not sups[0].file_level


def test_syntax_error_reports_lnt000():
    report = lint_source("def broken(:\n")
    assert fired(report) == ["LNT000"]


# ---------------------------------------------------------------------------
# Dataflow: the real stage graph, clean and with injected defects
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def pipeline_effects():
    tree = ast.parse(PIPELINE_PATH.read_text())
    return collect_ctx_effects(tree)


def test_real_stage_graph_is_clean(pipeline_effects):
    assert check_stage_graph(STAGE_GRAPH, SEED_KEYS, pipeline_effects) == []


def _mutate(stage_name, **changes):
    return tuple(
        dataclasses.replace(sig, **changes) if sig.name == stage_name
        else sig
        for sig in STAGE_GRAPH
    )


def test_df001_unknown_input_is_loud(pipeline_effects):
    victim = next(s for s in STAGE_GRAPH if s.name == "build_phases")
    graph = _mutate("build_phases",
                    inputs=victim.inputs + ("no_such_key",))
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF001" and f.stage == "build_phases"
               for f in findings)


def test_df001_duplicate_stage_name(pipeline_effects):
    graph = STAGE_GRAPH + (STAGE_GRAPH[-1],)
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF001" and "duplicate" in f.message
               for f in findings)


def test_df002_fallback_not_writing_primary_outputs(pipeline_effects):
    # Point a fallback at a body that writes none of the declared
    # outputs: the ladder no longer substitutes for the primary.
    donor = next(s for s in STAGE_GRAPH if s.name == "finalize")
    victim = next(s for s in STAGE_GRAPH if s.fallbacks)
    graph = _mutate(victim.name,
                    fallbacks=tuple((name, donor.body)
                                    for name, _ in victim.fallbacks))
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF002" and f.stage == victim.name
               for f in findings)


def test_df003_unguarded_degradable_consumption(pipeline_effects):
    # global_steps guards its degradable input via `requires`; dropping
    # the guard (and the non-degradable default producer) must be loud.
    degraded = _mutate("build_phases", degradable=True)
    graph = tuple(
        dataclasses.replace(s, requires=())
        if s.name == "global_steps" else s for s in degraded
    )
    no_default = tuple(s for s in graph if s.name != "local_steps")
    findings = check_stage_graph(no_default, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF003" for f in findings)


def test_df004_undeclared_hard_read(pipeline_effects):
    victim = next(s for s in STAGE_GRAPH
                  if s.name == "build_phases")
    graph = _mutate("build_phases", inputs=victim.inputs[:1])
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF004" and f.stage == "build_phases"
               for f in findings)


def test_df005_phantom_output(pipeline_effects):
    victim = next(s for s in STAGE_GRAPH if s.name == "finalize")
    graph = _mutate("finalize", outputs=victim.outputs + ("phantom",))
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF005" and "phantom" in f.message
               for f in findings)


def test_df005_derived_rung_writes_columnar_flag(pipeline_effects):
    # The derived python rung is no named body, but it turns
    # use_columnar off: a stage reading the flag must declare it written.
    victim = next(s for s in STAGE_GRAPH if s.name == "dependency_merge")
    graph = _mutate("dependency_merge", outputs=tuple(
        k for k in victim.outputs if k != "use_columnar"))
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF005" and f.stage == "dependency_merge"
               and "use_columnar" in f.message for f in findings)


@pytest.mark.parametrize("stage", ["local_steps", "global_steps"])
def test_df005_undeclared_in_place_phase_update(pipeline_effects, stage):
    # local_steps sets phase.max_local_step and global_steps sets
    # phase.offset on the objects in ctx["phases"]: in-place writes.
    victim = next(s for s in STAGE_GRAPH if s.name == stage)
    graph = _mutate(stage, outputs=tuple(
        k for k in victim.outputs if k != "phases"))
    findings = check_stage_graph(graph, SEED_KEYS, pipeline_effects)
    assert any(f.rule == "DF005" and f.stage == stage
               and "phases" in f.message for f in findings)


ALIAS_STORES = {
    "assignment": (
        "def body(ctx):\n    p = ctx['phases']\n    p.offset = 1\n",
        "def body(ctx):\n    p = ctx['phases']\n    x = p.offset\n"
        "    q = make()\n    q.offset = x\n",
    ),
    "tuple-unpacking": (
        "def body(ctx):\n    t, p = ctx['trace'], ctx['phases']\n"
        "    p[0] = t\n",
        "def body(ctx):\n    t, p = ctx['trace'], make()\n    p[0] = t\n",
    ),
    "loop-over-key": (
        "def body(ctx):\n    for p in ctx['phases']:\n"
        "        p.max_local_step = 0\n",
        "def body(ctx):\n    for p in ctx['phases']:\n"
        "        use(p.max_local_step)\n",
    ),
    "loop-over-bound-name": (
        "def body(ctx):\n    ps = ctx['phases']\n    for p in ps:\n"
        "        p.offset = 0\n",
        "def body(ctx):\n    ps = make()\n    use(ctx['phases'])\n"
        "    for p in ps:\n        p.offset = 0\n",
    ),
}


@pytest.mark.parametrize("form", sorted(ALIAS_STORES))
def test_ctx_effects_store_through_bound_name(form):
    positive, negative = ALIAS_STORES[form]
    assert collect_ctx_effects(ast.parse(positive))["body"].writes == {
        "phases"}
    assert collect_ctx_effects(ast.parse(negative))["body"].writes == set()


def test_injected_defect_surfaces_through_the_engine():
    victim = next(s for s in STAGE_GRAPH if s.name == "finalize")
    graph = _mutate("finalize", outputs=victim.outputs + ("phantom",))
    engine = LintEngine(rules=dataflow_rules(graph=graph))
    report = engine.lint_paths([str(REPO / "src" / "repro")])
    df = [f for f in report.findings if f.rule == "DF005"]
    assert df, "injected phantom output must be reported"
    # Anchored at the stage's declaration inside pipeline.py.
    assert df[0].path.endswith("pipeline.py")
    assert df[0].line > 1


# ---------------------------------------------------------------------------
# JSON report schema and CLI
# ---------------------------------------------------------------------------
def test_report_dict_validates_against_schema():
    report = lint_source(
        "import time\nt = time.time()\n", rule_ids=["DET001"]
    )
    assert validate_report(report.to_dict(), LINT_REPORT_SCHEMA) == []


def test_schema_rejects_malformed_reports():
    report = lint_source("x = 1\n").to_dict()
    report["findings"] = [{"rule": "DET001"}]  # missing required fields
    assert validate_report(report, LINT_REPORT_SCHEMA)
    bad_version = lint_source("x = 1\n").to_dict()
    bad_version["version"] = "one"
    assert validate_report(bad_version, LINT_REPORT_SCHEMA)


def test_cli_lint_json_on_dirty_file(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import time\nt = time.time()\n")
    code = main(["lint", str(target), "--json"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert validate_report(data, LINT_REPORT_SCHEMA) == []
    assert any(f["rule"] == "DET001" for f in data["findings"])


def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--fail-on", "warning"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_lint_fail_on_warning_catches_warnings(tmp_path, capsys):
    target = tmp_path / "stale.py"
    target.write_text(
        "x = 1  # repro-lint: disable=DET001 reason=stale\n"
    )
    assert main(["lint", str(target)]) == 0  # LNT002 is only a warning
    assert main(["lint", str(target), "--fail-on", "warning"]) == 1
    capsys.readouterr()


def test_cli_lint_unknown_rule_exits_two(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("x = 1\n")
    assert main(["lint", str(target), "--rules", "NOPE999"]) == 2
    assert "NOPE999" in capsys.readouterr().err


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DF001", "CONC001"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# Self-check: the shipped tree lints clean
# ---------------------------------------------------------------------------
def test_shipped_tree_is_clean():
    report = LintEngine().lint_paths([str(REPO / "src" / "repro")])
    assert report.findings == [], report.human()


def test_every_shipped_suppression_has_a_reason():
    report = LintEngine().lint_paths([str(REPO / "src" / "repro")])
    assert report.suppressions, "expected suppressions in the tree"
    for sup in report.suppressions:
        assert sup.reason.strip(), f"{sup.path}:{sup.line} lacks a reason"
