"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro simulate jacobi2d --chares 8x8 --pes 8 --iterations 2 -o t.jsonl
    repro analyze t.jsonl --render logical --metric diffdur
    repro analyze t.jsonl --svg structure.svg --csv events.csv
    repro validate t.jsonl
    repro verify t.jsonl --differential --json
    repro sync skewed.jsonl -o fixed.jsonl --min-latency 0.5
    repro serve --data-dir /var/lib/repro --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core import PipelineOptions, PipelineStats, extract_logical_structure
from repro.core.patterns import kind_sequence, repeating_unit
from repro.core.pipeline import OPTION_CHOICES
from repro.trace import validate_trace, write_trace
from repro.trace.clocksync import count_violations, synchronize_trace
from repro.trace.validate import TraceValidationError


def _parse_chares(text: str):
    if "x" in text:
        parts = tuple(int(p) for p in text.split("x"))
        return parts
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float with a clear error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if value != value or value <= 0:  # NaN or non-positive
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a float >= 0 with a clear error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if value != value or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0 with a clear error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 with a clear error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    """Install the shared extraction-pipeline flags on ``parser``.

    Every subcommand that runs the pipeline (analyze, report, diff,
    verify, batch) takes the same knobs; this is the one place they are
    declared so help text and defaults cannot drift apart.
    """
    parser.add_argument("--order", choices=OPTION_CHOICES["order"],
                        default="reordered")
    parser.add_argument("--mode", choices=OPTION_CHOICES["mode"],
                        default="auto")
    parser.add_argument("--infer", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="Section 3.1.4 inference (--no-infer for "
                             "Figure 17 mode)")
    parser.add_argument("--tie-break", choices=OPTION_CHOICES["tie_break"],
                        default="chare_id")
    parser.add_argument("--backend", choices=OPTION_CHOICES["backend"],
                        default="auto",
                        help="pipeline kernels: columnar (NumPy + batched "
                             "union-find merges) or the pure-python "
                             "reference; auto is columnar; "
                             "columnar_batched is an alias of columnar")
    parser.add_argument("--repair", choices=OPTION_CHOICES["repair"],
                        default="off",
                        help="pre-extraction trace repair: warn reports "
                             "defects, fix repairs what is safely repairable")
    parser.add_argument("--on-error", choices=OPTION_CHOICES["on_error"],
                        default="raise",
                        help="stage-failure policy: raise (fail fast), "
                             "fallback (try each stage's safe paths), degrade "
                             "(also accept a partial result)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write atomic between-stage checkpoints to DIR; "
                             "an interrupted run with the same trace+options "
                             "resumes after its last completed stage")
    parser.add_argument("--stage-deadline", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per stage; a breach "
                             "soft-aborts the stage (handled per --on-error)")
    parser.add_argument("--max-rss-mb", type=_positive_float, default=None,
                        metavar="MIB",
                        help="process RSS ceiling while a stage runs; a "
                             "breach soft-aborts the stage")
    parser.add_argument("--hook-errors", choices=OPTION_CHOICES["hook_errors"],
                        default="warn",
                        help="user stage-hook exceptions: warn and continue "
                             "(default) or abort extraction")


def pipeline_options_from_args(args: argparse.Namespace) -> PipelineOptions:
    """Build :class:`PipelineOptions` from :func:`add_pipeline_options` args."""
    return PipelineOptions(
        mode=args.mode, order=args.order, infer=args.infer,
        tie_break=args.tie_break, backend=args.backend,
        repair=args.repair,
        on_error=args.on_error, checkpoint_dir=args.checkpoint_dir,
        stage_deadline=args.stage_deadline, max_rss_mb=args.max_rss_mb,
        hook_errors=args.hook_errors,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro import apps

    name = args.app
    kwargs = {"seed": args.seed}
    if name == "jacobi2d":
        shape = _parse_chares(args.chares or "8x8")
        trace = apps.jacobi2d.run(chares=shape, pes=args.pes,
                                  iterations=args.iterations, **kwargs)
    elif name == "lulesh":
        if args.model == "mpi":
            trace = apps.lulesh.run_mpi(ranks=args.ranks,
                                        iterations=args.iterations, **kwargs)
        else:
            trace = apps.lulesh.run_charm(chares=int(args.chares or 8),
                                          pes=args.pes,
                                          iterations=args.iterations, **kwargs)
    elif name == "lassen":
        if args.model == "mpi":
            trace = apps.lassen.run_mpi(ranks=args.ranks,
                                        iterations=args.iterations, **kwargs)
        else:
            trace = apps.lassen.run_charm(chares=int(args.chares or 8),
                                          pes=args.pes,
                                          iterations=args.iterations, **kwargs)
    elif name == "pdes":
        trace = apps.pdes.run(chares=int(args.chares or 16), pes=args.pes, **kwargs)
    elif name == "mergetree":
        trace = apps.mergetree.run(ranks=args.ranks, **kwargs)
    elif name == "nasbt":
        trace = apps.nasbt.run(ranks=args.ranks, iterations=args.iterations,
                               **kwargs)
    else:
        print(f"unknown app {name!r}", file=sys.stderr)
        return 2
    write_trace(trace, args.output)
    print(f"wrote {args.output}: {trace}")
    return 0


class TraceLoadError(Exception):
    """A trace the CLI cannot read; ``main`` reports it and returns 2."""


def _load(path: str):
    from repro.trace import open_trace
    from repro.trace.reader import TraceFormatError

    try:
        return open_trace(path).trace()
    except OSError as exc:
        raise TraceLoadError(f"{path}: {exc.strerror or exc}") from exc
    except TraceFormatError as exc:
        raise TraceLoadError(f"{path}: {exc}") from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.json and args.render:
        print("--render draws text, which --json output cannot carry; "
              "drop one of them", file=sys.stderr)
        return 2
    trace = _load(args.trace)
    options = pipeline_options_from_args(args)
    stats = PipelineStats()
    structure = extract_logical_structure(trace, options=options, stats=stats)

    metric_map = None
    if args.metric:
        from repro import metrics as m

        if args.metric == "diffdur":
            metric_map = m.differential_duration(structure).by_event
        elif args.metric == "idle":
            metric_map = m.idle_experienced(structure).by_event
        elif args.metric == "imbalance":
            metric_map = m.imbalance(structure).by_event
        elif args.metric == "lateness":
            metric_map = m.lateness(structure)
        else:
            print(f"unknown metric {args.metric!r}", file=sys.stderr)
            return 2

    attached = None if metric_map is None else {args.metric: metric_map}
    if args.json:
        from repro.report import analysis_document, render_document

        doc = analysis_document(structure, stats, attached)
        sys.stdout.write(render_document(doc))
        _write_exports(args, structure, metric_map, attached)
        return 0

    print(structure.summary())
    if stats.repair is not None:
        from repro.trace.repair import RepairReport

        print(f"repair: {RepairReport.from_dict(stats.repair).summary()}")
    if structure.degradation is not None and structure.degradation.degraded:
        print(f"degraded: {structure.degradation.summary()}")
    print(f"phase kinds: {kind_sequence(structure)}")
    unit = repeating_unit(structure, min_repeats=2)
    if unit:
        print(f"repeating unit ({unit[0]['repeats']}x):")
        for entry in unit:
            sig = ", ".join(f"{n.split('::')[-1]}x{c}"
                            for n, c in entry["signature"])
            print(f"  [{entry['kind']:11s}] {sig}")

    if args.render or metric_map is not None:
        from repro.viz import render_logical, render_metric, render_physical

        if metric_map is not None:
            print(render_metric(structure, metric_map, max_steps=args.max_steps))
        elif args.render == "physical":
            print(render_physical(trace, structure))
        else:
            print(render_logical(structure, max_steps=args.max_steps))

    _write_exports(args, structure, metric_map, attached)
    return 0


def _write_exports(args, structure, metric_map, attached) -> None:
    """Write the ``--svg``/``--html``/``--csv`` files ``analyze`` asked for.

    With ``--json``, stdout is exactly the document, so the ``wrote``
    notices go to stderr.
    """
    notices = sys.stderr if args.json else sys.stdout
    if args.svg:
        from repro.viz import write_svg

        write_svg(structure, args.svg, metric=metric_map,
                  max_steps=args.max_steps)
        print(f"wrote {args.svg}", file=notices)
    if args.html:
        from repro.viz import write_html

        write_html(structure, args.html, metric=metric_map,
                   metric_name=args.metric or "",
                   title=f"Logical structure: {args.trace}")
        print(f"wrote {args.html}", file=notices)
    if args.csv:
        from repro.viz import write_csv

        write_csv(structure, args.csv, attached)
        print(f"wrote {args.csv}", file=notices)


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.metrics import profile_table, usage_profile

    trace = _load(args.trace)
    print(profile_table(usage_profile(trace), top=args.top))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro import metrics as m
    from repro.viz import cluster_timelines, render_clustered

    trace = _load(args.trace)
    structure = extract_logical_structure(trace)
    if args.metric == "idle":
        metric = m.idle_experienced(structure).by_event
    elif args.metric == "imbalance":
        metric = m.imbalance(structure).by_event
    else:
        metric = m.differential_duration(structure).by_event
    clusters = cluster_timelines(structure, metric, k=args.k)
    print(render_clustered(structure, metric, clusters,
                           max_steps=args.max_steps))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import performance_report

    trace = _load(args.trace)
    structure = extract_logical_structure(
        trace, options=pipeline_options_from_args(args)
    )
    print(performance_report(structure, top=args.top))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.diff import diff_structures

    options = pipeline_options_from_args(args)
    left = extract_logical_structure(_load(args.left), options=options)
    right = extract_logical_structure(_load(args.right), options=options)
    diff = diff_structures(left, right)
    print(f"similarity: {diff.similarity():.2f} "
          f"({len(diff.matched)} matched, {len(diff.only_left)} only-left, "
          f"{len(diff.only_right)} only-right)")
    for d in diff.worst_regressions(args.top):
        sig = ", ".join(n.split("::")[-1] for n, _ in d.signature)
        print(f"  x{d.time_ratio:5.2f}  {d.time_left:9.1f} -> "
              f"{d.time_right:9.1f}  [{sig}]")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments, get, run_experiment

    if args.list:
        for exp in all_experiments():
            print(f"{exp.id:10s} {exp.paper:20s} {exp.title}")
        return 0
    targets = ([get(i) for i in args.ids] if args.ids
               else all_experiments())
    failed = 0
    for exp in targets:
        report = run_experiment(exp)
        print(report.summary())
        if not report.passed:
            failed += 1
    print(f"\n{len(targets) - failed}/{len(targets)} experiments passed")
    return 1 if failed else 0


def cmd_validate(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    try:
        validate_trace(trace, check_pe_overlap=not args.allow_overlap)
    except TraceValidationError as exc:
        print(exc)
        return 1
    violations = count_violations(trace)
    print(f"OK: {trace} ({violations} clock violations)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.report import verification_report
    from repro.trace.validate import collect_trace_problems
    from repro.verify import StageRecorder, check_structure, run_differential

    trace = _load(args.trace)
    violations = collect_trace_problems(trace)

    structure = None
    recorder = None
    differential = None
    if not violations:
        if args.differential:
            differential = run_differential(trace)
            violations = differential.all_violations()
        else:
            recorder = StageRecorder()
            options = pipeline_options_from_args(args).with_overrides(
                hooks=recorder
            )
            structure = extract_logical_structure(trace, options=options)
            violations = check_structure(structure)
    else:
        print("trace-level validation failed; skipping structure extraction",
              file=sys.stderr)

    payload = verification_report(
        trace, violations, structure=structure,
        stages=recorder.records if recorder else None,
        differential=differential,
    )
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        if recorder is not None and args.stages:
            print(f"{'stage':18s} {'ms':>8s} {'parts':>7s} {'merges':>7s}")
            for r in recorder.records:
                parts = "" if r.partitions < 0 else str(r.partitions)
                merges = "" if r.merges < 0 else str(r.merges)
                print(f"{r.stage:18s} {r.seconds * 1e3:8.2f} {parts:>7s} "
                      f"{merges:>7s}")
        if differential is not None:
            for result in differential.results:
                mark = "ok" if result.ok else "FAIL"
                print(f"variant {result.name:24s} {mark}  "
                      f"phases={len(result.structure.phases)} "
                      f"steps={result.structure.max_step + 1}")
        if violations:
            names = ", ".join(payload["invariants_violated"])
            print(f"FAIL: {len(violations)} violation(s) of: {names}")
            for v in violations[:20]:
                print(f"  [{v.invariant}] {v.message}")
            if len(violations) > 20:
                print(f"  ... and {len(violations) - 20} more")
        else:
            checked = ("all variants" if differential is not None
                       else "all invariants")
            print(f"OK: {checked} hold on {trace}")
    return 1 if violations else 0


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchExtractor, StructureCache

    if args.resume is not None and args.journal is not None:
        print("batch: --resume already names the journal; "
              "use one of --journal/--resume", file=sys.stderr)
        return 2
    journal = args.resume if args.resume is not None else args.journal
    cache = (StructureCache(args.cache_dir)
             if args.cache_dir is not None else None)
    try:
        extractor = BatchExtractor(
            options=pipeline_options_from_args(args),
            jobs=args.jobs, cache=cache,
            timeout=args.timeout, retries=args.retries, backoff=args.backoff,
            journal=journal, resume=args.resume is not None,
        )
        report = extractor.run(args.traces)
    except ValueError as exc:  # e.g. journal written under other options
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        for r in report.results:
            retried = f" ({r.attempts} attempts)" if r.attempts > 1 else ""
            if r.ok:
                if r.resumed:
                    tag = "resumed"
                elif r.cached:
                    tag = "cached"
                else:
                    tag = f"{r.seconds * 1e3:7.1f}ms"
                line = (f"ok   {r.source:40s} {tag:>10s} "
                        f"phases={r.summary.get('phases', '?')} "
                        f"steps={int(r.summary.get('max_step', -1)) + 1}"
                        f"{retried}")
                repair = r.summary.get("repair")
                if repair and not repair.get("clean", True):
                    line += f" repair={_repair_tag(repair)}"
                degradation = r.summary.get("degradation")
                if degradation and degradation.get("degraded"):
                    stages = [s for s in degradation.get("stages", [])
                              if s.get("status") in ("fallback", "skipped")]
                    line += f" degraded={len(stages)} stage(s)"
                print(line)
            else:
                print(f"FAIL {r.source:40s} {r.error}{retried}")
        done = sum(1 for r in report.results if r.ok)
        timeouts = len(report.timeouts)
        timed = f", {timeouts} timed out" if timeouts else ""
        resumed = len(report.resumed)
        resumed_tag = f", {resumed} resumed" if resumed else ""
        print(f"{done}/{len(report.results)} traces extracted "
              f"({report.cache_hits} cached{resumed_tag}{timed}) in "
              f"{report.total_seconds:.2f}s with {report.jobs} job(s)")
    return 0 if report.ok else 1


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.batch import StructureCache

    cache = StructureCache(args.dir)
    if args.prune:
        if (args.max_entries is None and args.max_bytes is None
                and args.shard_bytes is None):
            print("cache: --prune needs --max-entries, --max-bytes, "
                  "and/or --shard-bytes", file=sys.stderr)
            return 2
        removed = cache.prune(args.max_entries, args.max_bytes,
                              args.shard_bytes)
        print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {args.dir}")
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=1))
    else:
        line = (f"cache {stats['directory']}: {stats['disk_entries']} "
                f"entr{'y' if stats['disk_entries'] == 1 else 'ies'}, "
                f"{stats['disk_bytes']} bytes")
        if stats["shards"]:
            line += f" across {len(stats['shards'])} shard(s)"
        print(line)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import JobService, run_server

    chaos = None
    if args.chaos:
        from repro.chaos import FaultPlan

        try:
            chaos = FaultPlan(specs=tuple(args.chaos), seed=args.chaos_seed)
        except ValueError as exc:
            print(f"serve: bad --chaos spec: {exc}", file=sys.stderr)
            return 2
        print(f"serve: CHAOS MODE — {len(args.chaos)} fault spec(s), "
              f"seed {args.chaos_seed} (testing only)", file=sys.stderr)
    service = JobService(
        args.data_dir,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        shard_prefix=args.shard_prefix,
        max_shard_bytes=args.shard_bytes,
        max_queue=args.max_queue,
        max_queue_age=args.max_queue_age,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        chaos=chaos,
    )
    run_server(service, host=args.host, port=args.port,
               drain_timeout=args.drain_timeout,
               read_timeout=args.read_timeout,
               handler_timeout=args.handler_timeout)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serve.client import ClientError, ServeClient

    client = ServeClient(args.url, timeout=args.timeout,
                         retries=args.retries, backoff=args.backoff)
    try:
        if args.stats:
            stats = client.stats()
            if args.json:
                print(json.dumps(stats, indent=1))
            else:
                jobs = stats.get("jobs", {})
                job_line = ", ".join(f"{k}: {v}" for k, v in jobs.items())
                rejected = stats.get("rejected", {})
                breaker = stats.get("breaker", {})
                health = stats.get("health", {})
                print(f"serve {args.url}: {job_line}")
                print(f" queue depth {stats.get('queue_depth', 0)}"
                      f"/{stats.get('max_queue') or 'unbounded'}, "
                      f"workers {stats.get('workers', 0)}, "
                      f"recovered {stats.get('recovered', 0)}")
                print(f" rejected: queue_full "
                      f"{rejected.get('queue_full', 0)}, breaker "
                      f"{rejected.get('breaker', 0)}; shed: expired "
                      f"{stats.get('shed', {}).get('expired', 0)}")
                print(f" breaker {breaker.get('state', '?')} "
                      f"(opened {breaker.get('opened', 0)}x, threshold "
                      f"{breaker.get('threshold', '?')})")
                print(f" ledger {stats.get('ledger', {}).get('mode', '?')}, "
                      f"health {health.get('status', '?')}"
                      + ("".join(f"\n  degraded[{k}]: {v}" for k, v in
                                 (health.get('reasons') or {}).items())))
            return 0
        if args.trace is None:
            print("submit: a trace file is required (or use --stats)",
                  file=sys.stderr)
            return 2
        options = {}
        if args.options:
            try:
                options = json.loads(args.options)
            except ValueError as exc:
                print(f"submit: --options is not valid JSON: {exc}",
                      file=sys.stderr)
                return 2
        data = Path(args.trace).read_bytes()
        ref = client.upload(data)["trace"]
        record = client.submit(ref, options)
        if args.no_wait:
            print(json.dumps(record, indent=1))
            return 0
        if record["status"] not in ("done", "failed", "expired"):
            record = client.wait(record["job"], deadline=args.deadline,
                                 poll=args.poll)
        if record["status"] != "done":
            print(f"submit: job {record['job']} {record['status']}: "
                  f"{record.get('error', '')}", file=sys.stderr)
            return 1
        sys.stdout.write(client.result(record["job"]))
        return 0
    except ClientError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1


def _repair_tag(repair: dict) -> str:
    """Compact per-row repair annotation for batch table output."""
    detected = sum(repair.get("detected", {}).values())
    residual = sum(repair.get("residual", {}).values())
    if repair.get("mode") == "warn":
        return f"{detected} defect(s) detected"
    return f"{detected} detected/{residual} residual"


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.trace.faults import FAULT_KINDS, fault_corpus, inject_faults
    from repro.trace.repair import detect_defects

    trace = _load(args.trace)
    report: dict = {"source": args.trace, "seed": args.seed,
                    "severity": args.severity, "variants": {}}

    if args.corpus is not None:
        from pathlib import Path

        out_dir = Path(args.corpus)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = Path(args.trace).stem
        kinds = args.kind or list(FAULT_KINDS)
        for kind, bad in fault_corpus(trace, kinds, seed=args.seed,
                                      severity=args.severity).items():
            path = out_dir / f"{stem}.{kind}.jsonl"
            write_trace(bad, path)
            report["variants"][kind] = {
                "output": str(path),
                "defects": detect_defects(bad),
            }
            if not args.json:
                print(f"wrote {path}: {bad}")
    else:
        if not args.kind:
            print("faults: provide --kind (repeatable) or --corpus DIR",
                  file=sys.stderr)
            return 2
        bad = inject_faults(trace, args.kind, seed=args.seed,
                            severity=args.severity)
        write_trace(bad, args.output)
        report["variants"]["+".join(args.kind)] = {
            "output": args.output,
            "defects": detect_defects(bad),
        }
        if not args.json:
            print(f"wrote {args.output}: {bad}")

    if args.json:
        print(json.dumps(report, indent=1))
    elif not args.corpus:
        defects = next(iter(report["variants"].values()))["defects"]
        det = ", ".join(f"{k}={v}" for k, v in sorted(defects.items()))
        print(f"defects: [{det or 'none detected'}]")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import all_rules, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.severity:7s}  {rule.title}")
        return 0
    paths = args.paths
    if not paths:
        # Default target: the installed repro package itself.
        paths = [str(Path(__file__).resolve().parent)]
    try:
        report = run_lint(paths, rule_ids=args.rules, jobs=args.jobs,
                          cache_path=args.cache)
    except ValueError as exc:  # unknown rule id
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(report.human())
    return report.exit_code(args.fail_on)


def cmd_sync(args: argparse.Namespace) -> int:
    trace = _load(args.trace)
    fixed, stats = synchronize_trace(trace, min_latency=args.min_latency)
    write_trace(fixed, args.output)
    print(json.dumps({
        "violations_before": stats.violations_before,
        "violations_after_offsets": stats.violations_after_offsets,
        "violations_after": stats.violations_after,
        "amortized_blocks": stats.amortized_blocks,
        "pe_offsets": [round(o, 3) for o in stats.pe_offsets],
    }, indent=1))
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recover logical structure from Charm++/MPI event traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a proxy app, write its trace")
    sim.add_argument("app", choices=["jacobi2d", "lulesh", "lassen", "pdes",
                                     "mergetree", "nasbt"])
    sim.add_argument("-o", "--output", default="trace.jsonl")
    sim.add_argument("--chares", default=None,
                     help="chare count, or WxH for jacobi2d")
    sim.add_argument("--ranks", type=int, default=8)
    sim.add_argument("--pes", type=int, default=8)
    sim.add_argument("--iterations", type=int, default=2)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--model", choices=["charm", "mpi"], default="charm")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="extract and inspect logical structure")
    ana.add_argument("trace")
    add_pipeline_options(ana)
    ana.add_argument("--render", choices=["logical", "physical"], default=None)
    ana.add_argument("--metric",
                     choices=["diffdur", "idle", "imbalance", "lateness"],
                     default=None)
    ana.add_argument("--max-steps", type=int, default=120)
    ana.add_argument("--svg", default=None, help="write an SVG rendering")
    ana.add_argument("--html", default=None,
                     help="write a standalone HTML report")
    ana.add_argument("--csv", default=None, help="write per-event rows")
    ana.add_argument("--json", action="store_true",
                     help="dump the full structure as JSON")
    ana.set_defaults(func=cmd_analyze)

    pro = sub.add_parser("profile", help="Projections-style usage profile")
    pro.add_argument("trace")
    pro.add_argument("--top", type=int, default=10)
    pro.set_defaults(func=cmd_profile)

    clu = sub.add_parser("cluster", help="cluster chare timelines by metric")
    clu.add_argument("trace")
    clu.add_argument("--metric", choices=["diffdur", "idle", "imbalance"],
                     default="diffdur")
    clu.add_argument("-k", type=int, default=4)
    clu.add_argument("--max-steps", type=int, default=100)
    clu.set_defaults(func=cmd_cluster)

    rep = sub.add_parser("report", help="combined performance report")
    rep.add_argument("trace")
    add_pipeline_options(rep)
    rep.add_argument("--top", type=int, default=5)
    rep.set_defaults(func=cmd_report)

    dif = sub.add_parser("diff", help="compare two traces' structures")
    dif.add_argument("left")
    dif.add_argument("right")
    add_pipeline_options(dif)
    dif.add_argument("--top", type=int, default=5)
    dif.set_defaults(func=cmd_diff)

    bat = sub.add_parser(
        "batch",
        help="extract many traces in parallel with a structure cache",
    )
    bat.add_argument("traces", nargs="+", help="trace files to extract")
    add_pipeline_options(bat)
    bat.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = serial)")
    bat.add_argument("--cache-dir", default=None,
                     help="persist per-trace summaries keyed by content "
                          "digest + options; clean reruns are skipped")
    bat.add_argument("--json", action="store_true",
                     help="emit the machine-readable batch report")
    bat.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-trace wall-clock seconds (a positive number); "
                          "a worker exceeding it is killed (forces process "
                          "workers)")
    bat.add_argument("--retries", type=_non_negative_int, default=0,
                     help="re-run a timed-out/crashed trace up to N times "
                          "(a non-negative integer)")
    bat.add_argument("--backoff", type=_non_negative_float, default=0.5,
                     help="base seconds between retries (doubles per attempt)")
    bat.add_argument("--journal", default=None, metavar="FILE",
                     help="append one durable JSON line per finished trace "
                          "to FILE (crash-safe run journal)")
    bat.add_argument("--resume", default=None, metavar="FILE",
                     help="resume from journal FILE: traces it records as "
                          "done are skipped, the rest run (and keep "
                          "appending to it)")
    bat.set_defaults(func=cmd_batch)

    cch = sub.add_parser(
        "cache",
        help="inspect or prune a batch structure-cache directory",
    )
    cch.add_argument("dir", help="cache directory (as given to --cache-dir)")
    cch.add_argument("--stats", action="store_true",
                     help="print occupancy (the default action)")
    cch.add_argument("--prune", action="store_true",
                     help="evict least-recently-used entries beyond the caps")
    cch.add_argument("--max-entries", type=_positive_int, default=None,
                     help="entry-count cap for --prune")
    cch.add_argument("--max-bytes", type=_positive_int, default=None,
                     help="total-size cap (bytes) for --prune")
    cch.add_argument("--shard-bytes", type=_positive_int, default=None,
                     help="per-shard byte quota for --prune (sharded "
                          "artifact stores)")
    cch.add_argument("--json", action="store_true",
                     help="emit machine-readable stats")
    cch.set_defaults(func=cmd_cache)

    srv = sub.add_parser(
        "serve",
        help="run the extraction service: HTTP job queue + artifact store",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=_non_negative_int, default=8177,
                     help="TCP port (0 = ephemeral; the ready line prints "
                          "the bound port)")
    srv.add_argument("--data-dir", required=True, metavar="DIR",
                     help="durable service root (uploads/, artifacts/, "
                          "jobs.jsonl); restarts resume its job backlog")
    srv.add_argument("--workers", type=_non_negative_int, default=1,
                     help="job worker threads (0 = accept and journal jobs "
                          "without processing; the backlog drains on the "
                          "next start with workers > 0)")
    srv.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-job wall-clock seconds; a job exceeding it "
                          "is killed (forces process isolation per job)")
    srv.add_argument("--retries", type=_non_negative_int, default=0,
                     help="re-run a timed-out/crashed job up to N times")
    srv.add_argument("--max-entries", type=_positive_int, default=None,
                     help="artifact-store entry cap (LRU eviction)")
    srv.add_argument("--max-bytes", type=_positive_int, default=None,
                     help="artifact-store total byte cap (LRU eviction)")
    srv.add_argument("--shard-prefix", type=_non_negative_int, default=2,
                     help="hex chars of artifact key per shard directory "
                          "(0 = flat layout)")
    srv.add_argument("--shard-bytes", type=_positive_int, default=None,
                     help="byte quota per artifact shard")
    srv.add_argument("--max-queue", type=_positive_int, default=None,
                     help="admission bound: reject submissions with 429 + "
                          "Retry-After once this many jobs are waiting")
    srv.add_argument("--max-queue-age", type=_positive_float, default=None,
                     help="shed jobs older than this (seconds) at dequeue "
                          "with status 'expired' instead of running them")
    srv.add_argument("--breaker-threshold", type=_positive_int, default=5,
                     help="consecutive distinct-job worker crashes that "
                          "open the circuit breaker (503 + Retry-After)")
    srv.add_argument("--breaker-cooldown", type=_positive_float, default=30.0,
                     help="seconds the breaker stays open before a "
                          "half-open probe job is admitted")
    srv.add_argument("--read-timeout", type=_positive_float, default=30.0,
                     help="per-connection socket read/write deadline "
                          "(seconds; slow-loris defense)")
    srv.add_argument("--handler-timeout", type=_positive_float, default=None,
                     help="per-request handler deadline (seconds; 503 on "
                          "overrun)")
    srv.add_argument("--drain-timeout", type=_positive_float, default=None,
                     help="on SIGTERM/SIGINT, wait up to this many seconds "
                          "for in-flight jobs before exiting (default: "
                          "wait until drained)")
    srv.add_argument("--chaos", action="append", default=None,
                     metavar="SITE:KIND[:k=v,...]",
                     help="TESTING ONLY - inject a deterministic fault "
                          "(repeatable), e.g. store.fsync:enospc:at=2 or "
                          "worker.run:crash:at=1")
    srv.add_argument("--chaos-seed", type=int, default=0,
                     help="seed for rate-based --chaos faults")
    srv.set_defaults(func=cmd_serve)

    sbm = sub.add_parser(
        "submit",
        help="submit a trace to a running extraction service and print "
             "the result (retries through backpressure)",
    )
    sbm.add_argument("trace", nargs="?", default=None,
                     help="trace file to upload and analyze")
    sbm.add_argument("--url", default="http://127.0.0.1:8177",
                     help="service base URL")
    sbm.add_argument("--options", default=None, metavar="JSON",
                     help='pipeline options object, e.g. '
                          '\'{"order": "physical"}\'')
    sbm.add_argument("--timeout", type=_positive_float, default=30.0,
                     help="per-request socket timeout (seconds)")
    sbm.add_argument("--retries", type=_non_negative_int, default=5,
                     help="retry budget for 408/429/503 and transport "
                          "failures (capped exponential backoff + jitter)")
    sbm.add_argument("--backoff", type=_positive_float, default=0.25,
                     help="base backoff delay (seconds)")
    sbm.add_argument("--deadline", type=_positive_float, default=120.0,
                     help="seconds to wait for the job to finish")
    sbm.add_argument("--poll", type=_positive_float, default=0.2,
                     help="job status poll interval (seconds)")
    sbm.add_argument("--no-wait", action="store_true",
                     help="print the job record immediately instead of "
                          "waiting for the result")
    sbm.add_argument("--stats", action="store_true",
                     help="print the service's backpressure counters "
                          "(queue depth, rejections, breaker state) "
                          "instead of submitting")
    sbm.add_argument("--json", action="store_true",
                     help="with --stats: emit machine-readable output")
    sbm.set_defaults(func=cmd_submit)

    flt = sub.add_parser(
        "faults",
        help="derive corrupted trace variants for robustness testing",
    )
    flt.add_argument("trace")
    flt.add_argument("--kind", action="append", default=None,
                     choices=["truncate", "drop_messages", "dup_messages",
                              "orphan_recv", "negative_duration",
                              "clock_skew"],
                     help="fault to inject (repeat to compound; "
                          "default with --corpus: all kinds)")
    flt.add_argument("-o", "--output", default="faulted.jsonl",
                     help="output path for single-variant mode")
    flt.add_argument("--corpus", default=None, metavar="DIR",
                     help="write one variant per kind into DIR")
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument("--severity", type=float, default=0.25,
                     help="damage fraction in [0, 1]")
    flt.add_argument("--json", action="store_true",
                     help="emit variant paths and detected-defect counts")
    flt.set_defaults(func=cmd_faults)

    exp = sub.add_parser("experiments",
                         help="run the paper's experiments (scaled)")
    exp.add_argument("ids", nargs="*",
                     help="experiment ids (default: all); see --list")
    exp.add_argument("--list", action="store_true")
    exp.set_defaults(func=cmd_experiments)

    val = sub.add_parser("validate", help="check trace structural invariants")
    val.add_argument("trace")
    val.add_argument("--allow-overlap", action="store_true")
    val.set_defaults(func=cmd_validate)

    ver = sub.add_parser(
        "verify",
        help="verify the paper's structural invariants on a trace's structure",
    )
    ver.add_argument("trace")
    add_pipeline_options(ver)
    ver.add_argument("--differential", action="store_true",
                     help="run the full option-variant matrix and cross-checks")
    ver.add_argument("--stages", action="store_true",
                     help="print the per-stage timing/merge table")
    ver.add_argument("--json", action="store_true",
                     help="emit the machine-readable report")
    ver.set_defaults(func=cmd_verify)

    lnt = sub.add_parser(
        "lint",
        help="static determinism/dataflow/concurrency analysis of the "
             "pipeline source",
    )
    lnt.add_argument("paths", nargs="*",
                     help="files or directories to lint (default: the "
                          "installed repro package)")
    lnt.add_argument("--rules", action="append", default=None,
                     metavar="RULE",
                     help="run only this rule id (repeatable); unknown "
                          "ids are an error")
    lnt.add_argument("--fail-on", choices=["warning", "error"],
                     default="error",
                     help="exit nonzero on findings at or above this "
                          "severity (default: error)")
    lnt.add_argument("--json", action="store_true",
                     help="emit the machine-readable report "
                          "(docs/STATIC_ANALYSIS.md documents the schema)")
    lnt.add_argument("--list-rules", action="store_true",
                     help="print the rule catalog and exit")
    lnt.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="analyze files with N worker processes "
                          "(0 = one per CPU; default 1). The JSON "
                          "report is byte-identical at any worker "
                          "count, except the timing block")
    lnt.add_argument("--cache", default=None, metavar="PATH",
                     help="incremental result cache file; unchanged "
                          "files reuse their cached findings, keyed by "
                          "content sha256 and rule-set version")
    lnt.set_defaults(func=cmd_lint)

    syn = sub.add_parser("sync", help="repair cross-PE clock skew")
    syn.add_argument("trace")
    syn.add_argument("-o", "--output", default="synced.jsonl")
    syn.add_argument("--min-latency", type=float, default=0.0)
    syn.set_defaults(func=cmd_sync)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceLoadError as exc:
        print(f"repro {args.command}: cannot read trace {exc}",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
