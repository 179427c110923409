"""Machine-readable pipeline benchmark: BENCH_pipeline.json.

The ``bench_fig*.py`` modules regenerate the paper's figures under
pytest-benchmark for humans; this script produces the JSON record the
repo commits and CI/tests validate: the Figure 18 iteration-scaling and
Figure 19 chare-scaling series (per-stage seconds from
:class:`~repro.core.pipeline.PipelineStats`, backend, phase counts) plus
a python-vs-columnar A/B at the largest Figure 19 size, asserting the
two backends produce bit-identical step assignments.

Standalone on purpose — no pytest import — so it runs anywhere::

    python benchmarks/bench_json.py            # full sweep (~5 min)
    python benchmarks/bench_json.py --quick    # seconds; smoke/tests

The output conforms to ``benchmarks/bench_schema.json``; the script
validates it before writing (see :func:`validate_schema`, a minimal
JSON-Schema checker covering type/properties/required/items).

With ``--enforce-budget`` the run also gates on
``benchmarks/bench_budgets.json``: the hot stages (initial +
dependency_merge — the merge kernels this repo keeps optimizing) must
stay under their checked-in fraction of the columnar backend's wall
time, so a regression that quietly reintroduces per-candidate overhead
fails CI instead of surfacing as a slow chart later.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import lulesh  # noqa: E402
from repro.core.pipeline import (  # noqa: E402
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)

SCHEMA_PATH = Path(__file__).parent / "bench_schema.json"
BUDGETS_PATH = Path(__file__).parent / "bench_budgets.json"
DEFAULT_OUTPUT = Path(__file__).parent / "BENCH_pipeline.json"

ITERATIONS_FULL = [8, 16, 32, 64]
ITERATIONS_QUICK = [2, 4]
CHARES_FULL = [64, 216, 512]
CHARES_QUICK = [8, 27]
#: The million-event scaling row (full mode only): 17^3 chares on 64
#: PEs pushes the same lulesh workload past 10^6 events.
MILLION_CHARES = 4913
MILLION_PES = 64
#: Hardened configurations whose overhead over the default is measured.
HARDENED_MODES = ("warn", "fallback", "checkpoint")

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "number": (int, float),
}


def validate_schema(instance, schema: dict, path: str = "$") -> None:
    """Minimal JSON-Schema validation: type / properties / required / items.

    Raises :class:`ValueError` naming the offending path.  Enough schema
    to pin the benchmark record's shape without a jsonschema dependency.
    """
    expected = schema.get("type")
    if expected is not None:
        pytype = _TYPES[expected]
        ok = isinstance(instance, pytype)
        if ok and expected in ("integer", "number") and isinstance(instance, bool):
            ok = False
        if not ok:
            raise ValueError(
                f"{path}: expected {expected}, got {type(instance).__name__}"
            )
    for name in schema.get("required", ()):
        if name not in instance:
            raise ValueError(f"{path}: missing required property {name!r}")
    for name, subschema in schema.get("properties", {}).items():
        if isinstance(instance, dict) and name in instance:
            validate_schema(instance[name], subschema, f"{path}.{name}")
    items = schema.get("items")
    if items is not None and isinstance(instance, list):
        for i, element in enumerate(instance):
            validate_schema(element, items, f"{path}[{i}]")


def _rss_mb() -> Optional[float]:
    """Current process RSS in MiB, or None where /proc is unavailable."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)
    except Exception:
        return None


class _RssSampler:
    """Samples process RSS on a thread while a with-block runs.

    ``ru_maxrss`` is a process-lifetime high-water mark and therefore
    useless per benchmark row; this records the peak *during* the
    timed window instead.  ``peak_mb`` is None on platforms without
    /proc (the peak_rss_mb column is simply omitted there).
    """

    INTERVAL = 0.02

    def __init__(self):
        self.peak_mb: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        rss = _rss_mb()
        if rss is not None and (self.peak_mb is None or rss > self.peak_mb):
            self.peak_mb = rss

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self._sample()

    def __enter__(self) -> "_RssSampler":
        self._sample()
        if self.peak_mb is not None:  # /proc exists: worth a thread
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self._sample()


def _median_iqr(values: List[float]) -> tuple:
    """Median of a sample and its interquartile range ``[q1, q3]``."""
    if len(values) < 2:
        return values[0], [values[0], values[0]]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, [q1, q3]


def _timed_extract(trace, options: PipelineOptions):
    """One pipeline run; returns (structure, stats, wall_seconds, peak_mb)."""
    stats = PipelineStats()
    with _RssSampler() as sampler:
        t0 = time.perf_counter()
        structure = extract_logical_structure(trace, options=options,
                                              stats=stats)
        seconds = time.perf_counter() - t0
    return structure, stats, seconds, sampler.peak_mb


def _row(stats: PipelineStats, structure, seconds: float,
         peak_mb: Optional[float] = None) -> dict:
    row = {
        "events": len(structure.trace.events),
        "phases": len(structure.phases),
        "backend": stats.backend,
        "total_seconds": round(seconds, 6),
        "stage_seconds": {k: round(v, 6)
                          for k, v in stats.stage_seconds.items()},
    }
    if peak_mb is not None:
        row["peak_rss_mb"] = round(peak_mb, 1)
    return row


def run_benchmarks(quick: bool = False, verbose: bool = True) -> dict:
    """Run both sweeps and the backend A/B; return the JSON record."""
    opts = PipelineOptions()
    iterations = ITERATIONS_QUICK if quick else ITERATIONS_FULL
    chare_counts = CHARES_QUICK if quick else CHARES_FULL
    rounds = 1 if quick else 3
    overhead_pairs = 3 if quick else 7

    def say(msg: str) -> None:
        if verbose:
            print(msg, file=sys.stderr)

    fig18: List[dict] = []
    for iters in iterations:
        trace = lulesh.run_charm(chares=64 if not quick else 8, pes=8,
                                 iterations=iters, seed=3)
        structure, stats, seconds, peak = _timed_extract(trace, opts)
        fig18.append({"iterations": iters,
                      **_row(stats, structure, seconds, peak)})
        say(f"fig18 {iters:3d} iters: {seconds:6.2f}s "
            f"({len(trace.events)} events)")

    fig19: List[dict] = []
    traces = {}
    for chares in chare_counts:
        traces[chares] = lulesh.run_charm(chares=chares, pes=8,
                                          iterations=8 if not quick else 2,
                                          seed=3)
        structure, stats, seconds, peak = _timed_extract(traces[chares], opts)
        fig19.append({"chares": chares,
                      **_row(stats, structure, seconds, peak)})
        say(f"fig19 {chares:4d} chares: {seconds:6.2f}s "
            f"({len(traces[chares].events)} events)")

    million_row = None
    if not quick:
        # Million-event scaling row (single run — trace generation alone
        # takes ~1 min; the A/B below stays at the largest sweep size).
        # This row exercises the streaming path end to end: the trace is
        # written to disk, the in-memory copy freed, and extraction runs
        # from a chunk-ingested columnar trace — total_seconds covers
        # ingest + extract, and peak_rss_mb is the memory the streaming
        # path actually needs (the eager path holds ~2 GB of record
        # objects for this workload).
        from repro.trace.source import open_trace
        from repro.trace.writer import write_trace

        mtrace = lulesh.run_charm(chares=MILLION_CHARES, pes=MILLION_PES,
                                  iterations=8, seed=3)
        mdir = tempfile.mkdtemp(prefix="bench-million-")
        mpath = os.path.join(mdir, "million.jsonl")
        write_trace(mtrace, mpath)
        del mtrace
        gc.collect()
        with _RssSampler() as sampler:
            t0 = time.perf_counter()
            mtrace = open_trace(mpath).trace()
            ingest_seconds = time.perf_counter() - t0
            stats = PipelineStats()
            t1 = time.perf_counter()
            structure = extract_logical_structure(mtrace, options=opts,
                                                  stats=stats)
            extract_seconds = time.perf_counter() - t1
        million_row = {
            "chares": MILLION_CHARES,
            **_row(stats, structure, ingest_seconds + extract_seconds,
                   sampler.peak_mb),
            "ingest_seconds": round(ingest_seconds, 6),
            "extract_seconds": round(extract_seconds, 6),
        }
        fig19.append(million_row)
        say(f"fig19 {MILLION_CHARES:4d} chares: "
            f"{ingest_seconds + extract_seconds:6.2f}s "
            f"(ingest {ingest_seconds:.2f}s + extract {extract_seconds:.2f}s, "
            f"{len(mtrace.events)} events, "
            f"peak {million_row.get('peak_rss_mb', 'n/a')} MiB)")
        del mtrace, structure, stats
        gc.collect()
        shutil.rmtree(mdir, ignore_errors=True)

    # A/B at the largest sweep size: best-of-N wall time per backend and
    # a bit-identity check on the assignments the backends must agree on.
    largest = chare_counts[-1]
    ab_trace = traces[largest]
    timings = {}
    structures = {}
    ab_stats = {}
    for backend in ("python", "columnar"):
        backend_opts = PipelineOptions(backend=backend)
        best = None
        best_stats = None
        for _ in range(rounds):
            structure, stats, seconds, _peak = _timed_extract(ab_trace,
                                                              backend_opts)
            if best is None or seconds < best:
                best, best_stats = seconds, stats
        timings[backend] = best
        structures[backend] = structure
        ab_stats[backend] = best_stats
        say(f"A/B {backend:16s} @ {largest} chares: best of {rounds} = "
            f"{best:6.2f}s")

    py = structures["python"]
    col = structures["columnar"]
    identical = (py.step_of_event == col.step_of_event
                 and py.phase_of_event == col.phase_of_event)
    speedup = timings["python"] / timings["columnar"]
    say(f"A/B speedup: columnar {speedup:.2f}x, identical={identical}")

    # Hot-stage budget: the merge kernels (initial + dependency_merge)
    # against their checked-in fraction of columnar wall time.
    budgets = json.loads(BUDGETS_PATH.read_text())
    hot_stages = budgets["hot_stages"]
    budget_backend = budgets["backend"]
    budget_stats = ab_stats[budget_backend]
    hot_seconds = sum(budget_stats.stage_seconds.get(s, 0.0)
                      for s in hot_stages)
    budget_total = timings[budget_backend]
    hot_fraction = hot_seconds / budget_total if budget_total > 0 else 0.0
    within_budget = hot_fraction <= budgets["max_hot_fraction"]
    say(f"budget: {'+'.join(hot_stages)} = {hot_seconds:.3f}s of "
        f"{budget_total:.3f}s ({hot_fraction:.1%}, "
        f"limit {budgets['max_hot_fraction']:.0%}) -> "
        f"{'ok' if within_budget else 'EXCEEDED'}")

    # Million-row budget: the streaming ingestion path must keep the
    # 10^6-event extraction under its wall-clock AND memory ceilings
    # (the whole point of chunked ingestion; only meaningful in full
    # mode, where the row exists, and on platforms with /proc).
    million_budget = None
    if million_row is not None:
        max_s = budgets.get("million_max_extract_seconds")
        max_mb = budgets.get("million_max_peak_rss_mb")
        peak = million_row.get("peak_rss_mb")
        # The wall-clock gate covers extraction only (the quantity every
        # other fig19 row reports); ingest is reported alongside.  The
        # memory gate covers the whole sampled ingest+extract window —
        # bounding peak RSS end to end is the point of streaming.
        extract_s = million_row.get("extract_seconds",
                                    million_row["total_seconds"])
        time_ok = max_s is None or extract_s <= max_s
        mem_ok = max_mb is None or peak is None or peak <= max_mb
        million_budget = {
            "total_seconds": million_row["total_seconds"],
            "ingest_seconds": million_row.get("ingest_seconds"),
            "extract_seconds": extract_s,
            "max_extract_seconds": max_s,
            "peak_rss_mb": peak,
            "max_peak_rss_mb": max_mb,
            "within_budget": bool(time_ok and mem_ok),
        }
        say(f"million budget: extract {extract_s:.2f}s (limit {max_s}s), "
            f"peak {peak} MiB (limit {max_mb} MiB) -> "
            f"{'ok' if million_budget['within_budget'] else 'EXCEEDED'}")

    # Hardening overheads on the fig19 workload, from interleaved pairs.
    # A pair times one extract of the default configuration ("off":
    # on_error="raise", no repair, no checkpoints) and one of a hardened
    # mode back to back, alternating which of the two runs first, so each
    # ratio divides by an "off" run taken under the same host load.  An
    # overhead is the median of its per-pair ratios, reported with their
    # interquartile range.  "warn" is the repair defect scan a campaign
    # pays on clean inputs (fix mode on a clean trace runs the identical
    # detect-only path); "fallback" takes the restore snapshots of
    # on_error="fallback"; "checkpoint" adds atomic between-stage
    # checkpoints to a scratch dir.  executor_fraction is the median
    # share of an "off" run not attributed to any stage body (the
    # harness).
    def timed(mode: str):
        scratch = None
        if mode == "checkpoint":
            scratch = tempfile.mkdtemp(prefix="bench-ckpt-")
            mode_opts = PipelineOptions(checkpoint_dir=scratch,
                                        on_error="fallback")
        elif mode == "fallback":
            mode_opts = PipelineOptions(on_error="fallback")
        elif mode == "warn":
            mode_opts = PipelineOptions(repair="warn")
        else:
            mode_opts = PipelineOptions()
        try:
            _, stats, seconds, _peak = _timed_extract(ab_trace, mode_opts)
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        return seconds, stats

    mode_seconds = {mode: [] for mode in ("off",) + HARDENED_MODES}
    ratios = {mode: [] for mode in HARDENED_MODES}
    executor_fractions = []
    for k in range(overhead_pairs):
        for mode in HARDENED_MODES:
            order = ("off", mode) if k % 2 == 0 else (mode, "off")
            pair = {m: timed(m) for m in order}
            off, off_stats = pair["off"]
            mode_seconds["off"].append(off)
            mode_seconds[mode].append(pair[mode][0])
            ratios[mode].append(pair[mode][0] / off if off > 0 else 1.0)
            if off > 0:
                staged = sum(off_stats.stage_seconds.values())
                executor_fractions.append(max(0.0, (off - staged) / off))
    median_seconds = {mode: _median_iqr(times)[0]
                      for mode, times in mode_seconds.items()}
    overheads = {mode: _median_iqr(ratios[mode]) for mode in HARDENED_MODES}
    executor_fraction = (_median_iqr(executor_fractions)[0]
                         if executor_fractions else 0.0)

    def ratio_text(mode: str) -> str:
        median, (q1, q3) = overheads[mode]
        return (f"{mode}={median_seconds[mode]:.2f}s "
                f"({median:.2f}x, IQR {q1:.2f}-{q3:.2f}x)")

    say(f"hardening overhead @ {largest} chares, median of "
        f"{overhead_pairs} alternating pairs: "
        f"off={median_seconds['off']:.2f}s "
        + " ".join(ratio_text(mode) for mode in HARDENED_MODES)
        + f" executor {executor_fraction:.1%}")

    record = {
        "schema_version": 1,
        "quick": quick,
        "numpy": True,
        "fig18_iteration_scaling": fig18,
        "fig19_chare_scaling": fig19,
        "backend_ab": {
            "chares": largest,
            "events": len(ab_trace.events),
            "python_seconds": round(timings["python"], 6),
            "columnar_seconds": round(timings["columnar"], 6),
            "speedup": round(speedup, 4),
            "identical": identical,
        },
        "budget": {
            "backend": budget_backend,
            "hot_stages": list(hot_stages),
            "hot_seconds": round(hot_seconds, 6),
            "total_seconds": round(budget_total, 6),
            "hot_fraction": round(hot_fraction, 4),
            "max_hot_fraction": budgets["max_hot_fraction"],
            "within_budget": within_budget,
            **({"million": million_budget}
               if million_budget is not None else {}),
        },
        "repair_overhead": {
            "chares": largest,
            "events": len(ab_trace.events),
            "pairs": overhead_pairs,
            "off_seconds": round(median_seconds["off"], 6),
            "warn_seconds": round(median_seconds["warn"], 6),
            "overhead": round(overheads["warn"][0], 4),
            "overhead_iqr": [round(q, 4) for q in overheads["warn"][1]],
        },
        "resilience_overhead": {
            "chares": largest,
            "events": len(ab_trace.events),
            "pairs": overhead_pairs,
            "off_seconds": round(median_seconds["off"], 6),
            "fallback_seconds": round(median_seconds["fallback"], 6),
            "fallback_overhead": round(overheads["fallback"][0], 4),
            "fallback_overhead_iqr": [round(q, 4)
                                      for q in overheads["fallback"][1]],
            "checkpoint_seconds": round(median_seconds["checkpoint"], 6),
            "overhead": round(overheads["checkpoint"][0], 4),
            "overhead_iqr": [round(q, 4) for q in overheads["checkpoint"][1]],
            "executor_fraction": round(executor_fraction, 4),
        },
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the extraction pipeline; write "
                    "BENCH_pipeline.json",
    )
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads for smoke tests")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="where to write the JSON record")
    parser.add_argument("--enforce-budget", action="store_true",
                        help="fail if the hot stages exceed the checked-in "
                             "fraction of columnar wall time "
                             "(benchmarks/bench_budgets.json)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    record = run_benchmarks(quick=args.quick, verbose=not args.quiet)
    schema = json.loads(SCHEMA_PATH.read_text())
    validate_schema(record, schema)
    if not record["backend_ab"]["identical"]:
        print("ERROR: backends disagree on step/phase assignments",
              file=sys.stderr)
        return 1
    if args.enforce_budget and not record["budget"]["within_budget"]:
        b = record["budget"]
        print(f"ERROR: hot stages {'+'.join(b['hot_stages'])} took "
              f"{b['hot_fraction']:.1%} of {b['backend']} wall time "
              f"(budget {b['max_hot_fraction']:.0%})", file=sys.stderr)
        return 1
    million = record["budget"].get("million")
    if args.enforce_budget and million and not million["within_budget"]:
        print(f"ERROR: million-event row extracted in "
              f"{million['extract_seconds']:.2f}s "
              f"(limit {million['max_extract_seconds']}s) with peak RSS "
              f"{million['peak_rss_mb']} MiB "
              f"(limit {million['max_peak_rss_mb']} MiB)", file=sys.stderr)
        return 1

    out = Path(args.output)
    out.write_text(json.dumps(record, indent=1) + "\n")
    if not args.quiet:
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
