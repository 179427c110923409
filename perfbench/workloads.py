"""The benchmark's workload process: set up, warm up, measure, check.

Run by ``perfbench/run.py`` in a fresh interpreter per workload::

    python3 perfbench/workloads.py WORKLOAD --inputs DIR --work DIR \\
        --seconds S --trace 0|1 --spawned-at T --out RESULT.json

Set-up (imports, the long-lived objects and one untimed warm-up item)
is timed from ``--spawned-at`` (the parent's ``time.monotonic()`` just
before it started this process) to the start of the first timed item.
``--setup-only`` stops there.  Otherwise the workload runs closed-loop
items until ``--seconds`` of wall time have passed, then checks every
output (outside the timed window) and writes one JSON result.

With ``--trace 1`` every other item is traced: a span (name, start,
end, parent, item) is recorded around each call the benchmark makes
into a layer's public functions.  Spans stay in memory and are written
to ``--spans-out`` when the run ends; the program's own telemetry
(``PipelineStats``, ``BatchResult``, ``JobRecord``) splits what a span
from outside cannot.  Untraced items of the same run give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

#: Pipeline stages reported per layer (``core.stage.<name>_s``).
STAGES = ("repair", "initial", "dependency_merge", "repair_merge",
          "infer_sources", "leap_merge", "order_overlapping", "chare_paths",
          "build_phases", "local_steps", "global_steps")

#: Per-layer metrics measured on each batch pass; the hardened pass
#: reports them again under a ``hardened.`` prefix.
PASS_LAYERS = (("trace.ingest_s", "core.extract_s")
               + tuple(f"core.stage.{s}_s" for s in STAGES)
               + ("core.events", "resilience.overhead_s",
                  "resilience.checkpoint_mb", "batch.run_s",
                  "batch.worker_s", "batch.slot_idle_share",
                  "batch.attempts_per_trace"))

#: Every per-layer metric, in report order.  A workload reports 0 for a
#: layer it bypasses (or, for serve, one it cannot see from outside).
LAYER_METRICS = (PASS_LAYERS
                 + ("report.document_s", "report.render_s",
                    "report.document_mb", "serve.upload_s",
                    "serve.submit_s", "serve.queue_s", "serve.job_s",
                    "serve.fetch_s", "serve.hit_upload_s",
                    "serve.hit_submit_s", "serve.hit_fetch_s",
                    "serve.store_hit_ratio", "tracing.overhead_share")
                 + tuple(f"hardened.{name}" for name in PASS_LAYERS))

clock = time.perf_counter


class Spans:
    """In-memory span recorder; a no-op while ``enabled`` is false."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, item: int):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, clock(), None, parent, item]
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = clock()
            self._stack.pop()

    def durations(self, name: str) -> list:
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def assignment_digest(structure) -> str:
    """Digest of a structure's phase and step assignment per event."""
    h = hashlib.sha256()
    h.update(array("q", structure.phase_of_event).tobytes())
    h.update(array("q", structure.step_of_event).tobytes())
    return h.hexdigest()


def dir_mb(path: Path) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / 1e6


class Refs:
    """Reference outputs per input digest, cached beside the inputs.

    Computed once per distinct input, outside the timed window, and
    reused by later runs on the same seed.
    """

    def __init__(self, inputs_dir: Path, kind: str) -> None:
        self.path = inputs_dir / f"refs-{kind}.json"
        self.data = (json.loads(self.path.read_text())
                     if self.path.exists() else {})
        self.dirty = False

    def get(self, digest: str, compute) -> str:
        if digest not in self.data:
            self.data[digest] = compute()
            self.dirty = True
        return self.data[digest]

    def save(self) -> None:
        if self.dirty:
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1))
            os.replace(tmp, self.path)


def analyze_json_text(path: str) -> str:
    """What ``repro analyze --json PATH`` prints, by its public calls."""
    from repro.core.pipeline import (
        PipelineOptions,
        PipelineStats,
        extract_logical_structure,
    )
    from repro.report import analysis_document
    from repro.trace.source import open_trace

    stats = PipelineStats()
    structure = extract_logical_structure(open_trace(path).trace(),
                                          PipelineOptions(), stats=stats)
    return json.dumps(analysis_document(structure, stats), indent=1) + "\n"


# ----------------------------------------------------------------------
# analyze-large: one analyst, one thread, one large trace
# ----------------------------------------------------------------------
class AnalyzeLarge:
    """``repro analyze --json`` as public calls, closed loop."""

    def __init__(self, manifest: dict, inputs_dir: Path, work: Path,
                 spans: Spans) -> None:
        self.entry = manifest["files"][0]
        self.path = str(inputs_dir / self.entry["file"])
        self.inputs_dir = inputs_dir
        self.spans = spans
        self.items: list = []

    def setup(self) -> None:
        self.warmup = self._item(-1)

    def _item(self, i: int) -> dict:
        from repro.core.pipeline import (
            PipelineOptions,
            PipelineStats,
            extract_logical_structure,
        )
        from repro.report import analysis_document
        from repro.serve.worker import render_document
        from repro.trace.source import open_trace

        span = self.spans.span
        t0 = clock()
        with span("analyze", i):
            with span("trace.ingest", i):
                trace = open_trace(self.path).trace()
            stats = PipelineStats()
            with span("core.extract", i):
                structure = extract_logical_structure(
                    trace, PipelineOptions(), stats=stats)
            with span("report.document", i):
                doc = analysis_document(structure, stats)
            with span("report.render", i):
                text = render_document(doc)
        seconds = clock() - t0
        return {"seconds": seconds, "traced": self.spans.enabled,
                "assignments": assignment_digest(structure),
                "phases": len(structure.phases),
                "events": len(trace.events), "doc_bytes": len(text),
                "stage_seconds": dict(stats.stage_seconds),
                "pipeline_s": stats.total_seconds}

    def measure(self, seconds: float, trace_mode: bool) -> None:
        start = clock()
        i = 0
        while clock() - start < seconds:
            self.spans.enabled = trace_mode and i % 2 == 0
            try:
                self.items.append(self._item(i))
            except Exception as exc:  # counted as a failed item
                self.items.append({"error": f"{type(exc).__name__}: {exc}"})
            self.spans.enabled = False
            i += 1
        self.window_s = clock() - start

    def check(self) -> tuple:
        """(attempted, failed, notes): assignments vs the python oracle."""
        from repro.core.pipeline import PipelineOptions
        from repro.trace.source import open_trace

        def oracle() -> str:
            from repro.core.pipeline import extract_logical_structure

            trace = open_trace(self.path).trace()
            return assignment_digest(extract_logical_structure(
                trace, PipelineOptions(backend="python")))

        refs = Refs(self.inputs_dir, "python-oracle")
        expected = refs.get(self.entry["digest"], oracle)
        refs.save()
        notes = []
        failed = 0
        for item in self.items:
            if "error" in item:
                failed += 1
                notes.append(item["error"])
            elif item["assignments"] != expected or item["phases"] < 1:
                failed += 1
                notes.append("phase/step assignment differs from the "
                             "python reference backend")
        return len(self.items), failed, notes

    def end_to_end(self) -> dict:
        ok = [it["seconds"] for it in self.items if "error" not in it]
        return {"latency_p50_s": (median(ok), len(ok)),
                "throughput_per_s": (len(ok) / sum(ok) if ok else 0.0,
                                     len(ok))}

    def layers(self) -> dict:
        traced = [it for it in self.items
                  if "error" not in it and it["traced"]]
        stage_sum = [sum(v for k, v in it["stage_seconds"].items()
                         if k in STAGES) for it in traced]
        out = {
            "trace.ingest_s": median(self.spans.durations("trace.ingest")),
            "core.extract_s": median(self.spans.durations("core.extract")),
            "core.events": median(it["events"] for it in traced),
            "resilience.overhead_s": median(
                it["pipeline_s"] - s for it, s in zip(traced, stage_sum)),
            "report.document_s": median(
                self.spans.durations("report.document")),
            "report.render_s": median(self.spans.durations("report.render")),
            "report.document_mb": median(it["doc_bytes"] / 1e6
                                         for it in traced),
            "tracing.overhead_share": overhead_share(self.items),
        }
        for stage in STAGES:
            out[f"core.stage.{stage}_s"] = median(
                it["stage_seconds"].get(stage, 0.0) for it in traced)
        return out

    def close(self) -> None:
        pass


def overhead_share(items: list) -> float:
    """Traced over untraced median item time, minus one."""
    traced = [it["seconds"] for it in items
              if "error" not in it and it["traced"]]
    plain = [it["seconds"] for it in items
             if "error" not in it and not it["traced"]]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain) - 1.0


# ----------------------------------------------------------------------
# batch-campaign: BatchExtractor over 64 traces, default then hardened
# ----------------------------------------------------------------------
JOBS = 2


class BatchCampaign:
    """``repro batch --jobs 2`` over a cold cache, two passes per round."""

    def __init__(self, manifest: dict, inputs_dir: Path, work: Path,
                 spans: Spans) -> None:
        self.files = [str(inputs_dir / f["file"]) for f in manifest["files"]]
        self.work = work
        self.spans = spans
        self.passes: list = []

    def setup(self) -> None:
        # Warm-up: a two-trace campaign, so the fork path runs once.
        self.warmup = [self._pass(-1, hardened, self.files[:JOBS])
                       for hardened in (False, True)]

    def _pass(self, r: int, hardened: bool, files: list) -> dict:
        from repro.batch import BatchExtractor, StructureCache
        from repro.core.pipeline import PipelineOptions

        span = self.spans.span
        tag = f"r{r}-{'hardened' if hardened else 'default'}"
        checkpoints = self.work / f"{tag}-checkpoints"
        t0 = clock()
        with span("batch.pass", r):
            cache = StructureCache(self.work / f"{tag}-cache")
            if hardened:
                options = PipelineOptions(repair="warn", on_error="fallback",
                                          checkpoint_dir=str(checkpoints))
                # A timeout that never fires: it switches on the
                # per-attempt deadline machinery, as a hardened run would.
                extractor = BatchExtractor(
                    options, jobs=JOBS, cache=cache, timeout=600.0,
                    journal=self.work / f"{tag}-journal.jsonl")
            else:
                extractor = BatchExtractor(PipelineOptions(), jobs=JOBS,
                                           cache=cache)
            with span("batch.run", r):
                report = extractor.run(files)
        wall = clock() - t0
        rows = [res.to_dict() for res in report.results]
        checkpoint_mb = dir_mb(checkpoints) if hardened else 0.0
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True, exist_ok=True)
        return {"round": r, "hardened": hardened, "seconds": wall,
                "traced": self.spans.enabled, "rows": rows,
                "run_s": report.total_seconds,
                "checkpoint_mb": checkpoint_mb}

    def measure(self, seconds: float, trace_mode: bool) -> None:
        start = clock()
        r = 0
        while clock() - start < seconds:
            self.spans.enabled = trace_mode and r % 2 == 0
            for hardened in (False, True):
                try:
                    self.passes.append(self._pass(r, hardened, self.files))
                except Exception as exc:
                    self.passes.append({"round": r, "hardened": hardened,
                                        "error": f"{type(exc).__name__}: "
                                                 f"{exc}",
                                        "traced": self.spans.enabled})
            self.spans.enabled = False
            r += 1
        self.window_s = clock() - start

    def check(self) -> tuple:
        """Rows agree across passes; hardened rows are clean."""
        keys = ("phases", "max_step", "stepped_events", "leaps", "events")
        expected: dict = {}
        attempted = failed = 0
        notes = []
        for p in self.passes:
            if "error" in p:
                attempted += len(self.files)
                failed += len(self.files)
                notes.append(p["error"])
                continue
            for row in p["rows"]:
                attempted += 1
                summary = row["summary"]
                problem = ""
                if not row["ok"]:
                    problem = row["error"]
                elif row["cached"] or row["attempts"] != 1 \
                        or row["timed_out"]:
                    problem = "not a single cold attempt"
                elif "degradation" in summary:
                    problem = "degraded or fallback stage"
                elif p["hardened"] and (
                        not summary.get("repair", {}).get("clean")
                        or summary["repair"].get("detected")):
                    problem = "repair detected a defect in a clean trace"
                else:
                    shape = tuple(summary[k] for k in keys)
                    if expected.setdefault(row["source"], shape) != shape:
                        problem = "phases/steps differ between passes"
                if problem:
                    failed += 1
                    notes.append(f"{row['source']}: {problem}")
        return attempted, failed, notes

    def _ok(self, hardened: bool) -> list:
        return [p for p in self.passes
                if "error" not in p and p["hardened"] == hardened]

    def end_to_end(self) -> dict:
        rounds: dict = {}
        for p in self.passes:
            if "error" not in p:
                rounds.setdefault(p["round"], []).append(p["seconds"])
        walls = [sum(v) for v in rounds.values() if len(v) == 2]
        default = [len(p["rows"]) / p["seconds"] for p in self._ok(False)]
        hardened = [len(p["rows"]) / p["seconds"] for p in self._ok(True)]
        return {"latency_p50_s": (median(walls), len(walls)),
                "throughput_per_s": (median(default), len(default)),
                "hardened_throughput_per_s": (median(hardened),
                                              len(hardened))}

    @staticmethod
    def _pass_layers(p: dict) -> dict:
        rows = [r for r in p["rows"] if r["ok"]]
        worker = sum(r["seconds"] for r in rows)
        pipeline = sum(r["summary"]["total_seconds"] for r in rows)
        stage_sum = sum(v for r in rows
                        for k, v in r["summary"]["stage_seconds"].items()
                        if k in STAGES)
        out = {
            "trace.ingest_s": worker - pipeline,
            "core.extract_s": pipeline,
            "core.events": sum(r["summary"]["events"] for r in rows),
            "resilience.overhead_s": pipeline - stage_sum,
            "resilience.checkpoint_mb": p["checkpoint_mb"],
            "batch.run_s": p["run_s"],
            "batch.worker_s": worker,
            "batch.slot_idle_share": 1.0 - worker / (JOBS * p["run_s"]),
            "batch.attempts_per_trace": (sum(r["attempts"]
                                             for r in p["rows"])
                                         / max(1, len(p["rows"]))),
        }
        for stage in STAGES:
            out[f"core.stage.{stage}_s"] = sum(
                r["summary"]["stage_seconds"].get(stage, 0.0) for r in rows)
        return out

    def layers(self) -> dict:
        out = {}
        for hardened, prefix in ((False, ""), (True, "hardened.")):
            per_pass = [self._pass_layers(p) for p in self._ok(hardened)]
            for name in PASS_LAYERS:
                out[prefix + name] = median(lp[name] for lp in per_pass)
        rounds = [
            {"seconds": sum(p["seconds"] for p in self.passes
                            if p.get("round") == r and "error" not in p),
             "traced": any(p["traced"] for p in self.passes
                           if p.get("round") == r)}
            for r in sorted({p["round"] for p in self.passes})]
        out["tracing.overhead_share"] = overhead_share(rounds)
        return out

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# serve-mixed: embedded repro serve, one closed-loop client
# ----------------------------------------------------------------------
HITS_PER_MISS = 2
#: serve-mixed reads its peak RSS after this many cycles, not at the end
#: of the window: the service keeps every stored document in memory, so
#: a whole-window peak would grow with throughput.
RSS_CYCLES = 15


class ServeMixed:
    """Upload, submit, wait and fetch: one miss, then two hits."""

    def __init__(self, manifest: dict, inputs_dir: Path, work: Path,
                 spans: Spans) -> None:
        self.entries = manifest["files"]
        self.inputs_dir = inputs_dir
        self.work = work
        self.spans = spans
        self.rng = random.Random(manifest["seed"])
        self.requests: list = []
        self.peak_rss = None

    def setup(self) -> None:
        from repro.serve import JobService, ServeClient, start_server_thread

        self.service = JobService(self.work / "serve-data")
        self.port, self._stop = start_server_thread(self.service)
        self.client = ServeClient(f"http://127.0.0.1:{self.port}")
        # The last trace of the pool is the warm-up; misses use the rest.
        warm = len(self.entries) - 1
        self.warmup = [self._request(-1, warm, hit=False),
                       self._request(-1, warm, hit=True)]

    def _request(self, cycle: int, index: int, hit: bool) -> dict:
        from repro.serve import ClientError

        entry = self.entries[index]
        data = (self.inputs_dir / entry["file"]).read_bytes()
        prefix = "serve.hit_" if hit else "serve."
        span = self.spans.span
        record = {"cycle": cycle, "index": index, "hit": hit,
                  "traced": self.spans.enabled}
        try:
            t0 = clock()
            with span("serve.hit" if hit else "serve.miss", cycle):
                with span(prefix + "upload", cycle):
                    ref = self.client.upload(data)["trace"]
                with span(prefix + "submit", cycle):
                    job = self.client.submit(ref)
                t_submitted = clock()
                with span(prefix + "wait", cycle):
                    # Wakes on the job's terminal transition (no poll).
                    self.service.drain()
                t_done = clock()
                with span(prefix + "fetch", cycle):
                    text = self.client.result(job["job"])
            record["seconds"] = clock() - t0
        except ClientError as exc:  # failed or refused (429/503)
            record["error"] = f"{exc} (HTTP {exc.status})"
            return record
        final = self.service.job(job["job"])
        record.update(
            status=final.status, cached=final.cached,
            job_s=final.seconds, wait_s=t_done - t_submitted,
            result_digest=hashlib.sha256(text.encode()).hexdigest(),
            doc_bytes=len(text), events=entry["events"])
        return record

    def measure(self, seconds: float, trace_mode: bool) -> None:
        start = clock()
        fresh = 0
        cycle = 0
        done: list = []
        while clock() - start < seconds and fresh < len(self.entries) - 1:
            self.spans.enabled = trace_mode and cycle % 2 == 0
            self.requests.append(self._request(cycle, fresh, hit=False))
            done.append(fresh)
            fresh += 1
            for _ in range(HITS_PER_MISS):
                self.requests.append(
                    self._request(cycle, self.rng.choice(done), hit=True))
            self.spans.enabled = False
            cycle += 1
            if cycle == RSS_CYCLES:
                self.peak_rss = peak_rss_mb()
        self.window_s = clock() - start

    def check(self) -> tuple:
        """Each result is byte-identical to ``analyze --json``."""
        refs = Refs(self.inputs_dir, "analyze-json")
        failed = 0
        notes = []
        for req in self.requests:
            entry = self.entries[req["index"]]
            problem = req.get("error", "")
            if not problem:
                path = str(self.inputs_dir / entry["file"])
                expected = refs.get(entry["digest"], lambda: hashlib.sha256(
                    analyze_json_text(path).encode()).hexdigest())
                if req["status"] != "done":
                    problem = f"job {req['status']}"
                elif req["cached"] != req["hit"]:
                    problem = "hit not served from the artifact store" \
                        if req["hit"] else "miss served from the store"
                elif req["result_digest"] != expected:
                    problem = "result differs from analyze --json"
            if problem:
                failed += 1
                notes.append(f"{entry['file']}: {problem}")
        refs.save()
        return len(self.requests), failed, notes

    def _ok(self, hit: bool) -> list:
        return [r for r in self.requests
                if "error" not in r and r["hit"] == hit]

    def end_to_end(self) -> dict:
        misses = [r["seconds"] for r in self._ok(False)]
        hits = [r["seconds"] for r in self._ok(True)]
        ok = len(misses) + len(hits)
        return {"latency_p50_s": (median(misses), len(misses)),
                "latency_p90_s": (percentile(misses, 90), len(misses)),
                "hit_latency_p50_s": (median(hits), len(hits)),
                "hit_latency_p90_s": (percentile(hits, 90), len(hits)),
                "throughput_per_s": (ok / self.window_s if ok else 0.0, ok)}

    def layers(self) -> dict:
        misses = [r for r in self._ok(False) if r["traced"]]
        d = self.spans.durations
        submitted = [r for r in self.requests if "error" not in r]
        return {
            "serve.upload_s": median(d("serve.upload")),
            "serve.submit_s": median(d("serve.submit")),
            "serve.queue_s": median(r["wait_s"] - r["job_s"]
                                    for r in misses),
            "serve.job_s": median(r["job_s"] for r in misses),
            "serve.fetch_s": median(d("serve.fetch")),
            "serve.hit_upload_s": median(d("serve.hit_upload")),
            "serve.hit_submit_s": median(d("serve.hit_submit")),
            "serve.hit_fetch_s": median(d("serve.hit_fetch")),
            "serve.store_hit_ratio": (sum(r["cached"] for r in submitted)
                                      / max(1, len(submitted))),
            "report.document_mb": median(r["doc_bytes"] / 1e6
                                         for r in misses),
            "core.events": median(r["events"] for r in misses),
            "tracing.overhead_share": overhead_share(
                [{"seconds": r["seconds"], "traced": r["traced"]}
                 for r in self._ok(False)]),
        }

    def close(self) -> None:
        self._stop()
        shutil.rmtree(self.work, ignore_errors=True)


def percentile(values: list, pct: int) -> float:
    """The ``pct``-th percentile, or 0 when fewer than ten samples lie
    beyond it (too few to report)."""
    beyond = len(values) * (100 - pct) / 100
    if beyond < 10:
        return 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


WORKLOADS = {
    "analyze-large": AnalyzeLarge,
    "batch-campaign": BatchCampaign,
    "serve-mixed": ServeMixed,
}


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS mark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Largest peak RSS of this process (since the last reset) and of
    any child it has waited for (batch workers)."""
    own = 0.0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024
    except OSError:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return max(own, children)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    manifest = json.loads((args.inputs / "manifest.json").read_text())
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    spans = Spans()
    workload = WORKLOADS[args.workload](manifest, args.inputs, args.work,
                                        spans)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        peak_reset = reset_peak_rss()
        workload.measure(args.seconds, bool(args.trace))
        peak = getattr(workload, "peak_rss", None) or peak_rss_mb()
        workload.close()
        attempted, failed, notes = workload.check()
        import multiprocessing

        import numpy

        layers = {}
        if args.trace:
            layers = dict.fromkeys(LAYER_METRICS, 0.0)
            layers.update(workload.layers())
        result.update(
            window_s=workload.window_s, peak_rss_mb=peak,
            peak_rss_window_only=peak_reset,
            end_to_end=workload.end_to_end(),
            layers=layers,
            attempted=attempted, failed=failed, notes=notes[:20],
            numpy=numpy.__version__,
            start_method=multiprocessing.get_start_method(),
        )
        if args.trace and args.spans_out is not None:
            spans.write(args.spans_out)
    else:
        workload.close()
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
