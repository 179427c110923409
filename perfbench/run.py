"""Benchmark of the analyze, batch and serve paths of ``repro``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload analyze-large --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke          # all workloads, tiny inputs

One run: generate the seeded inputs (cached in ``.perfbench_cache/``),
start the workload in fresh interpreters — a few that only set up, to
time set-up, and one that sets up, warms up, measures for ``--seconds``
and checks every output — then print a table of every metric and, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The full result (machine fingerprint, input digests,
sample counts, spreads, every metric including the ones not gated) is
written to ``.perfbench_cache/results/``.  Only the standard library is
imported here; the program runs from ``src/`` in the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import spec_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
WORKLOADS = ("analyze-large", "batch-campaign", "serve-mixed")
#: Set-up samples per run (fresh interpreters; the measuring one included).
SETUP_SAMPLES = {"analyze-large": 3, "batch-campaign": 5, "serve-mixed": 5}
#: Input directories kept per workload (~120 MB per seed for all three);
#: the least recently used are evicted.
KEEP_INPUTS = 12
#: Wall-clock cap for any one child process, seconds.
CHILD_TIMEOUT = 150.0

#: Printed beside the gated metrics; not in BENCHMARK.json because not
#: every workload has them (see perfbench/README.md).
EXTRA_UNITS = {"latency_p90_s": "s", "hit_latency_p50_s": "s",
               "hit_latency_p90_s": "s", "hardened_throughput_per_s": "1/s",
               "error_rate": "share"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: two cores are shared with the batch workers.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(cmd: list, timeout: float = CHILD_TIMEOUT) -> None:
    """Run one child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:g}s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}:\n"
                         + err.decode(errors="replace")[-3000:])


def ensure_inputs(workload: str, seed: int, scale: str) -> Path:
    """The input directory for (workload, seed, scale), generated once."""
    base = CACHE / "inputs"
    out = base / f"{workload}-{scale}-seed{seed}-{spec_key(workload, scale)}"
    if not (out / "manifest.json").exists():
        shutil.rmtree(out, ignore_errors=True)
        run_child([sys.executable, str(HERE / "inputs.py"), workload,
                   str(seed), scale, str(out)], timeout=600.0)
    os.utime(out)
    olds = sorted((p for p in base.glob(f"{workload}-*") if p != out),
                  key=lambda p: p.stat().st_mtime)
    for old in olds[:max(0, len(olds) - (KEEP_INPUTS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return out


def run_workload(workload: str, inputs: Path, seconds: float, trace: int,
                 setup_only: bool, tag: str) -> dict:
    out = CACHE / "tmp" / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--inputs", str(inputs), "--work", str(CACHE / "work" / tag),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--spans-out",
                str(CACHE / "results" / f"{tag}-spans.jsonl")]
    cmd += ["--spawned-at", repr(time.monotonic())]
    run_child(cmd)
    result = json.loads(out.read_text())
    out.unlink()
    return result


def source_digest() -> str:
    """Digest of the program and benchmark sources (the code measured)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def spread(values: list) -> dict:
    """Median, quartile distance over the median, and sample count."""
    values = [v for v in values if v is not None]
    if not values:
        return {"n": 0}
    med = statistics.median(values)
    out = {"n": len(values), "median": med}
    if len(values) >= 2 and med:
        q = statistics.quantiles(values, n=4)
        out["iqr_share"] = (q[2] - q[0]) / abs(med)
    return out


def record_history(entry: dict) -> list:
    """Append a run to the history; return the runs of the same workload,
    mode, scale and sources, this one included."""
    path = CACHE / "results" / "history.jsonl"
    with open(path, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    key = ("workload", "trace", "scale", "source")
    runs = [json.loads(line) for line in path.read_text().splitlines()]
    return [r for r in runs if all(r[k] == entry[k] for k in key)]


def measure(workload: str, seed: int, seconds: float, trace: int,
            scale: str, config: dict) -> dict:
    inputs = ensure_inputs(workload, seed, scale)
    manifest = json.loads((inputs / "manifest.json").read_text())
    tag = f"{workload}-{scale}-seed{seed}-trace{trace}"
    setups = []
    if not trace:
        for k in range(SETUP_SAMPLES[workload] - 1):
            setups.append(run_workload(workload, inputs, seconds, trace,
                                       True, f"{tag}-setup{k}")["setup_s"])
    main = run_workload(workload, inputs, seconds, trace, False, tag)
    setups.append(main["setup_s"])

    e2e = main["end_to_end"]
    values = {name: value for name, (value, _n) in e2e.items()}
    counts = {name: n for name, (_value, n) in e2e.items()}
    values.update(setup_s=statistics.median(setups),
                  peak_rss_mb=main["peak_rss_mb"],
                  error_rate=main["failed"] / max(1, main["attempted"]))
    counts.update(setup_s=len(setups), peak_rss_mb=1,
                  error_rate=main["attempted"])
    gated = config["per_layer"] if trace else config["end_to_end"]
    source = main["layers"] if trace else values
    missing = [m["name"] for m in gated if m["name"] not in source]
    if missing:
        raise BenchError(f"{workload} did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in gated}
    line = {"correct": main["failed"] == 0 and main["attempted"] > 0,
            "attempted": main["attempted"], "failed": main["failed"],
            "metrics": metrics}

    code = source_digest()
    same = record_history({
        "workload": workload, "trace": trace, "seed": seed, "scale": scale,
        "source": code,
        "metrics": {k: v["value"] for k, v in metrics.items()}})
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "result": line,
        "samples": counts, "all_metrics": values if not trace else {
            **values, **main["layers"]},
        "setup_samples_s": setups, "window_s": main["window_s"],
        "peak_rss_window_only": main["peak_rss_window_only"],
        "notes": main["notes"],
        "spread_across_runs": {
            name: spread([h["metrics"].get(name) for h in same])
            for name in metrics},
        "inputs": {"dir": inputs.name, "files": [
            {k: f[k] for k in ("file", "digest", "events")}
            for f in manifest["files"]]},
        "fingerprint": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": main["numpy"],
            "start_method": main["start_method"],
            "git_commit": git_commit(), "source_digest": code,
        },
    }
    (CACHE / "results" / f"{tag}.json").write_text(
        json.dumps(detail, indent=1))
    return detail


def print_table(detail: dict, config: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} window={detail['window_s']:.2f}s "
          f"commit={detail['fingerprint']['git_commit'][:12]} "
          f"nproc={detail['fingerprint']['nproc']}")
    units = {m["name"]: m["unit"]
             for m in config["end_to_end"] + config["per_layer"]}
    units.update(EXTRA_UNITS)
    for name, value in detail["all_metrics"].items():
        n = detail["samples"].get(name)
        if name.endswith("_p90_s") and not value:
            print(f"{name:36s} n/a (n={n}: fewer than ten samples beyond)")
            continue
        print(f"{name:36s} {value:12.6g} {units.get(name, ''):6s}"
              + (f" n={n}" if n is not None else ""))
    for note in detail["notes"]:
        print(f"check failed: {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a short window; all workloads "
                         "unless --workload is given")
    args = ap.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not config_path.exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required (except with --smoke)")
    config = json.loads(config_path.read_text())
    (CACHE / "results").mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    scale = "smoke" if args.smoke else "full"
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    try:
        for workload in workloads:
            detail = measure(workload, args.seed, seconds, args.trace,
                             scale, config)
            print_table(detail, config)
            print(json.dumps(detail["result"]), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(CACHE / "work", ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
