"""Seeded benchmark inputs: simulated traces written to an on-disk cache.

Run as ``python3 perfbench/inputs.py WORKLOAD SEED SCALE OUT_DIR``.  It
simulates every trace of the workload's spec with the ``repro.apps``
simulators, writes each as a JSONL trace file under ``OUT_DIR``, and
writes ``manifest.json`` (file names, SHA-256 digests, event counts)
last, so a directory with a manifest is complete.  The same
(workload, seed, scale) always yields the same files: every simulator
seed is derived from the workload seed and the trace's index.

Generation happens in its own process before any timing starts; the
measured program only ever reads the files.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from multiprocessing import get_context
from pathlib import Path

#: Trace kinds: name -> (app, simulator arguments).  "charm" kinds are
#: Charm++ task-model traces, "mpi" kinds message-passing traces.
KINDS = {
    # analyze-large: the fig19 512-chare point (~106k events, ~20 MB).
    "lulesh512": ("lulesh", {"chares": 512, "pes": 8, "iterations": 8}),
    # serve-mixed: a small trace (~2.4k events) per request.
    "lulesh27x4": ("lulesh", {"chares": 27, "pes": 4, "iterations": 4}),
    # batch-campaign small and medium traces, both trace models.
    "lulesh27": ("lulesh", {"chares": 27, "pes": 4, "iterations": 2}),
    "mergetree256": ("mergetree", {"ranks": 256}),
    "lulesh125": ("lulesh", {"chares": 125, "pes": 8, "iterations": 2}),
    "jacobi8x8": ("jacobi2d", {"chares": (8, 8), "pes": 8, "iterations": 2}),
    "lassen64": ("lassen", {"chares": 64, "pes": 8, "iterations": 2}),
    # smoke-scale stand-ins: same apps, a few hundred events each.
    "lulesh8": ("lulesh", {"chares": 8, "pes": 2, "iterations": 2}),
    "mergetree16": ("mergetree", {"ranks": 16}),
    "jacobi2x2": ("jacobi2d", {"chares": (2, 2), "pes": 2, "iterations": 2}),
}

#: Workload -> scale -> list of (kind, count).  Order is the order the
#: workload consumes the files in.
SPECS = {
    "analyze-large": {
        "full": [("lulesh512", 1)],
        "smoke": [("lulesh8", 1)],
    },
    "batch-campaign": {
        # 64 traces: two rounds (default + hardened pass) fit one
        # 10 s window on two cores.
        "full": [("lulesh27", 20), ("mergetree256", 20), ("lulesh125", 8),
                 ("jacobi8x8", 8), ("lassen64", 8)],
        "smoke": [("lulesh8", 3), ("mergetree16", 3), ("jacobi2x2", 2)],
    },
    "serve-mixed": {
        # One fresh trace per miss; the pool must outlast the timed
        # window (a cycle takes ~0.18 s, so 160 covers a 10 s window
        # even if cycles get nearly three times faster).
        "full": [("lulesh27x4", 160)],
        "smoke": [("lulesh8", 6)],
    },
}


def spec_key(workload: str, scale: str) -> str:
    """Short digest of a workload's input spec (part of the cache key)."""
    spec = [(kind, count, KINDS[kind]) for kind, count in
            SPECS[workload][scale]]
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:12]


def simulate(kind: str, sim_seed: int):
    from repro import apps

    app, args = KINDS[kind]
    if app == "lulesh":
        return apps.lulesh.run_charm(seed=sim_seed, **args)
    if app == "mergetree":
        return apps.mergetree.run(seed=sim_seed, **args)
    if app == "jacobi2d":
        return apps.jacobi2d.run(seed=sim_seed, **args)
    if app == "lassen":
        return apps.lassen.run_charm(seed=sim_seed, **args)
    raise ValueError(f"unknown app {app!r}")


def _write_one(job):
    """Simulate and write one trace; returns its manifest entry."""
    from repro.trace.writer import write_trace

    out_dir, name, kind, sim_seed = job
    trace = simulate(kind, sim_seed)
    path = Path(out_dir) / name
    write_trace(trace, path)
    data = path.read_bytes()
    return {"file": name, "kind": kind, "sim_seed": sim_seed,
            "events": len(trace.events), "bytes": len(data),
            "digest": hashlib.sha256(data).hexdigest()}


def generate(workload: str, seed: int, scale: str, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    index = 0
    for kind, count in SPECS[workload][scale]:
        for _ in range(count):
            # Distinct, reproducible simulator seeds per (seed, index).
            sim_seed = seed * 100_003 + index
            jobs.append((str(out_dir), f"{index:04d}-{kind}.jsonl", kind,
                         sim_seed))
            index += 1
    procs = min(2, len(jobs))
    if procs > 1:
        with get_context("fork").Pool(procs) as pool:
            files = pool.map(_write_one, jobs, chunksize=4)
    else:
        files = [_write_one(job) for job in jobs]
    manifest = {"workload": workload, "seed": seed, "scale": scale,
                "spec": spec_key(workload, scale), "files": files}
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp, out_dir / "manifest.json")
    return manifest


def main(argv) -> int:
    workload, seed, scale, out_dir = argv
    generate(workload, int(seed), scale, Path(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
