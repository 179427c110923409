"""Batch hardening: timeouts, retries, crash recovery, cache atomicity,
and digest field coverage.

The scheduler tests monkeypatch :func:`repro.batch._extract_one` in the
parent; worker processes are forked on Linux and inherit the patch, so a
sleeping or crashing worker can be simulated without fixture plumbing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro import batch as batch_mod
from repro.api import (
    BatchExtractor,
    PipelineOptions,
    StructureCache,
    trace_digest,
    write_trace,
)
from repro.apps import jacobi2d
from repro.trace.events import NO_ID, EventKind
from repro.trace.model import TraceBuilder

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "j.jsonl"
    write_trace(jacobi2d.run(chares=(3, 3), pes=2, iterations=1, seed=0),
                path)
    return str(path)


def _sleepy(source, option_fields):
    time.sleep(30.0)
    return True, {}, "", 30.0


def _crashy(source, option_fields):
    os._exit(13)


# ---------------------------------------------------------------------------
# Timeouts, retries, crash containment
# ---------------------------------------------------------------------------
@pytest.mark.batch
def test_timeout_kills_and_reports(trace_file, monkeypatch):
    monkeypatch.setattr(batch_mod, "_extract_one", _sleepy)
    t0 = time.monotonic()
    report = BatchExtractor(PipelineOptions(), timeout=0.4).run([trace_file])
    elapsed = time.monotonic() - t0
    r = report.results[0]
    assert not r.ok and r.timed_out and r.attempts == 1
    assert "Timeout" in r.error
    assert elapsed < 10.0  # killed, not waited out
    assert report.timeouts == [r]
    assert not report.ok


@pytest.mark.batch
def test_timeout_retries_with_backoff(trace_file, monkeypatch):
    monkeypatch.setattr(batch_mod, "_extract_one", _sleepy)
    report = BatchExtractor(PipelineOptions(), timeout=0.3, retries=2,
                            backoff=0.05).run([trace_file])
    r = report.results[0]
    assert not r.ok and r.timed_out and r.attempts == 3


@pytest.mark.batch
def test_timeout_does_not_stall_other_traces(trace_file, tmp_path,
                                             monkeypatch):
    # Acceptance: one hung worker is killed while the rest of the batch
    # completes normally.
    flag = tmp_path / "hang-only-first"
    flag.write_text(trace_file)
    real = batch_mod._extract_one

    def hang_one(source, option_fields):
        if str(source) == flag.read_text():
            time.sleep(30.0)
        return real(source, option_fields)

    monkeypatch.setattr(batch_mod, "_extract_one", hang_one)
    other = tmp_path / "other.jsonl"
    other.write_bytes(Path(trace_file).read_bytes())
    report = BatchExtractor(PipelineOptions(), jobs=2,
                            timeout=1.0).run([trace_file, str(other)])
    assert not report.results[0].ok and report.results[0].timed_out
    assert report.results[1].ok


@pytest.mark.batch
def test_worker_crash_is_a_failure_row(trace_file, monkeypatch):
    monkeypatch.setattr(batch_mod, "_extract_one", _crashy)
    report = BatchExtractor(PipelineOptions(), timeout=30.0).run([trace_file])
    r = report.results[0]
    assert not r.ok and not r.timed_out
    assert "WorkerCrash" in r.error and "13" in r.error


@pytest.mark.batch
def test_crash_then_retry_succeeds(trace_file, tmp_path, monkeypatch):
    # First attempt crashes; the retry (flag file consumed) succeeds.
    flag = tmp_path / "crash-once"
    flag.write_text("arm")
    real = batch_mod._extract_one

    def crash_once(source, option_fields):
        if flag.exists():
            flag.unlink()
            os._exit(13)
        return real(source, option_fields)

    monkeypatch.setattr(batch_mod, "_extract_one", crash_once)
    report = BatchExtractor(PipelineOptions(), timeout=60.0, retries=1,
                            backoff=0.05).run([trace_file])
    r = report.results[0]
    assert r.ok and r.attempts == 2 and not r.timed_out


@pytest.mark.batch
def test_timeout_requires_positive_value():
    with pytest.raises(ValueError, match="timeout"):
        BatchExtractor(PipelineOptions(), timeout=0.0)


@pytest.mark.batch
def test_process_path_matches_serial(trace_file):
    serial = BatchExtractor(PipelineOptions()).run([trace_file])
    viaproc = BatchExtractor(PipelineOptions(),
                             timeout=120.0).run([trace_file])
    assert serial.results[0].summary["phases"] == \
        viaproc.results[0].summary["phases"]
    assert serial.results[0].summary["max_step"] == \
        viaproc.results[0].summary["max_step"]


# ---------------------------------------------------------------------------
# Cache atomicity
# ---------------------------------------------------------------------------
def test_partial_cache_file_reads_as_miss(trace_file, tmp_path):
    cache = StructureCache(tmp_path / "cache")
    report = BatchExtractor(PipelineOptions(), cache=cache).run([trace_file])
    assert report.ok
    entry = next(p for p in (tmp_path / "cache").iterdir()
                 if p.suffix == ".json")
    # Simulate a write killed partway: truncate the persisted entry.
    entry.write_text(entry.read_text()[:17])

    fresh = StructureCache(tmp_path / "cache")
    report2 = BatchExtractor(PipelineOptions(), cache=fresh).run([trace_file])
    assert report2.ok
    assert not report2.results[0].cached  # torn entry counted as a miss
    # The re-run rewrote a complete entry over the torn one.
    json.loads(entry.read_text())


def test_no_temp_litter_after_put(tmp_path):
    cache = StructureCache(tmp_path / "cache")
    for i in range(5):
        cache.put(f"key{i}", json.dumps({"n": i}).encode())
    leftover = [p for p in (tmp_path / "cache").iterdir()
                if p.suffix != ".json"]
    assert leftover == []


def test_concurrent_writers_never_tear(tmp_path):
    # Many threads × several processes' worth of writers on one key must
    # always leave a complete, parseable entry (os.replace is atomic).
    directory = tmp_path / "cache"
    payloads = [json.dumps({"writer": i, "fill": "x" * 2000}).encode()
                for i in range(8)]
    caches = [StructureCache(directory) for _ in payloads]
    stop = time.monotonic() + 0.5

    def hammer(cache, payload):
        while time.monotonic() < stop:
            cache.put("shared", payload)

    threads = [threading.Thread(target=hammer, args=(c, p))
               for c, p in zip(caches, payloads)]
    for t in threads:
        t.start()
    reads = 0
    while time.monotonic() < stop:
        path = directory / "shared.json"
        if path.exists():
            doc = json.loads(path.read_text())  # must never be torn
            assert doc["fill"] == "x" * 2000
            reads += 1
    for t in threads:
        t.join()
    assert reads > 0
    json.loads((directory / "shared.json").read_text())


# ---------------------------------------------------------------------------
# Digest field coverage
# ---------------------------------------------------------------------------
def _base_kwargs():
    return dict(
        num_pes=2, metadata={"app": "unit"},
        entry=("work", "Worker", False, -1),
        array=("grid", (2,)),
        chare=("grid[0]", 0, (0,), False, 0),
        exec_span=(0.0, 2.0), exec_recv=NO_ID,
        event=(EventKind.SEND, 0, 0, 1.0),
        message=(0, NO_ID),
        idle=(1, 0.5, 1.5),
    )


def _build(kw):
    b = TraceBuilder(num_pes=kw["num_pes"], metadata=dict(kw["metadata"]))
    b.add_entry(*kw["entry"])
    b.add_array(*kw["array"])
    b.add_chare(*kw["chare"])
    x = b.add_execution(0, 0, 0, *kw["exec_span"],
                        recv_event=kw["exec_recv"])
    ev = b.add_event(kw["event"][0], kw["event"][1], kw["event"][2],
                     kw["event"][3], execution=x)
    b.add_message(*kw["message"])
    b.add_idle(*kw["idle"])
    return b.build()


FIELD_FLIPS = {
    "num_pes": ("num_pes", 4),
    "metadata": ("metadata", {"app": "other"}),
    "entry_name": ("entry", ("work2", "Worker", False, -1)),
    "entry_chare_type": ("entry", ("work", "Boss", False, -1)),
    "entry_sdag": ("entry", ("work", "Worker", True, 3)),
    "array_name": ("array", ("mesh", (2,))),
    "array_shape": ("array", ("grid", (4,))),
    "chare_name": ("chare", ("grid[1]", 0, (0,), False, 0)),
    "chare_index": ("chare", ("grid[0]", 0, (1,), False, 0)),
    "chare_runtime": ("chare", ("grid[0]", 0, (0,), True, 0)),
    "chare_home_pe": ("chare", ("grid[0]", 0, (0,), False, 1)),
    "exec_span": ("exec_span", (0.0, 3.0)),
    "event_kind": ("event", (EventKind.RECV, 0, 0, 1.0)),
    "event_pe": ("event", (EventKind.SEND, 0, 1, 1.0)),
    "event_time": ("event", (EventKind.SEND, 0, 0, 1.25)),
    "idle_pe": ("idle", (0, 0.5, 1.5)),
    "idle_span": ("idle", (1, 0.5, 1.75)),
}


@pytest.mark.parametrize("label", sorted(FIELD_FLIPS))
def test_digest_sees_every_field(label):
    # Regression for the digest omitting idles, home_pe, and names: any
    # single-field change must change the in-memory digest.
    base = trace_digest(_build(_base_kwargs()))
    kw = _base_kwargs()
    key, value = FIELD_FLIPS[label]
    kw[key] = value
    assert trace_digest(_build(kw)) != base, label


def test_digest_handles_no_id_and_missing_fields():
    # NO_ID endpoints, NO_ID recv, empty registries: must hash, not raise.
    b = TraceBuilder(num_pes=1)
    b.add_chare("lonely")
    b.add_entry("noop")
    b.add_execution(0, 0, 0, 0.0, 1.0, recv_event=NO_ID)
    b.add_message(NO_ID, NO_ID)
    d = trace_digest(b.build())
    assert isinstance(d, str) and len(d) == 64


def test_digest_distinguishes_recv_assignment():
    kw = _base_kwargs()
    base = trace_digest(_build(kw))
    kw["exec_recv"] = 0  # the event becomes the execution's trigger
    kw["event"] = (EventKind.RECV, 0, 0, 0.0)
    assert trace_digest(_build(kw)) != base
