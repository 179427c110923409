"""Chaos suite: injected faults at every durability seam (``-m chaos``).

Proves the service's crash-safety story *under* failure instead of
around it: a seeded :class:`~repro.chaos.FaultPlan` schedules
``ENOSPC``/``EIO``/torn writes at the exact open/write/fsync/replace
fault points of the journal, the artifact store, and the upload path —
then the suite asserts no torn entry is ever served, exactly-once job
completion survives ``kill -9`` + restart, and degraded mode is
entered *and exited* correctly.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.batch import StructureCache
from repro.chaos import ChaosCrash, FaultPlan, FaultSpec
from repro.cli import main as cli_main
from repro.resilience.journal import JournalWriter, read_journal
from repro.serve import ArtifactStore, JobService, read_job_ledger

pytestmark = pytest.mark.chaos

POLL_DEADLINE = 120.0


# ----------------------------------------------------------------------
# Fixtures: three distinct traces and their CLI-rendered documents
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """[(path, expected `repro analyze --json` output), ...] x3."""
    out = []
    root = tmp_path_factory.mktemp("chaos")
    for seed in (1, 2, 3):
        path = root / f"t{seed}.jsonl"
        rc = cli_main(["simulate", "jacobi2d", "--chares", "4x4", "--pes",
                       "4", "--iterations", "2", "--seed", str(seed),
                       "-o", str(path)])
        assert rc == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["analyze", str(path), "--json"]) == 0
        out.append((path, buf.getvalue()))
    return out


def drain_until(service, predicate, deadline=POLL_DEADLINE):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------
def test_faultplan_explicit_schedule_is_deterministic():
    for _ in range(2):  # identical across constructions
        plan = FaultPlan(specs=["s.op:eio:at=2,at=4"])
        outcomes = []
        for _ in range(5):
            try:
                plan.trip("s.op")
                outcomes.append("ok")
            except OSError:
                outcomes.append("eio")
        assert outcomes == ["ok", "eio", "ok", "eio", "ok"]


def test_faultplan_rate_faults_reproducible_by_seed():
    def schedule(seed):
        plan = FaultPlan(specs=["s.op:eio:rate=0.5"], seed=seed)
        fired = []
        for call in range(40):
            try:
                plan.trip("s.op")
            except OSError:
                fired.append(call)
        return fired

    assert schedule(7) == schedule(7)
    assert schedule(7) != schedule(8)  # astronomically unlikely to match


def test_faultspec_parse_forms_and_errors():
    spec = FaultSpec.parse("store.*:latency:delay=0.5,times=2")
    assert spec.site == "store.*" and spec.kind == "latency"
    assert spec.delay == 0.5 and spec.times == 2
    assert spec.matches("store.fsync") and not spec.matches("ledger.fsync")
    assert FaultSpec.parse("a.b:crash:at=1,at=3").at == (1, 3)
    assert FaultSpec.parse("*:eio").matches("anything.at.all")
    for bad in ("nokind", "s.op:frobnicate", "s.op:eio:at=0",
                "s.op:eio:rate=2", "s.op:eio:bogus=1"):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)


def test_faultplan_times_cap_and_event_log():
    plan = FaultPlan(specs=["s.op:eio:times=2"])
    failures = 0
    for _ in range(5):
        try:
            plan.trip("s.op")
        except OSError:
            failures += 1
    assert failures == 2
    assert plan.fired("s.op") == 2 and plan.calls("s.op") == 5
    assert plan.summary()["by_site"] == {"s.op": 2}


def test_faultplan_crash_and_skewed_clock():
    plan = FaultPlan(specs=["w.run:crash:at=1", "tick:skew:skew=10"])
    with pytest.raises(ChaosCrash):
        plan.trip("w.run")
    before = plan.clock()
    plan.trip("tick")
    assert plan.clock() - before >= 10.0


# ----------------------------------------------------------------------
# JournalWriter under filesystem faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site,kind,d3_may_survive", [
    ("ledger.write", "enospc", False),
    ("ledger.write", "eio", False),
    ("ledger.write", "torn", False),
    ("ledger.fsync", "enospc", True),   # written but never made durable
    ("ledger.fsync", "torn", True),
])
def test_journal_fault_never_leaves_unparseable_state(tmp_path, site, kind,
                                                      d3_may_survive):
    path = tmp_path / "j.jsonl"
    with JournalWriter(path, append=True) as writer:
        writer.record("done", digest="d1", summary={})
        writer.record("done", digest="d2", summary={})

    plan = FaultPlan(specs=[f"{site}:{kind}:at=1"])
    writer = JournalWriter(path, append=True, fs=plan.fs("ledger"))
    with pytest.raises(OSError):
        writer.record("done", digest="d3", summary={})
    writer.close()
    assert plan.fired(site) == 1

    state = read_journal(path)
    assert {"d1", "d2"} <= set(state.done)
    if not d3_may_survive:
        assert "d3" not in state.done
    # At most the one torn fragment; every parsed entry is complete.
    assert state.corrupt_lines <= 1

    # Recovery: a plain append-mode writer terminates any torn tail and
    # the journal keeps accepting complete entries.
    with JournalWriter(path, append=True) as writer:
        writer.record("done", digest="d4", summary={})
    state = read_journal(path)
    assert {"d1", "d2", "d4"} <= set(state.done)
    assert state.corrupt_lines <= 1


def test_journal_open_fault_is_loud_not_corrupting(tmp_path):
    path = tmp_path / "j.jsonl"
    with JournalWriter(path, append=True) as writer:
        writer.record("done", digest="d1", summary={})
    plan = FaultPlan(specs=["ledger.open:enospc"])
    with pytest.raises(OSError):
        JournalWriter(path, append=True, fs=plan.fs("ledger"))
    assert set(read_journal(path).done) == {"d1"}


# ----------------------------------------------------------------------
# Artifact store under filesystem faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("site,kind", [
    ("store.open", "enospc"),
    ("store.write", "eio"),
    ("store.write", "torn"),
    ("store.fsync", "enospc"),
    ("store.fsync", "torn"),
    ("store.replace", "eio"),
    ("store.replace", "torn"),
])
def test_store_put_fault_leaves_no_torn_entry(tmp_path, site, kind):
    plan = FaultPlan(specs=[f"{site}:{kind}:at=2"])
    store = ArtifactStore(tmp_path / "a", fs=plan.fs("store"))
    store.put("aa11", b'{"doc": 1}')

    # Second put hits the fault at whichever op `site` names.
    plan2 = FaultPlan(specs=[f"{site}:{kind}:at=1"])
    faulty = ArtifactStore(tmp_path / "a", fs=plan2.fs("store"))
    with pytest.raises(OSError):
        faulty.put("bb22", b'{"doc": 2}')

    # A fresh reader sees the committed entry, never a torn one, and no
    # temp-file litter remains anywhere in the store.
    reader = ArtifactStore(tmp_path / "a")
    assert reader.get("aa11") == b'{"doc": 1}'
    assert reader.get("bb22") is None  # fault aborted before the rename
    leftovers = [p for p in (tmp_path / "a").rglob("*.tmp")]
    assert leftovers == []

    # The store recovers: the same key writes cleanly afterwards.
    reader.put("bb22", b'{"doc": 2}')
    assert ArtifactStore(tmp_path / "a").get("bb22") == b'{"doc": 2}'


def test_torn_open_raises_eio_and_writes_nothing(tmp_path):
    """``torn`` at ``open`` writes no bytes, so it degenerates to ``EIO``
    like ``torn`` at ``fsync``/``replace``: the put fails loudly, leaves
    no entry and no temp file, and the next put succeeds."""
    plan = FaultPlan(specs=["store.open:torn:at=1"])
    cache = StructureCache(tmp_path / "c", fs=plan.fs("store"))
    with pytest.raises(OSError) as err:
        cache.put("aa11", b"{}")
    assert err.value.errno == errno.EIO
    assert plan.summary()["fired"] == 1
    assert StructureCache(tmp_path / "c").get("aa11") is None  # not on disk
    assert list((tmp_path / "c").rglob("*.tmp")) == []
    cache.put("aa11", b"{}")
    assert StructureCache(tmp_path / "c").get("aa11") == b"{}"


def test_upload_fault_is_contained_and_retryable(tmp_path, traces):
    trace_path, _ = traces[0]
    data = trace_path.read_bytes()
    plan = FaultPlan(specs=["upload.fsync:enospc:at=1"])
    service = JobService(tmp_path / "d", workers=0, chaos=plan)
    try:
        with pytest.raises(OSError):
            service.upload(data)
        # Same bytes again: the fault was one-shot; content addressing
        # converges on the identical reference.
        ref = service.upload(data)["trace"]
        assert ref.startswith("upload:")
        assert service.upload(data)["trace"] == ref
    finally:
        service.stop()


# ----------------------------------------------------------------------
# Service degradation: enter AND exit
# ----------------------------------------------------------------------
def test_store_write_failure_serves_inline_then_recovers(tmp_path, traces):
    (trace1, doc1), (trace2, doc2) = traces[0], traces[1]
    plan = FaultPlan(specs=["store.fsync:enospc:at=1"])
    service = JobService(tmp_path / "d", workers=1, chaos=plan)
    service.start()
    try:
        job1 = service.submit(service.upload(trace1.read_bytes())["trace"])
        assert drain_until(service,
                           lambda: service.job(job1.id).status == "done")
        # The artifact write failed: result served inline, uncached,
        # and /healthz says degraded with the reason.
        assert service.result(job1.id) == doc1
        health = service.health()
        assert health["status"] == "degraded"
        assert "artifact-store" in health["reasons"]
        assert service.stats()["store"]["write_failures"] == 1

        # Next job's write succeeds -> degraded mode exits.
        job2 = service.submit(service.upload(trace2.read_bytes())["trace"])
        assert drain_until(service,
                           lambda: service.job(job2.id).status == "done")
        assert service.result(job2.id) == doc2
        assert service.health() == {"status": "ok", "reasons": {}}
    finally:
        service.stop()

    # After restart the inline-served artifact is genuinely absent
    # (410-equivalent), while the stored one survives.
    service = JobService(tmp_path / "d", workers=0)
    try:
        assert service.job(job1.id).status == "done"
        assert service.result(job1.id) is None
        assert service.result(job2.id) == doc2
    finally:
        service.stop()


def test_ledger_write_failure_falls_back_to_memory_only(tmp_path, traces):
    trace1, _ = traces[0]
    # Ledger fsync call 1 is the meta line; call 2 the first submit.
    plan = FaultPlan(specs=["ledger.fsync:enospc:at=2"])
    service = JobService(tmp_path / "d", workers=0, chaos=plan)
    try:
        ref = service.upload(trace1.read_bytes())["trace"]
        with pytest.warns(RuntimeWarning, match="memory-only"):
            job = service.submit(ref)
        # The submission was accepted despite the ledger failure...
        assert job.status == "queued"
        assert service.job(job.id) is not None
        stats = service.stats()
        assert stats["ledger"] == {"mode": "memory-only", "failures": 1}
        assert service.health()["status"] == "degraded"
        assert "ledger" in service.health()["reasons"]
        # ...and later submissions do not warn again (already degraded).
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            service.submit(ref, {"order": "physical"})
    finally:
        service.stop()


def test_torn_ledger_submit_line_is_not_replayed(tmp_path, traces):
    trace1, doc1 = traces[0]
    # Write call 1 = meta, call 2 = submit #1, call 3 = submit #2 (torn).
    plan = FaultPlan(specs=["ledger.write:torn:at=3"])
    service = JobService(tmp_path / "d", workers=0, chaos=plan)
    ref = service.upload(trace1.read_bytes())["trace"]
    with pytest.warns(RuntimeWarning):
        job1 = service.submit(ref)
        job2 = service.submit(ref, {"order": "physical"})
    assert service.job(job2.id) is not None  # accepted, memory-only
    service.stop()

    # Restart: the torn submit line is discarded whole — job1 replays
    # exactly once, the half-written job2 never resurrects as garbage.
    service = JobService(tmp_path / "d", workers=1)
    try:
        assert service.recovered == 1
        assert service.job(job1.id) is not None
        assert service.job(job2.id) is None
        service.start()
        assert drain_until(service,
                           lambda: service.job(job1.id).status == "done")
        assert service.result(job1.id) == doc1
    finally:
        service.stop()
    ledger = read_job_ledger(tmp_path / "d" / "jobs.jsonl")
    assert ledger[job1.id].status == "done"


def test_latency_faults_only_slow_never_corrupt(tmp_path, traces):
    trace1, doc1 = traces[0]
    plan = FaultPlan(specs=["store.*:latency:delay=0.01",
                            "ledger.*:latency:delay=0.01"])
    service = JobService(tmp_path / "d", workers=1, chaos=plan)
    service.start()
    try:
        job = service.submit(service.upload(trace1.read_bytes())["trace"])
        assert drain_until(service,
                           lambda: service.job(job.id).status == "done")
        assert service.result(job.id) == doc1
        assert service.health()["status"] == "ok"
        assert plan.fired() > 0  # the latency sites really ran
    finally:
        service.stop()


# ----------------------------------------------------------------------
# The acceptance differential: chaos + kill -9 + restart, byte-identical
# ----------------------------------------------------------------------
def _repo_src():
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _http(port, method, path, data=None):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_chaos_kill9_restart_exactly_once_byte_identical(tmp_path, traces):
    data_dir = tmp_path / "data"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [_repo_src(), env.get("PYTHONPATH", "")] if p)

    def start(workers, chaos=()):
        cmd = [sys.executable, "-m", "repro", "serve", "--data-dir",
               str(data_dir), "--port", "0", "--workers", str(workers)]
        for spec in chaos:
            cmd += ["--chaos", spec]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, env=env)
        line = proc.stdout.readline().decode()
        assert "listening on http://127.0.0.1:" in line, line
        return proc, int(line.split("http://127.0.0.1:")[1].split()[0])

    # Accept + journal one job per trace on a queue-only server, SIGKILL.
    proc, port = start(0)
    jobs = {}
    try:
        for path, expected in traces:
            _, body = _http(port, "POST", "/v1/traces", path.read_bytes())
            ref = json.loads(body)["trace"]
            status, body = _http(port, "POST", "/v1/jobs",
                                 json.dumps({"trace": ref}).encode())
            assert status == 202
            jobs[json.loads(body)["job"]] = expected
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    # Restart under a seeded fault plan over the fs fault points: the
    # first artifact fsync fails (inline-served result) and every store
    # write is slowed, yet the backlog completes exactly once and every
    # result is byte-identical to `repro analyze --json`.
    proc, port = start(2, chaos=("store.fsync:enospc:at=1",
                                 "store.write:latency:delay=0.005",
                                 "ledger.write:latency:delay=0.005"))
    try:
        deadline = time.monotonic() + POLL_DEADLINE
        while time.monotonic() < deadline:
            stats = json.loads(_http(port, "GET", "/v1/stats")[1])
            if stats["jobs"]["done"] == len(jobs):
                break
            time.sleep(0.2)
        assert stats["jobs"]["done"] == len(jobs)
        assert stats["recovered"] == len(jobs)
        assert stats["store"]["write_failures"] == 1
        assert stats["chaos"]["fired"] >= 1
        for job_id, expected in jobs.items():
            status, body = _http(port, "GET", f"/v1/jobs/{job_id}/result")
            assert status == 200
            assert body.decode("utf-8") == expected
        # Degraded mode exited: later store writes succeeded.
        health = json.loads(_http(port, "GET", "/healthz")[1])
        assert health["ok"] is True and health["status"] == "ok"
    finally:
        proc.terminate()
        proc.wait()

    # Exactly once: one "done" ledger line per job, no extras.
    with open(data_dir / "jobs.jsonl") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    done = sorted(e["job"] for e in lines if e.get("kind") == "done")
    assert done == sorted(jobs)
