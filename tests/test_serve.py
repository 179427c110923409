"""The extraction service: HTTP round trips, caching, crash recovery.

Three layers under test, matching the service's own structure:

* :class:`repro.serve.JobService` directly — ledger resume, cached
  resubmission, failure containment;
* the asyncio HTTP app via :func:`start_server_thread` — endpoint
  behaviour, error statuses, and the headline guarantee that a served
  result is **byte-identical** to ``repro analyze --json``;
* the real ``repro serve`` subprocess — ``kill -9`` mid-queue followed
  by a restart completes every journaled job exactly once.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.serve import JobService, read_job_ledger, start_server_thread

pytestmark = pytest.mark.serve

POLL_DEADLINE = 120.0


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "t.jsonl"
    rc = cli_main(["simulate", "jacobi2d", "--chares", "4x4", "--pes", "4",
                   "--iterations", "2", "--seed", "1", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def expected_json(trace_file):
    """Exactly what ``repro analyze --json`` prints for the trace."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["analyze", str(trace_file), "--json"])
    assert rc == 0
    return buf.getvalue()


def http(port, method, path, data=None):
    """One request; returns (status, body-bytes) — errors included."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def wait_done(port, job_id):
    deadline = time.monotonic() + POLL_DEADLINE
    while time.monotonic() < deadline:
        status, body = http(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        record = json.loads(body)
        if record["status"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish in {POLL_DEADLINE}s")


@pytest.fixture()
def server(tmp_path):
    service = JobService(tmp_path / "data", workers=1)
    port, stop = start_server_thread(service)
    try:
        yield port, service
    finally:
        stop()


# ----------------------------------------------------------------------
# HTTP round trip
# ----------------------------------------------------------------------
def test_worker_import_loads_no_service_stack():
    """``import repro.serve.worker`` (the job body) loads neither asyncio
    nor the app, client or job service: the package resolves its
    exported names on first access, and every one of them resolves."""
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, {src!r})
        import repro.serve.worker
        loaded = sorted(m for m in sys.modules
                        if m == "asyncio" or m.startswith("repro.serve."))
        import repro.serve as serve
        print(json.dumps([loaded,
                          [n for n in serve.__all__ if not hasattr(serve, n)]]))
    """).format(src=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, unresolved = json.loads(proc.stdout.splitlines()[-1])
    assert "asyncio" not in loaded
    assert not {"repro.serve.app", "repro.serve.client",
                "repro.serve.jobs"} & set(loaded)
    assert unresolved == []


def test_round_trip_byte_identical(server, trace_file, expected_json):
    port, _service = server
    status, body = http(port, "GET", "/healthz")
    assert status == 200 and json.loads(body)["ok"]

    status, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
    assert status == 200
    ref = json.loads(body)["trace"]
    assert ref.startswith("upload:")

    request = json.dumps({"trace": ref, "options": {}}).encode()
    status, body = http(port, "POST", "/v1/jobs", request)
    assert status == 202
    job_id = json.loads(body)["job"]

    record = wait_done(port, job_id)
    assert record["status"] == "done"
    assert not record["cached"]

    status, body = http(port, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert body.decode("utf-8") == expected_json


def test_resubmission_served_from_artifact_store(server, trace_file,
                                                 expected_json):
    port, service = server
    _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
    ref = json.loads(body)["trace"]
    request = json.dumps({"trace": ref, "options": {}}).encode()

    status, body = http(port, "POST", "/v1/jobs", request)
    assert status == 202
    wait_done(port, json.loads(body)["job"])

    # Identical trace + options: born done from the store, 200 not 202,
    # and no extraction ran (zero attempts on the job record).
    status, body = http(port, "POST", "/v1/jobs", request)
    assert status == 200
    record = json.loads(body)
    assert record["status"] == "done" and record["cached"]
    assert record["attempts"] == 0

    status, body = http(port, "GET", f"/v1/jobs/{record['job']}/result")
    assert status == 200
    assert body.decode("utf-8") == expected_json

    # An option change is a different artifact key: extraction reruns.
    changed = json.dumps(
        {"trace": ref, "options": {"order": "physical"}}).encode()
    status, body = http(port, "POST", "/v1/jobs", changed)
    assert status == 202
    assert json.loads(body)["key"] != record["key"]
    wait_done(port, json.loads(body)["job"])


def test_register_path_flow(server, trace_file, expected_json):
    port, _service = server
    request = json.dumps({"path": str(trace_file)}).encode()
    status, body = http(port, "POST", "/v1/traces/register", request)
    assert status == 200
    ref = json.loads(body)["trace"]

    status, body = http(port, "POST", "/v1/jobs",
                        json.dumps({"trace": ref, "options": {}}).encode())
    assert status in (200, 202)  # upload-flow runs may have primed the store
    job_id = json.loads(body)["job"]
    wait_done(port, job_id)
    status, body = http(port, "GET", f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert body.decode("utf-8") == expected_json


def test_http_error_statuses(server, tmp_path):
    port, service = server
    assert http(port, "GET", "/no/such")[0] == 404
    assert http(port, "DELETE", "/v1/jobs")[0] == 405
    assert http(port, "POST", "/v1/jobs", b"{not json")[0] == 400
    assert http(port, "GET", "/v1/jobs/job-999999")[0] == 404
    assert http(port, "GET", "/v1/jobs/job-999999/result")[0] == 404
    assert http(port, "POST", "/v1/traces", b"")[0] == 400

    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text("this is not a trace\n")
    # Unknown option field is rejected before any job exists.
    bad = json.dumps({"trace": str(bogus), "options": {"nope": 1}}).encode()
    assert http(port, "POST", "/v1/jobs", bad)[0] == 400
    # A submittable-but-unparsable trace fails its job; result is a 409.
    req = json.dumps({"trace": str(bogus), "options": {}}).encode()
    status, body = http(port, "POST", "/v1/jobs", req)
    assert status == 202
    record = wait_done(port, json.loads(body)["job"])
    assert record["status"] == "failed" and record["error"]
    status, body = http(port, "GET", f"/v1/jobs/{record['job']}/result")
    assert status == 409
    assert record["error"] in json.loads(body)["error"]


def test_client_cannot_set_server_paths_or_removed_options(server, trace_file,
                                                          tmp_path):
    # checkpoint_dir names a directory on the server: a client choosing
    # it could make the server write pickles there and unpickle them on
    # resume.  It is refused like hooks, before anything is journaled,
    # and so is an unknown field such as shard_workers.
    port, service = server
    _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
    ref = json.loads(body)["trace"]
    ledger_before = (service.ledger_path.read_bytes()
                     if service.ledger_path.exists() else b"")
    target = tmp_path / "client-chosen"
    for field, value in (("checkpoint_dir", str(target)),
                         ("shard_workers", 2)):
        request = json.dumps({"trace": ref,
                              "options": {field: value}}).encode()
        status, body = http(port, "POST", "/v1/jobs", request)
        assert status == 400, field
        assert field in json.loads(body)["error"]
    ledger_after = (service.ledger_path.read_bytes()
                    if service.ledger_path.exists() else b"")
    assert ledger_after == ledger_before
    assert not target.exists()
    assert not any(service.stats()["jobs"].values())


@pytest.mark.parametrize("field,value", [
    ("backend", "bogus"),
    ("order", "sideways"),
    ("mode", "spark"),
    ("ingest", "lazy"),
    ("repair", "aggressive"),
    ("on_error", "ignore"),
    ("hook_errors", "swallow"),
    ("tie_break", "nope"),
])
def test_invalid_option_value_rejected_before_journaling(server, trace_file,
                                                         field, value):
    # Every enumerated option is checked at submit: a bad value answers
    # 400 naming the field and never reaches the ledger or a worker.
    port, service = server
    _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
    ref = json.loads(body)["trace"]
    options = {field: value}
    if field == "tie_break":
        options["order"] = "physical"  # an order that never consults it
    request = json.dumps({"trace": ref, "options": options}).encode()
    status, body = http(port, "POST", "/v1/jobs", request)
    assert status == 400
    assert field in json.loads(body)["error"]
    assert not read_job_ledger(service.ledger_path)
    assert not any(service.stats()["jobs"].values())


def test_result_conflict_while_queued_and_gone_after_eviction(
        tmp_path, trace_file):
    service = JobService(tmp_path / "data", workers=0)  # nothing drains
    port, stop = start_server_thread(service)
    try:
        _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
        ref = json.loads(body)["trace"]
        status, body = http(port, "POST", "/v1/jobs",
                            json.dumps({"trace": ref, "options": {}}).encode())
        assert status == 202
        job_id = json.loads(body)["job"]
        status, body = http(port, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 409
        assert "queued" in json.loads(body)["error"]
    finally:
        stop()

    # Complete the job on a restarted service, then evict its artifact:
    # the job stays "done" but the result is gone (410).
    service = JobService(tmp_path / "data", workers=1)
    port, stop = start_server_thread(service)
    try:
        assert wait_done(port, job_id)["status"] == "done"
        service.store.prune(max_bytes=1)  # quota no artifact fits
        status, body = http(port, "GET", f"/v1/jobs/{job_id}/result")
        assert status == 410
    finally:
        stop()


def test_stats_reports_store_and_counts(server, trace_file):
    port, _service = server
    _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
    ref = json.loads(body)["trace"]
    _, body = http(port, "POST", "/v1/jobs",
                   json.dumps({"trace": ref, "options": {}}).encode())
    wait_done(port, json.loads(body)["job"])
    status, body = http(port, "GET", "/v1/stats")
    assert status == 200
    stats = json.loads(body)
    assert stats["jobs"]["done"] >= 1
    assert stats["store"]["disk_entries"] >= 1
    assert stats["store"]["shard_prefix"] == 2
    assert stats["store"]["shards"]  # sharded layout in use


# ----------------------------------------------------------------------
# Ledger resume
# ----------------------------------------------------------------------
def test_restart_resumes_queued_jobs_in_process(tmp_path, trace_file):
    data = tmp_path / "data"
    service = JobService(data, workers=0)
    ref = service.upload(trace_file.read_bytes())["trace"]
    first = service.submit(ref, {})
    second = service.submit(ref, {"order": "physical"})
    assert first.status == second.status == "queued"
    service.stop()

    service = JobService(data, workers=1)
    assert service.recovered == 2
    service.start()
    try:
        deadline = time.monotonic() + POLL_DEADLINE
        while time.monotonic() < deadline:
            jobs = {j.id: j.status for j in service.jobs()}
            if set(jobs.values()) == {"done"}:
                break
            time.sleep(0.05)
        assert {j.status for j in service.jobs()} == {"done"}
        assert service.result(first.id) is not None
        assert service.result(second.id) is not None
    finally:
        service.stop()

    ledger = read_job_ledger(data / "jobs.jsonl")
    assert sorted(ledger) == sorted([first.id, second.id])
    assert all(job.status == "done" for job in ledger.values())


def test_kill9_midqueue_restart_completes_exactly_once(tmp_path, trace_file):
    """The acceptance scenario, with the real ``repro serve`` process."""
    data = tmp_path / "data"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(_repo_src()), env.get("PYTHONPATH", "")] if p)

    def start(workers):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--data-dir", str(data),
             "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, env=env)
        line = proc.stdout.readline().decode()
        assert "listening on http://127.0.0.1:" in line, line
        return proc, int(line.split("http://127.0.0.1:")[1].split()[0])

    # Queue-only server: accept + journal three jobs, then SIGKILL it.
    proc, port = start(0)
    try:
        _, body = http(port, "POST", "/v1/traces", trace_file.read_bytes())
        ref = json.loads(body)["trace"]
        jobs = []
        for options in ({}, {"order": "physical"}, {"infer": False}):
            status, body = http(
                port, "POST", "/v1/jobs",
                json.dumps({"trace": ref, "options": options}).encode())
            assert status == 202
            jobs.append(json.loads(body)["job"])
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

    # Restart with workers: the journaled backlog drains to completion.
    proc, port = start(2)
    try:
        deadline = time.monotonic() + POLL_DEADLINE
        while time.monotonic() < deadline:
            stats = json.loads(http(port, "GET", "/v1/stats")[1])
            if stats["jobs"]["done"] == len(jobs):
                break
            time.sleep(0.2)
        assert stats["jobs"] == {"queued": 0, "running": 0,
                                 "done": len(jobs), "failed": 0}
        assert stats["recovered"] == len(jobs)
        for job_id in jobs:
            assert http(port, "GET", f"/v1/jobs/{job_id}/result")[0] == 200
    finally:
        proc.terminate()
        proc.wait()

    # Exactly once: one "done" ledger line per job, no extras.
    with open(data / "jobs.jsonl") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    done = sorted(e["job"] for e in lines if e.get("kind") == "done")
    assert done == sorted(jobs)


def _repo_src():
    import repro
    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
