"""The one bytes store of batch and serve.

:class:`repro.batch.StructureCache` holds encoded bytes: batch puts its
sorted-key summary JSON, ``repro serve`` the rendered analysis document,
and :meth:`~repro.batch.StructureCache.get` returns exactly those bytes.
Under test:

* the bytes contract (round trip in memory and on disk, ``TypeError``
  for anything else) and LRU recency of entries in either layout;
* cache directories and artifact directories written before the store
  held bytes keep hitting, and serve the same result;
* a service fetch does no JSON work;
* :func:`repro.chaos.fs.atomic_write`, the one temp-file + fsync +
  replace shared by cache entries, uploads and checkpoints, under every
  fault the ``FsOps`` seam can inject;
* ``import repro`` does not load the HTTP service stack.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.report
import repro.serve.jobs
import repro.serve.worker
from repro.api import (
    ArtifactStore,
    BatchExtractor,
    StructureCache,
    write_trace,
)
from repro.apps import jacobi2d
from repro.batch import trace_digest
from repro.chaos import FaultPlan
from repro.chaos.fs import atomic_write
from repro.cli import main as cli_main
from repro.resilience import checkpoint
from repro.serve import JobService
from repro.serve.schemas import parse_options

pytestmark = pytest.mark.store

POLL_DEADLINE = 120.0
HOT = "ab" + "0" * 62
COLD = "cd" + "1" * 62


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "t.jsonl"
    write_trace(jacobi2d.run(chares=(3, 3), pes=2, iterations=2, seed=4),
                path)
    return str(path)


@pytest.fixture(scope="module")
def expected_json(trace_file):
    """Exactly what ``repro analyze --json`` prints for the trace."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["analyze", trace_file, "--json"]) == 0
    return buf.getvalue()


def _done_service(data_dir: Path, trace_file: str) -> tuple:
    """A service that has run one job on ``trace_file`` to completion."""
    service = JobService(data_dir, workers=1)
    service.start()
    job = service.submit(trace_file, {})
    assert service.drain(timeout=POLL_DEADLINE)
    assert service.job(job.id).status == "done"
    return service, job


# ----------------------------------------------------------------------
# The bytes contract
# ----------------------------------------------------------------------
def test_entries_round_trip_as_bytes(tmp_path):
    data = b'{"phases": 3, "summary": "\xc3\xa9"}'
    memory = StructureCache()
    memory.put("k", data)
    assert memory.get("k") == data

    cache = StructureCache(tmp_path / "cache")
    cache.put("k", data)
    assert cache.get("k") == data
    assert (tmp_path / "cache" / "k.json").read_bytes() == data
    assert StructureCache(tmp_path / "cache").get("k") == data


@pytest.mark.parametrize("value", [{"phases": 1}, '{"phases": 1}',
                                   bytearray(b'{"phases": 1}'), None])
def test_put_rejects_anything_but_bytes(tmp_path, value):
    cache = StructureCache(tmp_path / "cache")
    with pytest.raises(TypeError, match="bytes"):
        cache.put("k", value)
    assert cache.get("k") is None
    assert cache.stats()["disk_entries"] == 0


def test_memory_hit_refreshes_the_flat_file_an_entry_lives_in(tmp_path):
    """A memory hit on an entry written before sharding touches that
    flat file, so pruning evicts the colder entry, not the hot one."""
    directory = tmp_path / "cache"
    flat = StructureCache(directory)
    flat.put(HOT, b'{"phases": 1}')
    flat.put(COLD, b'{"phases": 2}')
    hot_path = directory / f"{HOT}.json"
    cold_path = directory / f"{COLD}.json"

    sharded = StructureCache(directory, shard_prefix=2)
    assert sharded.get(HOT) == b'{"phases": 1}'  # disk read, now in memory
    # Pin an order in which the hot entry looks older than the cold one.
    os.utime(hot_path, (1_000_000, 1_000_000))
    os.utime(cold_path, (1_000_010, 1_000_010))

    assert sharded.get(HOT) == b'{"phases": 1}'  # memory hit
    assert hot_path.stat().st_mtime > 1_000_010
    assert sharded.prune(max_entries=1) == 1
    assert hot_path.is_file() and not cold_path.exists()


# ----------------------------------------------------------------------
# Entries written before the store held bytes
# ----------------------------------------------------------------------
def test_batch_entries_keep_their_encoding(trace_file, tmp_path):
    """A batch entry is the sorted-key summary JSON the cache has always
    written, byte for byte, and a directory holding such entries keeps
    hitting."""
    first = BatchExtractor(cache=StructureCache(tmp_path / "a")).run(
        [trace_file])
    summary = first.results[0].summary
    (entry,) = (tmp_path / "a").glob("*.json")
    assert entry.read_bytes() == json.dumps(summary, sort_keys=True).encode()

    earlier = tmp_path / "b"
    earlier.mkdir()
    (earlier / entry.name).write_text(json.dumps(summary, sort_keys=True))
    again = BatchExtractor(cache=StructureCache(earlier)).run([trace_file])
    assert again.results[0].cached
    assert again.results[0].summary == summary


def test_compact_artifact_serves_the_rendered_document(tmp_path, trace_file,
                                                       expected_json):
    """Artifacts stored as compact ``json.dumps(doc)`` (before the store
    held rendered bytes) serve ``render_document(doc)``, with no key
    change and no migration, before and after a restart."""
    data = tmp_path / "data"
    service = JobService(data, workers=0)
    key = service.store.key(trace_digest(trace_file), parse_options({}))
    path = data / "artifacts" / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(json.loads(expected_json)))
    try:
        job = service.submit(trace_file, {})
        assert job.status == "done" and job.cached
        assert service.result(job.id) == expected_json
    finally:
        service.stop()
    restarted = JobService(data, workers=0)
    try:
        assert restarted.result(job.id) == expected_json
    finally:
        restarted.stop()


# ----------------------------------------------------------------------
# Serve: render once, fetch the bytes
# ----------------------------------------------------------------------
def test_artifact_file_is_the_rendered_document(tmp_path, trace_file,
                                                expected_json):
    service, job = _done_service(tmp_path / "data", trace_file)
    try:
        (artifact,) = (tmp_path / "data" / "artifacts").glob("*/*.json")
        assert artifact.read_bytes() == expected_json.encode()
        assert service.result(job.id) == expected_json
    finally:
        service.stop()


def test_fetch_does_no_json_work(tmp_path, trace_file, expected_json,
                                 monkeypatch):
    service, job = _done_service(tmp_path / "data", trace_file)

    def refuse(*args, **kwargs):
        raise AssertionError("a fetch must not parse or render")

    try:
        monkeypatch.setattr(json, "loads", refuse)
        for module in (repro.serve.jobs, repro.serve.worker, repro.report):
            monkeypatch.setattr(module, "render_document", refuse)
        monkeypatch.setattr(repro.report, "encode_json", refuse)
        assert service.result(job.id) == expected_json
    finally:
        monkeypatch.undo()
        service.stop()


def test_degraded_job_is_served_but_never_stored(tmp_path, trace_file,
                                                 monkeypatch):
    from repro.core import pipeline

    def boom(*args, **kwargs):
        raise RuntimeError("ordering fault injection")

    monkeypatch.setattr(pipeline, "reordered_order_task", boom)
    monkeypatch.setattr(pipeline, "physical_order", boom)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(["analyze", trace_file, "--json", "--backend",
                         "python", "--on-error", "degrade"]) == 0
    service = JobService(tmp_path / "data", workers=1)
    service.start()
    try:
        job = service.submit(trace_file,
                             {"backend": "python", "on_error": "degrade"})
        assert service.drain(timeout=POLL_DEADLINE)
        assert service.job(job.id).status == "done"
        text = service.result(job.id)
        assert json.loads(text)["degradation"]["degraded"] is True
        assert text == buf.getvalue()
        assert service.store.stats()["disk_entries"] == 0
    finally:
        service.stop()


def test_artifact_store_reads_a_service_directory(tmp_path, trace_file,
                                                  expected_json):
    """``ArtifactStore(dir)`` opens a store sharded as the service
    writes it; a flat ``StructureCache(dir)`` would miss every entry."""
    service, job = _done_service(tmp_path / "data", trace_file)
    service.stop()
    artifacts = tmp_path / "data" / "artifacts"
    assert ArtifactStore(artifacts).get(job.key) == expected_json.encode()
    assert StructureCache(artifacts).get(job.key) is None


def test_timeout_job_ships_the_rendered_bytes(tmp_path, trace_file,
                                              expected_json):
    """With a timeout a job runs in a worker process: the rendered bytes
    cross the pipe and are stored as they are."""
    service = JobService(tmp_path / "data", workers=1, timeout=120.0)
    service.start()
    try:
        job = service.submit(trace_file, {})
        assert service.drain(timeout=POLL_DEADLINE)
        assert service.job(job.id).status == "done"
        assert service.store.get(job.key) == expected_json.encode()
        assert service.result(job.id) == expected_json
    finally:
        service.stop()


# ----------------------------------------------------------------------
# One atomic write
# ----------------------------------------------------------------------
#: Every failure the FsOps seam injects into an atomic write (a torn
#: ``open`` is not a fault: ``ChaosFs.open`` opens the file regardless).
FAULTS = [("open", "eio"), ("open", "enospc"),
          ("write", "eio"), ("write", "torn"),
          ("fsync", "eio"), ("fsync", "torn"),
          ("replace", "eio"), ("replace", "torn")]


@pytest.mark.parametrize("site,kind", FAULTS)
def test_atomic_write_fault_keeps_the_previous_file(tmp_path, site, kind):
    path = tmp_path / "entry.json"
    atomic_write(path, (b'{"v": 1}',))
    plan = FaultPlan(specs=[f"x.{site}:{kind}:at=1"])
    with pytest.raises(OSError):
        atomic_write(path, (b'{"v": ', b"2}"), plan.fs("x"))
    assert path.read_bytes() == b'{"v": 1}'
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    atomic_write(path, (b'{"v": ', b"2}"), plan.fs("x"))
    assert path.read_bytes() == b'{"v": 2}'
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


@pytest.mark.parametrize("site,kind", FAULTS)
def test_checkpoint_write_fault_keeps_the_previous_checkpoint(
        tmp_path, monkeypatch, site, kind):
    key = "e" * 64
    first = checkpoint.dump_snapshot({"stage": 1}, {})
    second = checkpoint.dump_snapshot({"stage": 2}, {})
    checkpoint.save_checkpoint(tmp_path, key, ["a"], [{"stage": "a"}], first)

    plan = FaultPlan(specs=[f"checkpoint.{site}:{kind}:at=1"])
    monkeypatch.setattr(checkpoint, "atomic_write",
                        functools.partial(atomic_write,
                                          fs=plan.fs("checkpoint")))
    with pytest.raises(OSError):
        checkpoint.save_checkpoint(tmp_path, key, ["a", "b"], [], second)
    assert checkpoint.load_checkpoint(tmp_path, key) == (
        ["a"], [{"stage": "a"}], {"stage": 1})
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.ckpt"]

    checkpoint.save_checkpoint(tmp_path, key, ["a", "b"], [], second)
    assert checkpoint.load_checkpoint(tmp_path, key) == (
        ["a", "b"], [], {"stage": 2})
    assert [p.name for p in tmp_path.iterdir()] == [f"{key}.ckpt"]


def test_upload_fault_keeps_no_partial_upload(tmp_path, trace_file):
    data = Path(trace_file).read_bytes()
    plan = FaultPlan(specs=["upload.write:torn:at=1"])
    service = JobService(tmp_path / "d", workers=0, chaos=plan)
    try:
        with pytest.raises(OSError):
            service.upload(data)
        assert list(service.uploads_dir.iterdir()) == []
        ref = service.upload(data)["trace"]
        digest = ref.split(":", 1)[1]
        assert (service.uploads_dir / f"{digest}.jsonl").read_bytes() == data
    finally:
        service.stop()


# ----------------------------------------------------------------------
# import repro stays off the service stack
# ----------------------------------------------------------------------
def test_import_repro_does_not_load_the_service_stack():
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, {src!r})
        import repro, repro.batch
        loaded = sorted(m for m in sys.modules
                        if m.startswith("repro.serve") or m == "asyncio")
        import repro.api, repro.serve
        print(json.dumps([loaded,
                          repro.api.JobService is repro.serve.JobService,
                          repro.api.ArtifactStore is repro.serve.ArtifactStore]))
    """).format(src=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], True, True]
