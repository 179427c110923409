"""Batch extraction driver: cache keying, worker isolation, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import (
    BatchExtractor,
    PipelineOptions,
    StructureCache,
    trace_digest,
    write_trace,
)
from repro.apps import jacobi2d, pdes

pytestmark = pytest.mark.batch


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("traces")
    paths = []
    for name, trace in [
        ("jacobi", jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=1)),
        ("pdes", pdes.run(chares=8, pes=4, seed=2)),
    ]:
        path = root / f"{name}.jsonl"
        write_trace(trace, path)
        paths.append(str(path))
    return paths


def test_digest_content_keyed(trace_files, tmp_path):
    d1 = trace_digest(trace_files[0])
    assert d1 == trace_digest(trace_files[0])
    assert d1 != trace_digest(trace_files[1])
    # The key is the bytes, not the path.
    copy = tmp_path / "renamed.jsonl"
    copy.write_bytes(open(trace_files[0], "rb").read())
    assert trace_digest(str(copy)) == d1


@pytest.mark.store
def test_cache_hit_and_miss_on_option_change(trace_files):
    cache = StructureCache()
    opts = PipelineOptions()
    report = BatchExtractor(opts, cache=cache).run(trace_files)
    assert report.ok
    assert all(not r.cached for r in report.results)

    again = BatchExtractor(opts, cache=cache).run(trace_files)
    assert again.ok
    assert all(r.cached for r in again.results)
    assert again.results[0].summary == report.results[0].summary

    # Any option change must miss: same traces, different pipeline.
    changed = BatchExtractor(
        PipelineOptions(order="physical"), cache=cache
    ).run(trace_files)
    assert changed.ok
    assert all(not r.cached for r in changed.results)


@pytest.mark.store
def test_cache_persists_across_extractors(trace_files, tmp_path):
    cache_dir = tmp_path / "cache"
    first = BatchExtractor(
        cache=StructureCache(cache_dir)
    ).run(trace_files)
    assert first.ok and first.cache_hits == 0
    # A brand-new cache object over the same directory reuses the files.
    second = BatchExtractor(
        cache=StructureCache(cache_dir)
    ).run(trace_files)
    assert second.ok
    assert all(r.cached for r in second.results)


def test_worker_failure_isolated(trace_files, tmp_path):
    bogus = tmp_path / "not_a_trace.jsonl"
    bogus.write_text("this is not a trace\n")
    missing = str(tmp_path / "missing.jsonl")
    sources = [trace_files[0], str(bogus), missing, trace_files[1]]
    report = BatchExtractor().run(sources)
    assert not report.ok
    assert [r.ok for r in report.results] == [True, False, False, True]
    assert all(r.error for r in report.failures)
    # Failures are captured per trace; good traces still extracted.
    assert report.results[0].summary["phases"] > 0


def test_parallel_matches_serial(trace_files):
    serial = BatchExtractor(jobs=1).run(trace_files)
    parallel = BatchExtractor(jobs=2).run(trace_files)
    assert serial.ok and parallel.ok
    for s, p in zip(serial.results, parallel.results):
        assert s.source == p.source
        assert {k: v for k, v in s.summary.items()
                if not k.endswith("seconds")} == \
               {k: v for k, v in p.summary.items()
                if not k.endswith("seconds")}


@pytest.mark.store
def test_in_memory_traces_accepted():
    trace = jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=1)
    cache = StructureCache()
    report = BatchExtractor(cache=cache).run([trace])
    assert report.ok
    assert trace_digest(trace) == trace_digest(trace)
    again = BatchExtractor(cache=cache).run([trace])
    assert again.results[0].cached


@pytest.mark.store
def test_sharded_layout_reads_and_writes(tmp_path):
    """shard_prefix places entries in key-prefix subdirectories, and a
    sharded cache still reads entries a flat (legacy) cache wrote."""
    directory = tmp_path / "cache"
    flat = StructureCache(directory)  # shard_prefix=0: flat layout
    flat.put("ab" + "0" * 62, b'{"phases": 1}')
    assert (directory / ("ab" + "0" * 62 + ".json")).is_file()

    sharded = StructureCache(directory, shard_prefix=2)
    # Legacy flat entry is still a hit through the sharded instance.
    assert sharded.get("ab" + "0" * 62) == b'{"phases": 1}'
    sharded.put("cd" + "1" * 62, b'{"phases": 2}')
    assert (directory / "cd" / ("cd" + "1" * 62 + ".json")).is_file()

    stats = sharded.stats()
    assert stats["disk_entries"] == 2
    assert stats["shard_prefix"] == 2
    assert stats["shards"]["cd"]["entries"] == 1


@pytest.mark.store
def test_per_shard_byte_quota_prunes_lru_within_shard(tmp_path):
    cache = StructureCache(tmp_path / "cache", shard_prefix=2)
    big = json.dumps({"fill": ["x" * 64] * 8}).encode()
    # Three entries in shard "aa", one in shard "bb".
    keys_aa = ["aa" + f"{i}" * 62 for i in (1, 2, 3)]
    key_bb = "bb" + "4" * 62
    for key in keys_aa + [key_bb]:
        cache.put(key, big)
    # Pin distinct mtimes so LRU order is deterministic even on coarse
    # filesystem timestamp granularity.
    import os as _os
    for age, key in enumerate(keys_aa + [key_bb]):
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        _os.utime(path, (1_000_000 + age, 1_000_000 + age))
    entry_bytes = cache.stats()["shards"]["bb"]["bytes"]

    # A quota that fits one entry per shard evicts the two oldest from
    # "aa" and leaves "bb" untouched.
    cache.prune(max_shard_bytes=entry_bytes)
    stats = cache.stats()
    assert stats["shards"]["aa"]["bytes"] <= entry_bytes
    assert stats["shards"]["bb"]["entries"] == 1
    assert cache.get(key_bb) is not None
    assert cache.get(keys_aa[-1]) is not None  # newest in "aa" survives


def test_forked_worker_imports_nothing_per_trace(trace_files):
    """Everything a worker needs is loaded by ``import repro.batch``,
    which the scheduler has done before it forks: reading and extracting
    a trace imports no further module, since each forked worker would
    pay that import again (once per worker, for its first trace)."""
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, {src!r})
        import repro.batch as batch
        loaded = set(sys.modules)
        for options in (batch.PipelineOptions(),
                        batch.PipelineOptions(repair="warn",
                                              on_error="fallback")):
            ok, _, error, _ = batch._extract_one(
                {path!r}, batch._worker_options(options))
            assert ok, error
        print(json.dumps(sorted(set(sys.modules) - loaded)))
    """).format(src=str(Path(__file__).resolve().parents[1] / "src"),
                path=trace_files[0])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
