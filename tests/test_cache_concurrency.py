"""Concurrent StructureCache stress: get/put/prune must never tear.

The cache (the one store class of batch and serve) is hit from
many threads and processes at once — CLI batch runs, service worker
threads, and a pruning `repro cache` invocation can all share one
directory.  The invariants under fire:

* no operation ever raises, even when entries vanish mid-scan
  (the TOCTOU window between ``glob`` and ``stat``/``unlink``);
* a ``get`` returns either ``None`` or a **complete** payload — a torn
  or half-written entry is never served (atomic tmp + ``os.replace``);
* quota pruning converges under contention instead of crashing on
  files another racer already removed.

Every payload carries an internal checksum so tearing is detectable:
``sum(payload["fill"]) == payload["sum"]`` must hold for every hit.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import threading

import pytest

from repro.batch import StructureCache

pytestmark = [pytest.mark.faults, pytest.mark.store]


def _key(i: int) -> str:
    return hashlib.sha256(f"entry-{i}".encode()).hexdigest()


def _payload(i: int) -> bytes:
    fill = [i] * 64
    return json.dumps({"entry": i, "fill": fill, "sum": sum(fill)}).encode()


def _check(data: bytes) -> None:
    payload = json.loads(data)
    assert sum(payload["fill"]) == payload["sum"], "torn cache entry served"


def _hammer(directory: str, seed: int, rounds: int = 120,
            keyspace: int = 24) -> int:
    """One racer: interleaved put/get/prune over a shared directory.

    Deterministic per seed (no RNG: the schedule interleaving is the
    randomness).  Returns the number of hits, so callers can assert the
    cache actually served traffic during the race.
    """
    cache = StructureCache(directory, max_entries=keyspace // 2,
                           max_bytes=64 * 1024, shard_prefix=2,
                           max_shard_bytes=16 * 1024)
    hits = 0
    for step in range(rounds):
        i = (step * 7 + seed * 13) % keyspace
        cache.put(_key(i), _payload(i))
        got = cache.get(_key((step * 5 + seed) % keyspace))
        if got is not None:
            _check(got)
            hits += 1
        if step % 17 == seed % 17:
            cache.prune(max_entries=keyspace // 3)
        if step % 23 == seed % 23:
            cache.stats()
    return hits


def test_threaded_racers_share_one_cache_object(tmp_path):
    cache = StructureCache(tmp_path / "cache", max_entries=12,
                           max_bytes=64 * 1024, shard_prefix=2,
                           max_shard_bytes=16 * 1024)
    errors = []

    def racer(seed: int) -> None:
        try:
            for step in range(150):
                i = (step * 11 + seed * 3) % 24
                cache.put(_key(i), _payload(i))
                got = cache.get(_key((step + seed * 7) % 24))
                if got is not None:
                    _check(got)
                if step % 19 == seed % 19:
                    cache.prune(max_entries=8)
        except Exception as exc:  # propagated to the assertion below
            errors.append(f"racer {seed}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=racer, args=(s,)) for s in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    stats = cache.stats()
    assert stats["disk_entries"] <= 12
    for shard in stats["shards"].values():
        assert shard["bytes"] <= 16 * 1024


def test_threaded_racers_with_separate_cache_objects(tmp_path):
    """Distinct cache instances over one directory (the service + a
    concurrent `repro cache prune` look exactly like this)."""
    directory = str(tmp_path / "cache")
    errors = []
    hits = []

    def racer(seed: int) -> None:
        try:
            hits.append(_hammer(directory, seed))
        except Exception as exc:
            errors.append(f"racer {seed}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=racer, args=(s,)) for s in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert sum(hits) > 0  # the race actually exercised the read path


def test_process_racers_never_tear(tmp_path):
    directory = str(tmp_path / "cache")
    with multiprocessing.Pool(4) as pool:
        hits = pool.starmap(_hammer, [(directory, seed) for seed in range(4)])
    # _hammer raises (failing the worker, and so starmap) on any torn
    # entry or unexpected exception; surviving means the invariant held.
    assert sum(hits) > 0
    # Every surviving entry must still be complete, valid JSON.
    cache = StructureCache(directory)
    for i in range(24):
        got = cache.get(_key(i))
        if got is not None:
            _check(got)


def test_prune_tolerates_entries_vanishing_midway(tmp_path):
    """The TOCTOU fix: a file deleted between scan and stat/unlink is
    treated as already-evicted, not an error."""
    cache = StructureCache(tmp_path / "cache", shard_prefix=2)
    for i in range(8):
        cache.put(_key(i), _payload(i))
    # Pull the rug out from under half the entries.
    victims = [path for j, path in
               enumerate(sorted(cache.directory.glob("*/*.json"))) if j % 2]
    for path in victims:
        path.unlink()
    cache.prune(max_entries=2)  # must not raise
    assert cache.stats()["disk_entries"] <= 2

    # The stat fallback itself: a missing path sorts as LRU-oldest.
    assert StructureCache._mtime_or_oldest(
        tmp_path / "cache" / "nope.json") == 0.0
