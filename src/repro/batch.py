"""Parallel batch extraction with a content-keyed structure cache.

The paper's studies extract structure from whole campaigns of traces
(nine proxy apps × option ablations × scaling sweeps); doing that one
trace at a time in one process leaves both cores and prior work on the
table.  This module adds the batch driver behind ``repro batch``:

* :func:`trace_digest` — a content key for a trace: the sha256 of the
  file bytes for on-disk sources, or of the packed
  :class:`~repro.trace.columns.TraceColumns` rows plus the registries
  for in-memory :class:`~repro.trace.model.Trace` objects.
* :class:`StructureCache` — the one content-keyed store of batch and
  serve: maps ``(trace digest, resolved options)`` to the encoded bytes
  of a result, in memory and optionally persisted as JSON files in a
  cache directory so repeated campaign runs skip clean work.  Batch
  stores each summary as sorted-key JSON; ``repro serve`` stores the
  rendered analysis document.  Persistent entries are written
  atomically (:func:`repro.chaos.fs.atomic_write`) so a killed or
  concurrent run can never leave a torn entry behind.  Optional
  ``max_entries``/``max_bytes`` caps bound the cache with LRU eviction
  (``repro cache --stats/--prune`` inspects and trims it).  With
  ``shard_prefix > 0`` entries are sharded into subdirectories by key
  prefix (``ab/abcd....json``) and an optional ``max_shard_bytes``
  quota bounds each shard independently — the layout of the service's
  artifact store (:data:`ArtifactStore` opens a cache that way).  All
  operations are thread-safe (one re-entrant lock per instance) and
  multi-process-safe (atomic writes; concurrent deletion mid-scan is
  tolerated, never raised).
* :class:`~repro.resilience.journal.RunJournal` integration — with a
  ``journal`` path the extractor appends one fsync'd JSON line per
  finished trace, so ``repro batch --resume <journal>`` after a crash
  (even ``kill -9``) skips completed traces and re-runs only the rest.
* :class:`BatchExtractor` — fans sources across up to ``jobs``
  long-lived worker processes, each forked once per run and fed one
  trace index after another, captures per-trace timing and failures
  (one bad trace never aborts the batch), and returns results in input
  order regardless of completion order.  Each attempt runs under an
  optional wall-clock ``timeout`` with ``retries``/exponential-backoff;
  a worker that hangs is killed and a worker that dies (OOM kill,
  segfault) marks its trace failed instead of stalling the batch, and
  either is replaced by a fresh worker for the traces still to run.

Summaries, not structures, are cached: the cache answers "what did this
trace extract to" (phase/step counts, timings, repair report) for
campaign bookkeeping; callers that need the full
:class:`~repro.core.structure.LogicalStructure` re-extract.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import multiprocessing as _mp
import os
import struct
import threading
import time as _time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.chaos.fs import REAL_FS, atomic_write
from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.core.structure import LogicalStructure
from repro.trace.columns import TraceColumns
from repro.trace.model import Trace
from repro.trace.reader import read_trace  # noqa: F401 - public re-export
from repro.trace.source import TraceSource, open_trace

#: Anything the batch driver accepts as one campaign entry: a path, an
#: in-memory trace, or a :class:`~repro.trace.source.TraceSource`.
BatchSource = Union[str, Path, Trace, TraceSource]


def _int(value) -> int:
    """Hashable integer form of an id-ish field (None → a sentinel)."""
    return -(1 << 40) if value is None else int(value)


def _update_str(h, text: Optional[str]) -> None:
    """Hash a string field unambiguously (length-prefixed utf-8)."""
    data = ("" if text is None else text).encode("utf-8", "replace")
    h.update(struct.pack("<q", len(data)))
    h.update(data)


def trace_digest(source: BatchSource) -> str:
    """Content key of a trace source (sha256 hex digest).

    Path sources hash the raw file bytes; in-memory traces hash every
    extraction-relevant field of every record — events, messages,
    executions, idle intervals, the chare/entry/array registries
    (including names, ``home_pe``, shapes), ``num_pes``, and metadata.
    Two traces differing in any field the pipeline or its metrics can
    observe must never collide on one key.

    A :class:`~repro.trace.source.TraceSource` keys like what it wraps:
    file-backed sources hash the file bytes (without reading records at
    all); others hash their materialized trace.  Events, messages,
    executions and idles are hashed from the trace's columns
    (``TraceColumns.of``) as packed little-endian rows, byte-identical
    to a per-record ``struct.pack`` of the same fields, so a
    chunk-ingested trace and its object-backed twin share one digest.
    """
    if not isinstance(source, (str, Path, Trace)) and callable(
            getattr(source, "trace", None)):
        path = getattr(source, "path", None)
        source = path if path is not None else source.trace()
    h = hashlib.sha256()
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()
    trace = source
    h.update(struct.pack(
        "<8q", len(trace.events), len(trace.messages),
        len(trace.executions), len(trace.chares), len(trace.entries),
        len(trace.arrays), len(trace.idles), _int(trace.num_pes),
    ))
    columns = TraceColumns.of(trace)
    h.update(_packed_bytes(columns.ev_kind.astype("int64"), columns.ev_chare,
                           columns.ev_pe, columns.ev_exec, columns.ev_time))
    h.update(_packed_bytes(columns.msg_send, columns.msg_recv))
    h.update(_packed_bytes(columns.ex_chare, columns.ex_entry, columns.ex_pe,
                           columns.ex_recv, columns.ex_start, columns.ex_end))
    for c in trace.chares:
        h.update(struct.pack("<3q?", _int(c.id), _int(c.array_id),
                             _int(c.home_pe), bool(c.is_runtime)))
        h.update(struct.pack(f"<{len(c.index)}q", *c.index))
        _update_str(h, c.name)
    for ent in trace.entries:
        h.update(struct.pack("<q?q", _int(ent.id), bool(ent.is_sdag_serial),
                             _int(ent.sdag_ordinal)))
        _update_str(h, ent.name)
        _update_str(h, ent.chare_type)
    for arr in trace.arrays:
        h.update(struct.pack(f"<2q{len(arr.shape)}q", _int(arr.id),
                             len(arr.shape), *arr.shape))
        _update_str(h, arr.name)
    h.update(_packed_bytes(columns.idle_pe, columns.idle_start,
                           columns.idle_end))
    h.update(repr(sorted(trace.metadata.items())).encode())
    return h.hexdigest()


def _packed_bytes(*cols) -> bytes:
    """Row-major bytes of parallel columns, as contiguous ``<i8``/``<f8``
    fields — byte-identical to per-record ``struct.pack`` of the rows
    (every field is 8 bytes, so the struct layout has no padding)."""
    import numpy as np

    dtype = np.dtype([(f"f{i}", c.dtype.newbyteorder("<"))
                      for i, c in enumerate(cols)])
    packed = np.empty(len(cols[0]), dtype)
    for i, c in enumerate(cols):
        packed[f"f{i}"] = c
    return packed.tobytes()


def options_token(options: PipelineOptions) -> str:
    """Canonical string of the extraction-relevant option fields.

    Instrumentation and supervision fields (hooks, verify, checkpointing,
    resource guards — :data:`repro.core.pipeline.NON_RESULT_FIELDS`) do
    not change a successful result, so they are excluded; ``backend`` is
    resolved so "auto" keys the same as the backend it picks (both
    produce bit-identical output, but the token records what actually
    ran).  ``repair`` changes the result and is therefore part of the
    token.  This token keys the structure cache, pipeline checkpoints,
    and batch run journals alike.
    """
    return options.result_token()


def _check_caps(**caps: Optional[int]) -> None:
    """Reject a store cap below 1 (``None`` leaves that axis uncapped)."""
    for name, cap in caps.items():
        if cap is not None and cap < 1:
            raise ValueError(f"{name} must be >= 1 (or None)")


class StructureCache:
    """Maps (trace digest, resolved options) to a result's encoded bytes.

    Each producer encodes its entry, a JSON object, once (batch its
    sorted-key summary, ``repro serve`` the rendered document);
    :meth:`get` returns exactly the bytes :meth:`put` was given, and
    :meth:`put` raises :class:`TypeError` for anything but ``bytes``.

    In-memory always; with ``directory`` set, each entry is also written
    as ``<key>.json`` so later processes (and later campaign runs) reuse
    it.  Writes go through :func:`~repro.chaos.fs.atomic_write`, so
    readers only ever see absent or complete entries — never a torn
    one, even with concurrent writers or a run killed mid-write.  A disk
    read checks that the entry parses as a JSON object: corrupt or
    unreadable cache files count as misses.

    ``max_entries``/``max_bytes`` (None = unbounded) cap the cache:
    least-recently-used entries are evicted on :meth:`put` (memory order
    tracks gets and puts; on disk, file mtimes approximate recency — a
    re-hit entry is touched so campaign-hot traces survive pruning).

    ``shard_prefix`` (0 = flat, historical layout) stores each entry in
    a subdirectory named by the first ``shard_prefix`` hex characters of
    its key, bounding per-directory fan-in for large stores; reads fall
    back to the flat location so an existing cache keeps hitting after
    sharding is turned on.  ``max_shard_bytes`` additionally caps every
    shard directory independently (LRU within the shard), so one hot
    key prefix cannot crowd out the rest of the store.  Scans
    (:meth:`stats`, :meth:`prune`) always cover both layouts.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None,
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 shard_prefix: int = 0,
                 max_shard_bytes: Optional[int] = None,
                 fs=None):
        self.directory = Path(directory) if directory is not None else None
        self.fs = fs if fs is not None else REAL_FS
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        _check_caps(max_entries=max_entries, max_bytes=max_bytes,
                    max_shard_bytes=max_shard_bytes)
        if shard_prefix < 0 or shard_prefix > 8:
            raise ValueError("shard_prefix must be in 0..8")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.shard_prefix = int(shard_prefix)
        self.max_shard_bytes = max_shard_bytes
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def key(self, digest: str, options: PipelineOptions) -> str:
        return hashlib.sha256(
            (digest + "\n" + options_token(options)).encode()
        ).hexdigest()

    def _entry_paths(self, key: str) -> List[Path]:
        """Where ``key``'s entry file may live, in read order: the
        shard-aware path :meth:`put` writes, then (when sharded) the
        flat path an entry written before sharding keeps."""
        assert self.directory is not None
        flat = self.directory / f"{key}.json"
        if not self.shard_prefix:
            return [flat]
        return [self.directory / key[:self.shard_prefix] / flat.name, flat]

    @staticmethod
    def _touch(path: Path) -> bool:
        """Mark an entry file recently used, so pruning spares hot
        entries; False when the file is not there."""
        try:
            os.utime(path)
            return True
        except OSError:
            return False

    def _read_entry(self, key: str) -> Optional[bytes]:
        """Load ``key`` from disk, or None (missing/corrupt/racing)."""
        for path in self._entry_paths(key):
            try:
                data = path.read_bytes()
                entry = json.loads(data)
            except (OSError, ValueError):
                continue
            if isinstance(entry, dict):
                self._touch(path)
                return data
        return None

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            data = self._memory.get(key)
            if data is not None:
                self._memory.move_to_end(key)
                if self.directory is not None:
                    # Keep disk recency in step with memory recency, on
                    # whichever file (sharded or flat) holds the entry.
                    for path in self._entry_paths(key):
                        if self._touch(path):
                            break
            elif self.directory is not None:
                data = self._read_entry(key)
                if data is not None:
                    self._memory[key] = data
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
            return data

    def put(self, key: str, data: bytes) -> None:
        if not isinstance(data, bytes):
            raise TypeError(f"StructureCache entries are encoded bytes, "
                            f"not {type(data).__name__}")
        with self._lock:
            self._memory[key] = data
            self._memory.move_to_end(key)
            if self.directory is not None:
                path = self._entry_paths(key)[0]
                if self.shard_prefix:
                    path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write(path, (data,), self.fs)
            self._evict()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    @staticmethod
    def _mtime_or_oldest(path: Path) -> float:
        """mtime for LRU ordering; a file deleted by a concurrent
        prune/evict between listing and stat counts as LRU-oldest
        instead of raising mid-sort."""
        try:
            return path.stat().st_mtime
        except OSError:
            return 0.0

    def _iter_entry_files(self):
        """Every persistent entry file, flat and sharded layouts alike."""
        if self.directory is None:
            return
        for path in self.directory.glob("*.json"):
            yield path
        for path in self.directory.glob("*/*.json"):
            yield path

    def _entry_files(self) -> List[Path]:
        """Persistent entry files, least recently used first."""
        if self.directory is None:
            return []
        files = list(self._iter_entry_files())
        files.sort(key=lambda p: (self._mtime_or_oldest(p), p.name))
        return files

    def _evict(self) -> None:
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
        if self.directory is None:
            return
        if (self.max_entries is None and self.max_bytes is None
                and self.max_shard_bytes is None):
            return  # uncapped: skip the per-put disk scan entirely
        removed = self.prune(self.max_entries, self.max_bytes,
                             self.max_shard_bytes)
        self.evictions += removed

    def stats(self) -> dict:
        """Occupancy and hit-rate counters (``repro cache --stats``)."""
        disk_entries = 0
        disk_bytes = 0
        shards: Dict[str, dict] = {}
        with self._lock:
            for path in self._iter_entry_files():
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                disk_bytes += size
                disk_entries += 1
                if path.parent != self.directory:
                    row = shards.setdefault(path.parent.name,
                                            {"entries": 0, "bytes": 0})
                    row["entries"] += 1
                    row["bytes"] += size
            return {
                "directory": (str(self.directory)
                              if self.directory is not None else None),
                "memory_entries": len(self._memory),
                "disk_entries": disk_entries,
                "disk_bytes": disk_bytes,
                "shards": {name: shards[name] for name in sorted(shards)},
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "shard_prefix": self.shard_prefix,
                "max_shard_bytes": self.max_shard_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def prune(self, max_entries: Optional[int] = None,
              max_bytes: Optional[int] = None,
              max_shard_bytes: Optional[int] = None) -> int:
        """Trim the persistent cache to the given caps (LRU by mtime).

        Returns the number of entries removed.  ``None`` leaves that
        axis uncapped; ``0`` is rejected (delete the directory to drop
        everything).  ``max_shard_bytes`` caps each shard subdirectory
        (and the flat top level) independently, LRU within the shard.
        :meth:`put` calls this with the cache's own caps.  Every stat
        and unlink tolerates a concurrent prune/evict racing the same
        files: a vanished entry counts as already removed, never an
        error.
        """
        _check_caps(max_entries=max_entries, max_bytes=max_bytes,
                    max_shard_bytes=max_shard_bytes)
        if self.directory is None:
            return 0
        with self._lock:
            files = self._entry_files()
            sizes = {}
            for path in files:
                try:
                    sizes[path] = path.stat().st_size
                except OSError:
                    sizes[path] = 0
            total = sum(sizes.values())
            count = len(files)
            removed = 0

            def unlink(path: Path) -> bool:
                nonlocal removed
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass  # a racing prune got there first: same outcome
                except OSError:
                    return False
                self._memory.pop(path.stem, None)
                removed += 1
                return True

            survivors = []
            for path in files:  # oldest first
                over_entries = max_entries is not None and count > max_entries
                over_bytes = max_bytes is not None and total > max_bytes
                if not over_entries and not over_bytes:
                    survivors = files[files.index(path):]
                    break
                if not unlink(path):
                    survivors.append(path)
                    continue
                count -= 1
                total -= sizes[path]
            if max_shard_bytes is not None:
                per_shard: Dict[Path, List[Path]] = {}
                for path in survivors:  # still LRU-ordered
                    per_shard.setdefault(path.parent, []).append(path)
                for members in per_shard.values():
                    shard_total = sum(sizes.get(p, 0) for p in members)
                    for path in members:
                        if shard_total <= max_shard_bytes:
                            break
                        if unlink(path):
                            shard_total -= sizes.get(path, 0)
            return removed


#: A :class:`StructureCache` opened as ``repro serve`` opens its artifact
#: store, sharded two hex characters deep: ``ArtifactStore(dir)`` reads a
#: service's artifact directory, which a flat ``StructureCache(dir)`` misses.
ArtifactStore = functools.partial(StructureCache, shard_prefix=2)


def structure_summary(structure: LogicalStructure,
                      stats: PipelineStats) -> dict:
    """The cached/reported extract of one pipeline run."""
    summary = {
        "phases": len(structure.phases),
        "events": len(structure.trace.events),
        "stepped_events": sum(1 for s in structure.step_of_event if s >= 0),
        "max_step": structure.max_step,
        "leaps": max((p.leap for p in structure.phases), default=-1) + 1,
        "backend": stats.backend,
        "stage_seconds": dict(stats.stage_seconds),
        "total_seconds": stats.total_seconds,
    }
    if stats.repair is not None:
        summary["repair"] = stats.repair
    if stats.degradation is not None and stats.degradation.get("degraded"):
        # A partial or fallback-path result: recorded in the row (and
        # journal) for telemetry, and never cached — a later run under
        # healthier conditions should get the chance to do better.
        summary["degradation"] = stats.degradation
    return summary


def _worker_options(options: PipelineOptions) -> dict:
    """Options as a plain field dict (hooks are process-local: dropped)."""
    fields = {
        f.name: getattr(options, f.name)
        for f in dataclasses.fields(options)
        if f.name not in ("hooks",)
    }
    return fields


def _extract_one(source: BatchSource, option_fields: dict):
    """Top-level worker: extract one trace, never raise.

    Returns ``(ok, summary, error, seconds)``; runs in the pool workers
    (hence module-level and picklable-argument-only) and serially.
    """
    t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=worker timing telemetry, never keyed or cached
    try:
        opts = PipelineOptions(**option_fields)
        trace = open_trace(source).trace()
        stats = PipelineStats()
        structure = extract_logical_structure(trace, opts, stats=stats)
        summary = structure_summary(structure, stats)
        return True, summary, "", _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=worker timing telemetry, never keyed or cached
    except Exception as exc:  # worker isolation: report, don't propagate
        error = f"{type(exc).__name__}: {exc}"
        return False, {}, error, _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=worker timing telemetry, never keyed or cached


def _serve_attempts(conn, worker, sources: List[BatchSource],
                    option_fields: dict) -> None:
    """Worker-process loop: run the job ``worker`` on each source index
    received over ``conn`` and send back its outcome, until ``None``."""
    try:
        while True:
            i = conn.recv()
            if i is None:
                return
            conn.send(worker(sources[i], option_fields))
    except Exception:  # repro-lint: disable=EXC001 reason=child-process edge: the parent detects the silent exit as a crash and journals it; nothing in this process can record more
        # The parent treats a silent exit mid-attempt as a crash.
        pass
    finally:
        conn.close()


@dataclass
class _Worker:
    """One long-lived worker process of a run, its pipe, and the attempt
    it is running: ``(index, attempt, deadline, started)``, or None."""

    proc: object
    conn: object
    job: Optional[Tuple[int, int, Optional[float], float]] = None


def _stop_workers(workers: List[_Worker]) -> None:
    """Stop and join workers: an idle one is asked to exit, a running one
    is terminated, and one still alive a second later is killed."""
    for w in workers:
        if w.job is None:
            try:
                w.conn.send(None)
            except OSError:
                pass  # already gone
        else:
            w.proc.terminate()
    for w in workers:
        w.proc.join(1.0)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join()
        w.conn.close()


@dataclass
class BatchResult:
    """Outcome of one source in a batch run."""

    source: str
    ok: bool
    seconds: float = 0.0
    summary: dict = field(default_factory=dict)
    error: str = ""
    cached: bool = False
    #: Extraction attempts consumed (1 unless timeouts/crashes retried).
    attempts: int = 1
    #: True when the final attempt was killed for exceeding the timeout.
    timed_out: bool = False
    #: True when the result was replayed from a run journal (``--resume``)
    #: instead of extracted in this run.
    resumed: bool = False

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "ok": self.ok,
            "seconds": self.seconds,
            "summary": self.summary,
            "error": self.error,
            "cached": self.cached,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
            "resumed": self.resumed,
        }


@dataclass
class BatchReport:
    """All results of one batch run, in input order."""

    results: List[BatchResult]
    total_seconds: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> List[BatchResult]:
        return [r for r in self.results if not r.ok]

    @property
    def timeouts(self) -> List[BatchResult]:
        return [r for r in self.results if r.timed_out]

    @property
    def resumed(self) -> List[BatchResult]:
        return [r for r in self.results if r.resumed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "timeouts": len(self.timeouts),
            "resumed": len(self.resumed),
            "results": [r.to_dict() for r in self.results],
        }


class BatchExtractor:
    """Extract many traces, in parallel, with per-trace failure capture.

    ``jobs`` ≤ 1 runs serially in-process (deterministic debugging path);
    larger values fan out across up to ``jobs`` worker processes, each
    forked once per :meth:`run` and reused for trace after trace (fork,
    bootstrap and a cold heap are paid once per worker, not per trace).
    Either way results come back in input order and are bit-identical to
    serial runs — workers run the same pipeline on the same options.

    ``timeout`` (seconds of wall clock per attempt) bounds each attempt;
    a worker that exceeds it is killed.  Killed or crashed attempts are
    retried up to ``retries`` times with exponential backoff
    (``backoff * 2**attempt`` seconds between attempts) before the trace
    is reported as a failure row; a killed or dead worker is replaced,
    and no worker outlives :meth:`run`.  Setting a timeout forces the
    process-based path even for ``jobs=1`` — killing a hung extraction
    requires a separate process.

    With a ``cache``, each clean summary is stored the moment its trace
    finishes.  ``journal`` names a
    :class:`~repro.resilience.journal.RunJournal` file: every finished
    trace appends one durable line the moment its outcome is known (not
    at the end of the run, and after its cache entry), so a batch killed
    at any point — including ``kill -9`` of the scheduler — can be
    resumed with ``resume=True``: traces with a "done" line are replayed
    as ``resumed`` rows without re-extraction, everything else runs.

    ``worker`` is the per-trace job body: a module-level callable
    ``(source, option_fields) -> (ok, payload, error, seconds)`` that
    must never raise (the default, :func:`_extract_one`, returns the
    cacheable summary).  Other payloads ride the same scheduler —
    ``repro serve`` passes :func:`repro.serve.worker.analyze_one` so
    service jobs get the identical timeout/retry/crash-containment
    machinery while producing full analysis documents.
    """

    def __init__(self, options: Optional[PipelineOptions] = None,
                 jobs: int = 1, cache: Optional[StructureCache] = None,
                 timeout: Optional[float] = None, retries: int = 0,
                 backoff: float = 0.5,
                 journal: Optional[Union[str, Path]] = None,
                 resume: bool = False,
                 worker=None):
        self.options = options if options is not None else PipelineOptions()
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.worker = worker if worker is not None else _extract_one
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        if resume and journal is None:
            raise ValueError("resume=True requires a journal path")
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = bool(resume)

    # ------------------------------------------------------------------
    # Process scheduler: timeouts, retries, crash containment
    # ------------------------------------------------------------------
    def _run_processes(self, sources: List[BatchSource],
                       pending: List[int], option_fields: dict,
                       on_outcome=None) -> Dict[int, tuple]:
        """Run pending extractions in long-lived worker processes.

        Starts up to ``jobs`` workers, each forked once (inheriting
        ``sources`` and the job body) and fed attempt indexes over its
        pipe; every attempt has its own deadline.  A worker is replaced
        only when it dies (mid-attempt: a ``WorkerCrash``; while idle:
        nothing charged) or overruns a deadline (killed: a ``Timeout``).
        Returns ``{index: (ok, summary, error, seconds, timed_out,
        attempts)}``.  ``on_outcome(index, outcome)`` fires the moment a
        trace's final outcome is known — the cache and journal hook, so
        durability does not wait for the batch to finish.  Every worker
        is stopped and joined before this returns or raises.
        """
        ctx = _mp.get_context()
        waiting: Deque[Tuple[int, int]] = deque((i, 0) for i in pending)
        delayed: List[Tuple[float, int, int]] = []  # (not_before, idx, attempt)
        workers: List[_Worker] = []
        outcomes: Dict[int, tuple] = {}

        def finish(i: int, attempt: int, ok: bool, summary: dict,
                   error: str, seconds: float, timed_out: bool) -> None:
            outcomes[i] = (ok, summary, error, seconds, timed_out, attempt + 1)
            if on_outcome is not None:
                on_outcome(i, outcomes[i])

        def retry_or_fail(i: int, attempt: int, error: str,
                          seconds: float, timed_out: bool) -> None:
            if attempt < self.retries:
                not_before = _time.monotonic() + self.backoff * (2 ** attempt)  # repro-lint: disable=DET001 reason=retry backoff scheduling, not result data
                delayed.append((not_before, i, attempt + 1))
            else:
                finish(i, attempt, False, {}, error, seconds, timed_out)

        def reap(w: _Worker) -> None:
            workers.remove(w)
            w.proc.join()
            w.conn.close()

        def idle_worker() -> Optional[_Worker]:
            """A live idle worker, or a new one while fewer than ``jobs``
            are up (None when every slot is busy)."""
            for w in [w for w in workers if w.job is None]:
                if w.proc.is_alive():
                    return w
                reap(w)  # died while idle: nothing to charge
            if len(workers) >= self.jobs:
                return None
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_serve_attempts,
                args=(child, self.worker, sources, option_fields),
                daemon=True,
            )
            try:
                proc.start()
            except Exception:
                parent.close()
                raise
            finally:
                child.close()
            workers.append(_Worker(proc, parent))
            return workers[-1]

        try:
            while (waiting or delayed
                   or any(w.job is not None for w in workers)):
                now = _time.monotonic()  # repro-lint: disable=DET001 reason=retry/timeout scheduling, not result data
                for item in [d for d in delayed if d[0] <= now]:
                    delayed.remove(item)
                    waiting.append((item[1], item[2]))

                while waiting:
                    i, attempt = waiting[0]
                    try:
                        w = idle_worker()
                    except Exception as exc:  # fork failure, unpicklable job
                        waiting.popleft()
                        finish(i, attempt, False, {},
                               f"{type(exc).__name__}: {exc}", 0.0, False)
                        continue
                    if w is None:
                        break
                    waiting.popleft()
                    started = _time.monotonic()  # repro-lint: disable=DET001 reason=worker deadline bookkeeping, not result data
                    w.job = (i, attempt, (None if self.timeout is None
                                          else started + self.timeout),
                             started)
                    try:
                        w.conn.send(i)
                    except OSError:
                        pass  # died since the check above: a crash, below

                busy = [w for w in workers if w.job is not None]
                if busy:
                    _mp_connection.wait(
                        [w.conn for w in busy]
                        + [w.proc.sentinel for w in workers], timeout=0.05)
                elif delayed:  # backing off: sleep until the nearest retry
                    pause = min(d[0] for d in delayed) - _time.monotonic()  # repro-lint: disable=DET001 reason=backoff sleep sizing, not result data
                    if pause > 0:
                        _time.sleep(min(pause, 0.05))

                now = _time.monotonic()  # repro-lint: disable=DET001 reason=worker timeout accounting, not result data
                for w in list(workers):
                    outcome = None
                    if w.job is not None and w.conn.poll():
                        try:  # a result may arrive just before death
                            outcome = w.conn.recv()
                        except (EOFError, OSError):
                            outcome = None
                    if outcome is not None:
                        i, attempt = w.job[:2]
                        w.job = None
                        finish(i, attempt, *outcome, False)
                    elif not w.proc.is_alive():
                        reap(w)
                        if w.job is not None:
                            i, attempt, _, started = w.job
                            retry_or_fail(
                                i, attempt,
                                f"WorkerCrash: worker exited with code "
                                f"{w.proc.exitcode} before returning a "
                                f"result", now - started, False)
                    elif (w.job is not None and w.job[2] is not None
                          and now > w.job[2]):
                        workers.remove(w)
                        _stop_workers([w])
                        i, attempt, _, started = w.job
                        retry_or_fail(
                            i, attempt,
                            f"Timeout: attempt {attempt + 1} exceeded "
                            f"{self.timeout:g}s wall clock", now - started,
                            True)
        finally:
            _stop_workers(workers)
        return outcomes

    def run(self, sources: Sequence[BatchSource]) -> BatchReport:
        from repro.resilience.journal import RunJournal

        t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=batch wall-clock telemetry, never keyed or cached
        sources = list(sources)
        labels = [
            (str(s) if isinstance(s, (str, Path))
             else f"<trace {getattr(s, 'name', i)}>")
            for i, s in enumerate(sources)
        ]
        results: List[Optional[BatchResult]] = [None] * len(sources)
        pending: List[int] = []  # indexes that need an actual extraction
        keys: Dict[int, str] = {}
        digests: Dict[int, str] = {}

        journal: Optional[RunJournal] = None
        if self.journal_path is not None:
            journal = RunJournal(self.journal_path,
                                 options_token(self.options),
                                 resume=self.resume)
        try:
            need_digest = self.cache is not None or journal is not None
            for i, source in enumerate(sources):
                if need_digest:
                    try:
                        digest = trace_digest(source)
                    except Exception as exc:  # unreadable source: failure row
                        results[i] = BatchResult(
                            labels[i], False, 0.0, {},
                            f"{type(exc).__name__}: {exc}", False,
                        )
                        continue
                    digests[i] = digest
                    if journal is not None and journal.is_done(digest):
                        entry = journal.done_entry(digest) or {}
                        results[i] = BatchResult(
                            labels[i], True, 0.0,
                            entry.get("summary", {}) or {}, "", False,
                            int(entry.get("attempts", 1)),
                            bool(entry.get("timed_out", False)),
                            resumed=True,
                        )
                        continue
                    if self.cache is not None:
                        key = self.cache.key(digest, self.options)
                        keys[i] = key
                        data = self.cache.get(key)
                        if data is not None:
                            summary = json.loads(data)
                            results[i] = BatchResult(labels[i], True, 0.0,
                                                     summary, "", True)
                            if journal is not None:
                                journal.record_done(labels[i], digest, summary)
                            continue
                pending.append(i)

            def record_outcome(i: int, outcome: tuple) -> None:
                """Cache a clean summary, then journal the outcome."""
                ok, summary, error, seconds, timed_out, attempts = outcome
                if (ok and i in keys and not summary.get(
                        "degradation", {}).get("degraded")):
                    self.cache.put(keys[i],
                                   json.dumps(summary, sort_keys=True).encode())
                if journal is None:
                    return
                digest = digests.get(i, "")
                if not digest:
                    return
                if ok:
                    journal.record_done(labels[i], digest, summary, seconds,
                                        attempts, timed_out)
                else:
                    journal.record_fail(labels[i], digest, error, attempts,
                                        timed_out)

            option_fields = _worker_options(self.options)
            use_processes = (self.timeout is not None
                             or (self.jobs > 1 and len(pending) > 1))
            if use_processes:
                outcomes = self._run_processes(sources, pending,
                                               option_fields,
                                               on_outcome=record_outcome)
            else:
                outcomes = {}
                for i in pending:
                    outcome = self.worker(sources[i], option_fields) + (False, 1)
                    outcomes[i] = outcome
                    record_outcome(i, outcome)
        finally:
            if journal is not None:
                journal.close()

        for i in pending:
            ok, summary, error, seconds, timed_out, attempts = outcomes[i]
            results[i] = BatchResult(labels[i], ok, seconds, summary, error,
                                     False, attempts, timed_out)

        report = BatchReport(
            results=[r for r in results if r is not None],
            total_seconds=_time.perf_counter() - t0,  # repro-lint: disable=DET001 reason=batch wall-clock telemetry, never keyed or cached
            jobs=self.jobs,
            cache_hits=self.cache.hits if self.cache is not None else 0,
            cache_misses=self.cache.misses if self.cache is not None else 0,
        )
        return report
