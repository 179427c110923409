"""Job ledger, queue, and worker pool behind ``repro serve``.

The service core is framework-free: :class:`JobService` owns the trace
uploads, the artifact store (a sharded :class:`~repro.batch.StructureCache`
holding each job's rendered document bytes), a FIFO job queue drained
by worker threads, and the **job ledger** — the batch journal pattern
(:class:`~repro.resilience.journal.JournalWriter`) promoted to service
duty.  Every state change appends one fsync'd JSON line *before* the
change takes effect for clients:

* ``{"kind": "meta", "version": 1}`` — once per server start;
* ``{"kind": "submit", "job", "seq", "trace", "source", "digest",
  "key", "options"}`` — a job was accepted (queued);
* ``{"kind": "done", "job", "cached", "seconds", "attempts",
  "timed_out"}`` — its artifact is complete (written to the store
  first, so a "done" line always has a fetchable artifact behind it);
* ``{"kind": "fail", "job", "error", "attempts", "timed_out"}`` — it
  exhausted its retries.

Because "submit" is durable before the client sees the job id and
"done"/"fail" are durable only after the outcome exists, a ``kill -9``
of the server at any instant loses nothing: on restart,
:func:`read_job_ledger` reconstructs every job, and those without a
terminal line are re-queued and complete exactly once.  (A job killed
*mid-extraction* re-runs from scratch — extraction is deterministic and
the artifact write is atomic, so the replay is invisible to clients.)

Jobs execute through the existing :class:`~repro.batch.BatchExtractor`
scheduler with :func:`repro.serve.worker.analyze_one` as the job body,
inheriting its per-job wall-clock timeout, retries with backoff, and
crash containment (a segfaulting or OOM-killed extraction fails its job,
never the server).
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.batch import BatchExtractor, StructureCache, trace_digest
from repro.chaos import ChaosCrash, FaultPlan
from repro.chaos.fs import REAL_FS, atomic_write
from repro.resilience.journal import JournalLines, JournalWriter
from repro.serve.breaker import CircuitBreaker
from repro.serve.schemas import SchemaError, parse_options
from repro.serve.worker import analyze_one, render_document

LEDGER_VERSION = 1

_UPLOAD_PREFIX = "upload:"

#: Job states that never change again (never re-queued on restart).
TERMINAL_STATES = ("done", "failed", "expired")


class OverloadError(RuntimeError):
    """The service refused a submission to protect itself.

    ``status`` is the HTTP status the front end should send (``429``
    for a full queue, ``503`` for an open circuit breaker) and
    ``retry_after`` the seconds a well-behaved client should wait.
    """

    def __init__(self, message: str, *, status: int = 429,
                 retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.status = int(status)
        self.retry_after = float(retry_after)


@dataclass
class JobRecord:
    """One extraction job's full state (mirrors the ledger)."""

    id: str
    seq: int
    trace: str    #: the trace reference as submitted
    source: str   #: the resolved on-disk path extraction reads
    digest: str   #: trace content digest (sha256)
    key: str      #: artifact-store key (digest + resolved options)
    options: dict = field(default_factory=dict)
    status: str = "queued"
    cached: bool = False
    error: str = ""
    seconds: float = 0.0
    attempts: int = 0
    timed_out: bool = False
    #: Monotonic enqueue instant for queue-age expiry.  Process-local
    #: (monotonic clocks do not survive restart), deliberately not
    #: journaled: a restarted server re-queues survivors with a fresh
    #: age rather than mass-expiring a backlog it just recovered.
    enqueued_at: float = 0.0

    def to_dict(self) -> dict:
        """The ``GET /v1/jobs/<id>`` response body."""
        return {
            "job": self.id,
            "status": self.status,
            "trace": self.trace,
            "digest": self.digest,
            "key": self.key,
            "options": dict(self.options),
            "cached": self.cached,
            "error": self.error,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }


def read_job_ledger(path: Union[str, Path]) -> "OrderedDict[str, JobRecord]":
    """Reconstruct job state from a ledger file, in submission order.

    Tolerates a missing file (no jobs yet), a torn final line (``kill
    -9`` mid-append), and unknown entry kinds (forward compatibility).
    Jobs whose latest state is non-terminal come back as ``queued`` —
    whatever they were doing when the server died must be redone.
    """
    jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
    for entry in JournalLines(path):
        kind = entry.get("kind")
        if kind == "submit":
            job_id = entry.get("job")
            if not isinstance(job_id, str) or not job_id:
                continue
            jobs[job_id] = JobRecord(
                id=job_id,
                seq=int(entry.get("seq", 0)),
                trace=str(entry.get("trace", "")),
                source=str(entry.get("source", "")),
                digest=str(entry.get("digest", "")),
                key=str(entry.get("key", "")),
                options=dict(entry.get("options") or {}),
            )
        elif kind in ("done", "fail"):
            job = jobs.get(entry.get("job", ""))
            if job is None:
                continue
            if kind == "done":
                job.status = "done"
            elif entry.get("expired"):
                job.status = "expired"
            else:
                job.status = "failed"
            job.cached = bool(entry.get("cached", False))
            job.error = str(entry.get("error", ""))
            job.seconds = float(entry.get("seconds", 0.0))
            job.attempts = int(entry.get("attempts", 0))
            job.timed_out = bool(entry.get("timed_out", False))
    return jobs


class JobLedger:
    """Append-only writer for the service job ledger."""

    def __init__(self, path: Union[str, Path], fs=None) -> None:
        self.path = Path(path)
        self._writer = JournalWriter(self.path, append=True, fs=fs)
        self._writer.record("meta", version=LEDGER_VERSION)

    def submit(self, job: JobRecord) -> None:
        self._writer.record("submit", job=job.id, seq=job.seq,
                            trace=job.trace, source=job.source,
                            digest=job.digest, key=job.key,
                            options=job.options)

    def done(self, job: JobRecord) -> None:
        self._writer.record("done", job=job.id, cached=job.cached,
                            seconds=job.seconds, attempts=job.attempts,
                            timed_out=job.timed_out)

    def fail(self, job: JobRecord) -> None:
        self._writer.record("fail", job=job.id, error=job.error,
                            attempts=job.attempts, timed_out=job.timed_out,
                            seconds=job.seconds)

    def expire(self, job: JobRecord) -> None:
        # A "fail" line with the expired flag: old readers see a plain
        # failure (terminal either way), new ones recover the status.
        self._writer.record("fail", job=job.id, error=job.error,
                            attempts=job.attempts, timed_out=job.timed_out,
                            seconds=job.seconds, expired=True)

    def close(self) -> None:
        self._writer.close()


class JobService:
    """Upload store + artifact store + crash-safe job queue.

    ``data_dir`` is the service's one durable root::

        <data_dir>/uploads/<digest>.jsonl   uploaded trace bodies
        <data_dir>/artifacts/<kk>/<key>.json  sharded artifact store
        <data_dir>/jobs.jsonl               the job ledger

    ``workers`` threads drain the queue (0 = accept jobs but do not
    process them — a queued-only server whose backlog drains on the
    next start; useful for staging and for exercising restart
    recovery).  Each job runs through ``BatchExtractor`` with the given
    ``timeout``/``retries``/``backoff``.  All public methods are
    thread-safe; construction replays the ledger and re-queues every
    job that had not reached a terminal state.

    Overload & failure hardening (see ``docs/ROBUSTNESS.md``):

    * ``max_queue`` bounds admissions — :meth:`submit` raises
      :class:`OverloadError` (429) once that many jobs are waiting;
    * ``max_queue_age`` sheds stale work — a job older than this when a
      worker picks it up becomes ``expired`` without running;
    * a :class:`~repro.serve.breaker.CircuitBreaker`
      (``breaker_threshold`` consecutive distinct-job worker crashes,
      ``breaker_cooldown`` seconds) fails submissions fast (503) while
      the worker pool looks sick;
    * ledger write failures flip the service to **memory-only mode**
      (loud ``RuntimeWarning``, ``/healthz`` degraded) instead of dying;
      artifact-store write failures serve the result inline, uncached,
      and mark ``/healthz`` degraded until a store write succeeds again;
    * ``chaos`` (a :class:`~repro.chaos.FaultPlan`) wires every fault
      seam — ledger/store/upload filesystem ops, the ``worker.run``
      site, and the expiry/breaker clock — for deterministic drills.
    """

    def __init__(self, data_dir: Union[str, Path], *,
                 workers: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 backoff: float = 0.5,
                 max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 shard_prefix: int = 2,
                 max_shard_bytes: Optional[int] = None,
                 max_queue: Optional[int] = None,
                 max_queue_age: Optional[float] = None,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0,
                 chaos: Optional[FaultPlan] = None):
        self.data_dir = Path(data_dir)
        self.uploads_dir = self.data_dir / "uploads"
        self.uploads_dir.mkdir(parents=True, exist_ok=True)
        self.chaos = chaos
        self._clock = chaos.clock if chaos is not None else time.monotonic
        self._upload_fs = chaos.fs("upload") if chaos is not None else REAL_FS
        self.store = StructureCache(
            self.data_dir / "artifacts",
            max_entries=max_entries, max_bytes=max_bytes,
            shard_prefix=shard_prefix, max_shard_bytes=max_shard_bytes,
            fs=chaos.fs("store") if chaos is not None else None,
        )
        self.workers = max(0, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))
        self.max_queue = None if max_queue is None else max(1, int(max_queue))
        self.max_queue_age = max_queue_age
        self.breaker = CircuitBreaker(threshold=breaker_threshold,
                                      cooldown=breaker_cooldown,
                                      clock=self._clock)
        self.ledger_path = self.data_dir / "jobs.jsonl"
        self._lock = threading.RLock()
        # Signals "a job moved toward idle" (dequeued, expired, done or
        # failed) so drain() can sleep instead of polling.
        self._cond = threading.Condition(self._lock)
        self._jobs = read_job_ledger(self.ledger_path)
        self._seq = max((j.seq for j in self._jobs.values()), default=0)
        self._degraded: Dict[str, str] = {}
        self.ledger_failures = 0
        self.store_write_failures = 0
        self.rejected_queue_full = 0
        self.shed_expired = 0
        self.ledger: Optional[JobLedger] = None
        ledger_fs = chaos.fs("ledger") if chaos is not None else None
        try:
            self.ledger = JobLedger(self.ledger_path, fs=ledger_fs)
        except OSError as exc:
            self._enter_memory_only(exc)
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._queued = 0  # jobs waiting (excludes stop sentinels)
        # Rendered results served from memory: degraded runs (never
        # cached) and runs whose store write failed.
        self._docs: Dict[str, bytes] = {}
        self._threads: List[threading.Thread] = []
        self.recovered = 0
        for job in self._jobs.values():
            if job.status not in TERMINAL_STATES:
                job.status = "queued"
                job.enqueued_at = self._clock()
                self._queue.put(job.id)
                self._queued += 1
                self.recovered += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            while len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._work,
                    name=f"repro-serve-worker-{len(self._threads)}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop the workers after their current job and close the ledger."""
        with self._lock:
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        if wait:
            for thread in threads:
                thread.join()
        if self.ledger is not None:
            self.ledger.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running (True) or time is up.

        The graceful-shutdown half of SIGTERM handling: the front end
        stops accepting, then drains so every accepted job reaches a
        durable terminal ledger line before the process exits.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._cond:
            while True:
                busy = self._queued > 0 or any(
                    job.status == "running" for job in self._jobs.values())
                if not busy:
                    return True
                if deadline is None:
                    self._cond.wait()
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                # An injected chaos clock advances independently of wall
                # time, so a full-length wall wait could oversleep the
                # deadline; bounded slices keep the deadline observable.
                self._cond.wait(remaining if self.chaos is None
                                else min(remaining, 0.05))

    # ------------------------------------------------------------------
    # Degradation bookkeeping
    # ------------------------------------------------------------------
    def _enter_memory_only(self, exc: BaseException) -> None:
        """Ledger IO failed: keep serving from memory, loudly."""
        with self._lock:
            self.ledger_failures += 1
            ledger, self.ledger = self.ledger, None
            self._degraded["ledger"] = (
                f"ledger write failed ({exc}); running memory-only — "
                f"jobs accepted now will NOT survive a restart")
        if ledger is not None:
            ledger.close()
        warnings.warn(
            f"repro serve: job ledger write failed ({exc}); falling back "
            f"to memory-only mode — accepted jobs will not survive a "
            f"restart until the ledger is writable and the server "
            f"restarts", RuntimeWarning, stacklevel=2)

    def _journal(self, op: str, job: JobRecord) -> None:
        """Append one ledger line; IO failure degrades to memory-only."""
        with self._lock:
            ledger = self.ledger
        if ledger is None:
            return
        try:
            getattr(ledger, op)(job)
        except OSError as exc:
            self._enter_memory_only(exc)

    def health(self) -> dict:
        """``/healthz`` body: ok, or degraded with reasons."""
        with self._lock:
            reasons = dict(self._degraded)
        return {"status": "degraded" if reasons else "ok",
                "reasons": reasons}

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def upload(self, data: bytes) -> dict:
        """Persist an uploaded trace body; returns its reference.

        Content-addressed: the same bytes always land at (and return)
        the same ``upload:<sha256>`` reference, written atomically so a
        concurrent identical upload or a crash mid-write can never leave
        a torn file behind.
        """
        if not data:
            raise SchemaError("empty trace upload")
        digest = hashlib.sha256(data).hexdigest()
        path = self.uploads_dir / f"{digest}.jsonl"
        if not path.exists():
            atomic_write(path, (data,), self._upload_fs)
        return {"trace": f"{_UPLOAD_PREFIX}{digest}", "digest": digest,
                "bytes": len(data)}

    def register(self, path_text: str) -> dict:
        """Register an on-disk trace path; returns its reference."""
        path = Path(path_text).expanduser()
        if not path.is_file():
            raise SchemaError(f"no such trace file: {path_text}")
        return {"trace": str(path.resolve())}

    def _resolve(self, trace_ref: str) -> str:
        """A trace reference → the path extraction will read."""
        if trace_ref.startswith(_UPLOAD_PREFIX):
            digest = trace_ref[len(_UPLOAD_PREFIX):]
            if not digest or any(c not in "0123456789abcdef" for c in digest):
                raise SchemaError(f"malformed upload reference: {trace_ref}")
            path = self.uploads_dir / f"{digest}.jsonl"
            if not path.is_file():
                raise SchemaError(f"unknown upload: {trace_ref}")
            return str(path)
        path = Path(trace_ref)
        if not path.is_file():
            raise SchemaError(
                f"unknown trace: {trace_ref} (upload it or register a path "
                f"first)")
        return str(path)

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def _queue_retry_hint(self) -> float:
        """Rough seconds until the queue has room (Retry-After)."""
        per_job = self.timeout if self.timeout else 1.0
        pool = max(1, self.workers)
        return min(60.0, max(1.0, per_job * self._queued / pool))

    def _check_admission(self) -> None:
        """Reject before any expensive work when overloaded (no journal
        line is written for a rejected submission — accepted jobs are
        exactly the journaled ones)."""
        retry = self.breaker.admit()
        if retry is not None:
            raise OverloadError(
                "worker pool circuit breaker is open (repeated worker "
                "crashes); retry later", status=503, retry_after=retry)
        if self.max_queue is not None:
            with self._lock:
                if self._queued >= self.max_queue:
                    self.rejected_queue_full += 1
                    raise OverloadError(
                        f"job queue full ({self.max_queue} waiting)",
                        status=429,
                        retry_after=self._queue_retry_hint())

    def submit(self, trace_ref: str,
               option_fields: Optional[dict] = None) -> JobRecord:
        """Accept an extraction job; returns its (journaled) record.

        If the artifact store already holds a result for this exact
        trace content + resolved options, the job is born ``done`` with
        ``cached: true`` — no extraction runs, and the result endpoint
        serves the stored artifact.

        Raises :class:`OverloadError` (before any digest work and
        before anything is journaled) when the queue is at
        ``max_queue`` or the worker-pool circuit breaker is open.
        """
        self._check_admission()
        option_fields = dict(option_fields or {})
        opts = parse_options(option_fields)
        source = self._resolve(trace_ref)
        try:
            digest = trace_digest(source)
        except OSError as exc:
            raise SchemaError(f"unreadable trace {trace_ref}: {exc}") from None
        key = self.store.key(digest, opts)
        with self._lock:
            if (self.max_queue is not None
                    and self._queued >= self.max_queue):
                # The digest work above runs unlocked; re-check so a
                # racing burst cannot overshoot the bound.
                self.rejected_queue_full += 1
                raise OverloadError(
                    f"job queue full ({self.max_queue} waiting)",
                    status=429, retry_after=self._queue_retry_hint())
            self._seq += 1
            job = JobRecord(id=f"job-{self._seq:06d}", seq=self._seq,
                            trace=trace_ref, source=source, digest=digest,
                            key=key, options=option_fields)
            self._jobs[job.id] = job
            self._journal("submit", job)
            if self.store.get(key) is not None:
                job.status = "done"
                job.cached = True
                self._journal("done", job)
                self._cond.notify_all()
            else:
                job.enqueued_at = self._clock()
                self._queued += 1
                self._queue.put(job.id)
                self.breaker.note_enqueued()
        return job

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def result(self, job_id: str) -> Optional[str]:
        """The rendered analysis document of a ``done`` job, or None.

        None means "no artifact": the job is not done, or its artifact
        was evicted by store quotas (resubmit the job to regenerate) —
        the HTTP layer distinguishes the two from the job status.
        Degraded (partial) results are served from memory and never
        cached, so a healthier rerun can do better.

        The stored bytes are the rendered document, served as they are.
        An artifact an earlier version stored as compact JSON (it starts
        ``{"``, a rendered document ``{`` and a newline) is rendered
        here, so it serves the same text with no key change.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "done":
                return None
            data = self._docs.get(job_id)
        if data is None:
            data = self.store.get(job.key)
        if data is None:
            return None
        if data.startswith(b'{"'):
            return render_document(json.loads(data))
        return data.decode()

    def stats(self) -> dict:
        """Service occupancy and backpressure (``GET /v1/stats``)."""
        with self._lock:
            # Seed the always-present states; rarer ones ("expired")
            # appear only when jobs actually hold them, keeping the
            # steady-state wire shape stable for existing clients.
            counts = {state: 0 for state in
                      ("queued", "running", "done", "failed")}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            store = self.store.stats()
            store["write_failures"] = self.store_write_failures
            body = {
                "workers": len(self._threads),
                "queue_depth": self._queued,
                "max_queue": self.max_queue,
                "jobs": counts,
                "recovered": self.recovered,
                "rejected": {
                    "queue_full": self.rejected_queue_full,
                    "breaker": self.breaker.snapshot()["rejected"],
                },
                "shed": {"expired": self.shed_expired},
                "breaker": self.breaker.snapshot(),
                "ledger": {
                    "mode": ("durable" if self.ledger is not None
                             else "memory-only"),
                    "failures": self.ledger_failures,
                },
                "health": self.health(),
                "store": store,
            }
            if self.chaos is not None:
                body["chaos"] = self.chaos.summary()
            return body

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _work(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                self._queued = max(0, self._queued - 1)
                job = self._jobs.get(job_id)
                if job is None or job.status != "queued":
                    self._cond.notify_all()
                    continue  # raced by a duplicate wakeup: nothing to do
                if (self.max_queue_age is not None and job.enqueued_at
                        and (self._clock() - job.enqueued_at
                             > self.max_queue_age)):
                    # Stale enough that the client has given up: shed it
                    # at dequeue (cheap) instead of extracting a result
                    # nobody will fetch.
                    job.status = "expired"
                    job.error = (f"expired: waited longer than "
                                 f"{self.max_queue_age:g}s in queue")
                    self.shed_expired += 1
                    self._journal("expire", job)
                    self._cond.notify_all()
                    continue
                job.status = "running"
                option_fields = dict(job.options)
            error = ""
            crashed = False
            result = None
            try:
                if self.chaos is not None:
                    self.chaos.trip("worker.run")
                opts = parse_options(option_fields)
                extractor = BatchExtractor(
                    options=opts, jobs=1, timeout=self.timeout,
                    retries=self.retries, backoff=self.backoff,
                    worker=analyze_one,
                )
                result = extractor.run([job.source]).results[0]
            except ChaosCrash as exc:  # injected worker-pool crash
                error = f"WorkerCrash: {exc}"
                crashed = True
            except Exception as exc:  # scheduler-level failure
                error = f"{type(exc).__name__}: {exc}"
            if result is not None and not result.ok:
                # The scheduler contained a real crash or hang; both
                # mean the pool (not the input) may be sick.
                crashed = (result.error.startswith("WorkerCrash")
                           or result.timed_out)
            if result is not None and result.ok:
                data, degraded = result.summary
                # Artifact first, then the durable "done" line: a crash
                # between the two re-runs the job (idempotent), while
                # the reverse order could journal a result that was
                # never stored.
                if degraded:
                    with self._lock:
                        self._docs[job.id] = data
                else:
                    try:
                        self.store.put(job.key, data)
                        with self._lock:
                            # A good write proves the store recovered.
                            self._degraded.pop("artifact-store", None)
                    except OSError as exc:
                        # Quota/ENOSPC: serve the result inline from
                        # memory, uncached, and say so in /healthz.
                        with self._lock:
                            self.store_write_failures += 1
                            self._docs[job.id] = data
                            self._degraded["artifact-store"] = (
                                f"artifact write failed ({exc}); serving "
                                f"results inline without caching")
            with self._lock:
                if result is not None:
                    job.seconds = result.seconds
                    job.attempts = result.attempts
                    job.timed_out = result.timed_out
                    if result.ok:
                        job.status = "done"
                        self._journal("done", job)
                    else:
                        job.status = "failed"
                        job.error = result.error
                        self._journal("fail", job)
                else:
                    job.status = "failed"
                    job.error = error
                    self._journal("fail", job)
                self._cond.notify_all()
            if result is not None and result.ok:
                self.breaker.record_success(job.id)
            else:
                self.breaker.record_failure(job.id, crash=crashed)
