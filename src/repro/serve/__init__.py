"""Extraction-as-a-service: the ``repro serve`` HTTP front end.

Everything downstream of extraction — visualization, diffing, batch
campaigns — can run against one standing endpoint instead of shelling
into the CLI per trace (ROADMAP item 3, the "millions of users" gap).
The package is stdlib-only (``asyncio`` + hand-rolled HTTP/1.1, no
framework) and splits into:

* :mod:`repro.serve.schemas` — request parsing/validation and response
  shaping for every endpoint;
* :mod:`repro.serve.worker` — :func:`analyze_one`, the job body run
  inside :class:`~repro.batch.BatchExtractor` worker processes; it
  renders each document once, to the bytes the artifact store keeps;
* :mod:`repro.serve.jobs` — the crash-safe job ledger (on
  :class:`~repro.resilience.journal.JournalWriter`) and
  :class:`JobService`, the queue + worker threads + artifact store
  behind the endpoints.  The artifact store is the batch
  :class:`~repro.batch.StructureCache`, sharded two hex characters
  deep; :data:`~repro.batch.ArtifactStore` opens one that way, and is
  re-exported here under its historical name;
* :mod:`repro.serve.app` — the asyncio HTTP server itself, with
  per-connection read/write deadlines, per-request handler deadlines,
  and graceful SIGTERM/SIGINT drain;
* :mod:`repro.serve.breaker` — :class:`CircuitBreaker` around the
  worker pool (repeated worker crashes open it; 503 + Retry-After);
* :mod:`repro.serve.client` — :class:`ServeClient`, the retrying
  stdlib HTTP client behind ``repro submit`` (capped exponential
  backoff with full jitter, honors ``Retry-After``).

Job results are byte-identical to ``repro analyze --json`` for the same
trace and options (both render :func:`repro.report.analysis_document`),
and identical trace+options submissions are served from the artifact
store without re-extraction.  The ledger makes the queue SIGKILL-safe:
a restarted server re-runs exactly the journaled jobs that had not
completed.  See ``docs/API.md`` ("The extraction service") for the
endpoint table, job lifecycle, and store layout.

The exported names load on first access, so importing one submodule
(``repro.serve.worker``, say) does not load the HTTP service stack.
"""

__all__ = [
    "ArtifactStore",
    "CircuitBreaker",
    "ClientError",
    "ExtractionApp",
    "JOB_STATES",
    "JobLedger",
    "JobRecord",
    "JobService",
    "OverloadError",
    "SchemaError",
    "ServeClient",
    "analyze_one",
    "parse_options",
    "read_job_ledger",
    "run_server",
    "start_server_thread",
]


def __getattr__(name: str):
    # A name outside __all__ fails before importing anything: the
    # ``from repro.serve import jobs`` below must fall through to the
    # submodule instead of recursing.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro import batch
    from repro.serve import app, breaker, client, jobs, schemas, worker

    for module in (batch, app, breaker, client, jobs, schemas, worker):
        if name in vars(module):
            return vars(module)[name]
    raise AttributeError(name)  # pragma: no cover - __all__ names a missing export
