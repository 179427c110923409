"""The job body ``repro serve`` runs per extraction job.

:func:`analyze_one` is the service twin of
:func:`repro.batch._extract_one`: same contract (module-level, picklable
arguments, never raises, returns ``(ok, payload, error, seconds)``), so
it rides the existing :class:`~repro.batch.BatchExtractor` scheduler and
inherits its per-job timeout, retries, and crash containment.  The
payload is the full :func:`repro.report.analysis_document` — the same
dict ``repro analyze --json`` prints — rather than the compact batch
summary, because service clients fetch complete results, not campaign
bookkeeping rows.  :func:`~repro.report.render_document`, the payload's
wire rendering, is re-exported here for the job service.
"""

from __future__ import annotations

import time as _time

from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.report import analysis_document, render_document
from repro.trace.source import open_trace

__all__ = ["analyze_one", "render_document"]


def analyze_one(source, option_fields: dict):
    """Extract one trace into a full analysis document; never raise.

    Runs in :class:`~repro.batch.BatchExtractor` worker processes (hence
    module-level with picklable arguments) and serially.
    """
    t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached
    try:
        opts = PipelineOptions(**option_fields)
        trace = open_trace(source).trace()
        stats = PipelineStats()
        structure = extract_logical_structure(trace, opts, stats=stats)
        doc = analysis_document(structure, stats)
        return True, doc, "", _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached
    except Exception as exc:  # worker isolation: report, don't propagate
        error = f"{type(exc).__name__}: {exc}"
        return False, {}, error, _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached

