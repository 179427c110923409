"""The job body ``repro serve`` runs per extraction job.

:func:`analyze_one` is the service twin of
:func:`repro.batch._extract_one`: same contract (module-level, picklable
arguments, never raises, returns ``(ok, payload, error, seconds)``), so
it rides the existing :class:`~repro.batch.BatchExtractor` scheduler and
inherits its per-job timeout, retries, and crash containment.  The
payload is the full :func:`repro.report.analysis_document` — what
``repro analyze --json`` prints — rendered once, here, to the bytes the
artifact store keeps and the result endpoint serves, rather than the
compact batch summary, because service clients fetch complete results,
not campaign bookkeeping rows.  :func:`~repro.report.render_document`
is re-exported here for the job service.
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
    """Extract one trace into a rendered analysis document; never raise.

    The payload is ``(document bytes, degraded)``: a degraded run's
    document is served but never stored.  Runs in
    :class:`~repro.batch.BatchExtractor` worker processes (hence
    module-level with picklable arguments) and serially.
    """
    t0 = _time.perf_counter()  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached
    try:
        opts = PipelineOptions(**option_fields)
        trace = open_trace(source).trace()
        stats = PipelineStats()
        structure = extract_logical_structure(trace, opts, stats=stats)
        doc = analysis_document(structure, stats)
        degraded = bool(doc.get("degradation", {}).get("degraded"))
        payload = (render_document(doc).encode(), degraded)
        return True, payload, "", _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached
    except Exception as exc:  # worker isolation: report, don't propagate
        error = f"{type(exc).__name__}: {exc}"
        return False, {}, error, _time.perf_counter() - t0  # repro-lint: disable=DET001 reason=job timing telemetry, never keyed or cached

