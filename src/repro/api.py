"""The stable public API of the reproduction, in one flat namespace.

Everything a script needs to go from a trace on disk to a verified
:class:`~repro.core.structure.LogicalStructure` imports from here::

    from repro.api import extract, PipelineOptions

    structure = extract("trace.json", order="reordered", backend="auto")
    print(structure.summary())

The facade is intentionally thin: each name is re-exported from the
subsystem that owns it (``repro.core`` for the pipeline, ``repro.trace``
for I/O, ``repro.verify`` for checking, ``repro.batch`` for campaigns).
Internals may move between submodules across versions; the names listed
in ``__all__`` here are the compatibility surface.

:func:`extract` is the preferred entry point — it accepts a path, an
open stream, an in-memory :class:`~repro.trace.model.Trace`, or a
:class:`~repro.trace.source.TraceSource`, an optional
:class:`PipelineOptions`, and keyword overrides applied on top of it.
Path and stream inputs stream into a columnar trace
(:func:`~repro.trace.reader.read_trace_chunked`); ``read_trace`` stays
the object-backed reader, and the historical ``read_trace`` →
``extract`` idiom keeps working: a Trace input is used as-is.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.batch import (
    ArtifactStore,
    BatchExtractor,
    BatchReport,
    BatchResult,
    StructureCache,
    trace_digest,
)
from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.core.structure import LogicalStructure, Phase
from repro.resilience import (
    DegradationReport,
    RunJournal,
    StageOutcome,
    read_journal,
)
from repro.trace.faults import (
    FAULT_KINDS,
    fault_corpus,
    inject_fault,
    inject_faults,
)
from repro.trace.model import Trace, TraceBuilder
from repro.trace.reader import (
    ReaderStats,
    TraceFormatError,
    read_trace,
    read_trace_chunked,
)
from repro.trace.repair import RepairReport, detect_defects, repair_trace
from repro.trace.source import (
    FileTraceSource,
    MemoryTraceSource,
    StreamTraceSource,
    TraceSource,
    open_trace,
)
from repro.trace.validate import validate_trace
from repro.trace.writer import write_trace
from repro.verify import (
    StageHook,
    StageRecorder,
    StrictVerifier,
    check_structure,
    run_differential,
    verify_structure,
)

__all__ = [
    "ArtifactStore",
    "BatchExtractor",
    "BatchReport",
    "BatchResult",
    "DegradationReport",
    "FAULT_KINDS",
    "FileTraceSource",
    "JobService",
    "LogicalStructure",
    "Phase",
    "MemoryTraceSource",
    "PipelineOptions",
    "PipelineStats",
    "ReaderStats",
    "RepairReport",
    "RunJournal",
    "StageHook",
    "StageOutcome",
    "StageRecorder",
    "StreamTraceSource",
    "StrictVerifier",
    "StructureCache",
    "Trace",
    "TraceBuilder",
    "TraceFormatError",
    "TraceSource",
    "check_structure",
    "detect_defects",
    "extract",
    "extract_logical_structure",
    "fault_corpus",
    "inject_fault",
    "inject_faults",
    "open_trace",
    "read_journal",
    "read_trace",
    "read_trace_chunked",
    "repair_trace",
    "run_differential",
    "trace_digest",
    "validate_trace",
    "verify_structure",
    "write_trace",
]


def __getattr__(name: str):
    # JobService loads the HTTP service stack (asyncio, http, ssl, ...),
    # so it is imported on first use, not by ``import repro``.
    if name == "JobService":
        from repro.serve import JobService

        return JobService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def extract(
    source: Union[str, Path, Trace, TraceSource],
    options: Optional[PipelineOptions] = None,
    *,
    stats: Optional[PipelineStats] = None,
    **overrides,
) -> LogicalStructure:
    """Extract logical structure from a trace path, stream, Trace, or
    :class:`TraceSource`.

    ``options`` supplies the baseline (defaults if omitted) and
    ``overrides`` are field overrides applied on top via
    :meth:`PipelineOptions.with_overrides`, so both styles — a shared
    options object, quick one-off keywords, or a mix — go through one
    unambiguous path.  Unknown override names raise :class:`TypeError`.
    Path and stream sources stream into a columnar trace; an in-memory
    Trace or a pre-built TraceSource is used as-is.
    """
    opts = (options if options is not None else PipelineOptions())
    if overrides:
        opts = opts.with_overrides(**overrides)
    trace = open_trace(source).trace()
    return extract_logical_structure(trace, options=opts, stats=stats)
