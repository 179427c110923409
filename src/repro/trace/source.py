"""Unified handles over where a trace comes from.

A :class:`TraceSource` abstracts the three places a trace can live — a
JSONL file on disk, an open stream, or an already-materialized
:class:`~repro.trace.model.Trace` — behind one small protocol:

* :meth:`~TraceSource.trace` materializes the trace (honoring the
  source's ingestion mode: eager objects or streamed columns);
* :attr:`~TraceSource.label` names the source for reports and errors;
* :attr:`~TraceSource.path` is the backing file, when there is one
  (lets callers key caches on file bytes instead of record contents).

:func:`open_trace` is the front door: every consumer that accepts "a
trace or a path" (`repro.api.extract`, the CLI loaders, batch runs,
``repro.trace.validate``) routes through it, so ingestion policy lives
in exactly one place.  Passing an in-memory ``Trace`` always returns it
unchanged — the historical ``read_trace`` → ``extract`` idiom keeps
working verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional, Union

from repro.trace.model import Trace

#: Ingestion modes :func:`open_trace` understands.
INGEST_MODES = ("auto", "eager", "chunked")


def resolve_ingest(ingest: str) -> str:
    """Concrete ingestion mode: "auto" is "chunked"."""
    if ingest not in INGEST_MODES:
        raise ValueError(
            f"unknown ingest mode {ingest!r}; expected one of {INGEST_MODES}")
    return "chunked" if ingest == "auto" else ingest


class TraceSource:
    """Protocol for trace providers (duck-typed; subclassing optional).

    A conforming object has a ``trace()`` method returning a
    :class:`Trace`, a ``label`` string, and a ``path`` attribute that is
    the backing file path or None.  ``trace()`` may be called more than
    once; implementations cache when re-reading is impossible (streams)
    and may re-read when it is cheap to stay lazy (files).
    """

    label: str = "<trace>"
    path: Optional[Path] = None

    def trace(self) -> Trace:
        raise NotImplementedError


class MemoryTraceSource(TraceSource):
    """An already-materialized trace; ``trace()`` returns it as-is."""

    __slots__ = ("_trace", "label", "path")

    def __init__(self, trace: Trace, label: str = "<memory>"):
        self._trace = trace
        self.label = label
        self.path = None

    def trace(self) -> Trace:
        return self._trace


class FileTraceSource(TraceSource):
    """A JSONL trace file; each ``trace()`` call reads it afresh."""

    __slots__ = ("path", "label", "ingest", "chunk_bytes")

    def __init__(self, path: Union[str, Path], *, ingest: str = "auto",
                 chunk_bytes: Optional[int] = None):
        self.path = Path(path)
        self.label = str(path)
        self.ingest = resolve_ingest(ingest)
        self.chunk_bytes = chunk_bytes

    def trace(self) -> Trace:
        return _read(self.path, self.ingest, self.chunk_bytes)


class StreamTraceSource(TraceSource):
    """An open stream; consumed once, the trace is cached thereafter."""

    __slots__ = ("_stream", "_trace", "label", "ingest", "chunk_bytes",
                 "path")

    def __init__(self, stream: IO, *, ingest: str = "auto",
                 chunk_bytes: Optional[int] = None,
                 label: str = "<stream>"):
        self._stream = stream
        self._trace: Optional[Trace] = None
        self.label = label
        self.ingest = resolve_ingest(ingest)
        self.chunk_bytes = chunk_bytes
        self.path = None

    def trace(self) -> Trace:
        if self._trace is None:
            self._trace = _read(self._stream, self.ingest, self.chunk_bytes)
            self._stream = None  # consumed; drop the handle
        return self._trace


def _read(source, ingest: str, chunk_bytes: Optional[int]) -> Trace:
    if ingest == "chunked":
        from repro.trace.reader import DEFAULT_CHUNK_BYTES, read_trace_chunked

        return read_trace_chunked(
            source, chunk_bytes=chunk_bytes or DEFAULT_CHUNK_BYTES)
    from repro.trace.reader import read_trace

    return read_trace(source)


def open_trace(
    source: Union[str, Path, IO, Trace, TraceSource],
    *,
    ingest: str = "auto",
    chunk_bytes: Optional[int] = None,
) -> TraceSource:
    """Wrap any way of designating a trace in a :class:`TraceSource`.

    ``source`` may be a filesystem path, an open stream (text or
    binary), an in-memory :class:`Trace` (returned untouched inside a
    :class:`MemoryTraceSource` — identity is preserved), or an existing
    :class:`TraceSource` (passed through unchanged; ``ingest`` does not
    override its policy).  ``ingest`` selects the reader for path and
    stream sources: "eager" (object-backed trace), "chunked" (streamed
    columnar trace, bit-identical), or "auto" (chunked).
    """
    if isinstance(source, Trace):
        return MemoryTraceSource(source)
    if isinstance(source, TraceSource) or (
            not hasattr(source, "read")
            and callable(getattr(source, "trace", None))):
        return source  # already a source (nominal or duck-typed)
    if isinstance(source, (str, Path)):
        return FileTraceSource(source, ingest=ingest, chunk_bytes=chunk_bytes)
    if hasattr(source, "read"):
        return StreamTraceSource(source, ingest=ingest,
                                 chunk_bytes=chunk_bytes)
    raise TypeError(
        f"cannot open {type(source).__name__!r} as a trace source; expected "
        "a path, an open stream, a Trace, or a TraceSource")
