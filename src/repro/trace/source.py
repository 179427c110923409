"""Unified handles over where a trace comes from.

A :class:`TraceSource` abstracts the three places a trace can live — a
JSONL file on disk, an open stream, or an already-materialized
:class:`~repro.trace.model.Trace` — behind one small protocol:

* :meth:`~TraceSource.trace` materializes the trace (files and streams
  stream into a :class:`~repro.trace.columns.ColumnarTrace`);
* :attr:`~TraceSource.label` names the source for reports and errors;
* :attr:`~TraceSource.path` is the backing file, when there is one
  (lets callers key caches on file bytes instead of record contents).

:func:`open_trace` is the front door: every consumer that accepts "a
trace or a path" (`repro.api.extract`, the CLI loaders, batch runs,
``repro.trace.validate``) routes through it, so a trace file is read
one way everywhere: by the chunked reader.  Passing an in-memory
``Trace`` always returns it unchanged — the historical ``read_trace``
(the object-backed reader) → ``extract`` idiom keeps working verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional, Union

from repro.trace.model import Trace


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

    __slots__ = ("path", "label", "chunk_bytes")

    def __init__(self, path: Union[str, Path], *,
                 chunk_bytes: Optional[int] = None):
        self.path = Path(path)
        self.label = str(path)
        self.chunk_bytes = chunk_bytes

    def trace(self) -> Trace:
        return _read(self.path, self.chunk_bytes)


class StreamTraceSource(TraceSource):
    """An open stream; consumed once, the trace is cached thereafter."""

    __slots__ = ("_stream", "_trace", "label", "chunk_bytes", "path")

    def __init__(self, stream: IO, *, chunk_bytes: Optional[int] = None,
                 label: str = "<stream>"):
        self._stream = stream
        self._trace: Optional[Trace] = None
        self.label = label
        self.chunk_bytes = chunk_bytes
        self.path = None

    def trace(self) -> Trace:
        if self._trace is None:
            self._trace = _read(self._stream, self.chunk_bytes)
            self._stream = None  # consumed; drop the handle
        return self._trace


def _read(source, chunk_bytes: Optional[int]) -> Trace:
    from repro.trace.reader import DEFAULT_CHUNK_BYTES, read_trace_chunked

    return read_trace_chunked(
        source, chunk_bytes=chunk_bytes or DEFAULT_CHUNK_BYTES)


def open_trace(
    source: Union[str, Path, IO, Trace, TraceSource],
    *,
    chunk_bytes: Optional[int] = None,
) -> TraceSource:
    """Wrap any way of designating a trace in a :class:`TraceSource`.

    ``source`` may be a filesystem path, an open stream (text or
    binary), an in-memory :class:`Trace` (returned untouched inside a
    :class:`MemoryTraceSource` — identity is preserved), or an existing
    :class:`TraceSource` (passed through unchanged).  Path and stream
    sources stream into a :class:`~repro.trace.columns.ColumnarTrace`
    (:func:`~repro.trace.reader.read_trace_chunked`, ``chunk_bytes`` per
    chunk); :func:`~repro.trace.reader.read_trace` is the object-backed
    reader.
    """
    if isinstance(source, Trace):
        return MemoryTraceSource(source)
    if isinstance(source, TraceSource) or (
            not hasattr(source, "read")
            and callable(getattr(source, "trace", None))):
        return source  # already a source (nominal or duck-typed)
    if isinstance(source, (str, Path)):
        return FileTraceSource(source, chunk_bytes=chunk_bytes)
    if hasattr(source, "read"):
        return StreamTraceSource(source, chunk_bytes=chunk_bytes)
    raise TypeError(
        f"cannot open {type(source).__name__!r} as a trace source; expected "
        "a path, an open stream, a Trace, or a TraceSource")
