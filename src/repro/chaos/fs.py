"""Filesystem ops seam: real passthrough, or chaos-instrumented.

Durability-critical writers (:class:`repro.resilience.journal.JournalWriter`
and :func:`atomic_write`, which the structure cache, the serve upload
path and pipeline checkpoints share) take an ``fs=`` object exposing
exactly the three operations their crash-safety story is built on —
``open``, ``fsync``, ``replace``.  The default
:data:`REAL_FS` delegates straight to the stdlib and costs one
attribute lookup per call; a :class:`ChaosFs` bound to a
:class:`~repro.chaos.plan.FaultPlan` consults a fault site before each
operation, so a test can schedule ``ENOSPC`` on the third fsync of the
ledger, or a torn write in the middle of an artifact-store entry, and
then prove the recovery path — instead of hoping the disk cooperates.

Site names are ``{scope}.{op}``: a ``ChaosFs(plan, "ledger")`` consults
``ledger.open``, ``ledger.write``, ``ledger.fsync`` and
``ledger.replace``.  The ``write`` site is consulted per
``file.write()`` call on handles opened through the seam; a ``torn``
fault there writes a prefix of the buffer and raises ``EIO`` — the
half-written bytes stay on disk for the reader's repair path to find.
At ``open``, ``fsync`` and ``replace``, which write no bytes, ``torn``
degenerates to ``EIO``.
"""

from __future__ import annotations

import errno
import os
import uuid
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.plan import FaultPlan


class FsOps:
    """Straight-through filesystem operations (the default seam)."""

    def open(self, path: str, mode: str = "rb") -> IO[Any]:
        return open(path, mode)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def replace(self, src: str, dst: str) -> None:
        # The seam exists so callers can order fsync-then-replace through
        # one object; the ordering lives at the call site, not here.
        os.replace(src, dst)  # repro-lint: disable=CONC001 reason=passthrough seam; durability ordering is enforced at the call sites that use this ops object


#: Shared passthrough instance — the default for every ``fs=`` parameter.
REAL_FS = FsOps()


def atomic_write(path: Union[str, Path], chunks: Iterable[bytes],
                 fs: FsOps = REAL_FS) -> None:
    """Write ``chunks`` to ``path`` so readers see all of it or none.

    The chunks go to a temp file beside ``path`` (one ``write`` call
    each, a name unique per write so concurrent writers never share
    one), flushed and fsync'd before ``fs.replace`` moves it into place:
    ``os.replace`` is atomic but not durable.  The temp file is removed
    if any step fails.  Every step goes through ``fs``, so injected
    faults land exactly where a real disk would fail.
    """
    path = Path(path)
    tmp = path.parent / f".{path.stem}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with fs.open(str(tmp), "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            fs.fsync(handle.fileno())
        fs.replace(str(tmp), str(path))
    finally:
        if tmp.exists():  # a step failed before the rename: don't litter
            try:
                tmp.unlink()
            except OSError:
                pass


class _ChaosFile:
    """File handle wrapper that injects write faults.

    Consults ``{scope}.write`` before every ``write()``.  A ``torn``
    fault writes roughly half the buffer (and flushes it, so the torn
    bytes actually reach the OS) before raising ``EIO``; ``enospc`` and
    ``eio`` faults raise before any byte is written.  Everything else
    (flush, fileno, close, context-manager use) delegates untouched.
    """

    def __init__(self, fh: IO[Any], plan: "FaultPlan", scope: str) -> None:
        self._fh = fh
        self._plan = plan
        self._scope = scope

    def write(self, data: Any) -> int:
        spec = self._plan.trip(self._scope + ".write")
        if spec is not None and spec.kind == "torn":
            prefix = data[: max(1, len(data) // 2)] if len(data) else data
            self._fh.write(prefix)
            self._fh.flush()
            raise OSError(
                errno.EIO,
                f"chaos: torn write at {self._scope}.write "
                f"({len(prefix)}/{len(data)} bytes reached the OS)")
        return self._fh.write(data)

    def __enter__(self) -> "_ChaosFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self._fh.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._fh, name)


class ChaosFs(FsOps):
    """An :class:`FsOps` that consults a fault plan before each op."""

    def __init__(self, plan: "FaultPlan", scope: str) -> None:
        self.plan = plan
        self.scope = scope

    def _trip(self, op: str) -> None:
        """Consult ``{scope}.{op}`` at an op that writes no bytes, where a
        ``torn`` fault degenerates to ``EIO``: nothing became durable."""
        site = f"{self.scope}.{op}"
        spec = self.plan.trip(site)
        if spec is not None and spec.kind == "torn":
            raise OSError(errno.EIO, f"chaos: {op} lost at {site}")

    def open(self, path: str, mode: str = "rb") -> IO[Any]:
        self._trip("open")
        fh = open(path, mode)
        try:
            if any(flag in mode for flag in ("w", "a", "+", "x")):
                return _ChaosFile(fh, self.plan, self.scope)  # type: ignore[return-value]
            return fh
        except BaseException:
            # Ownership only transfers on successful return: anything
            # raised between open and return must not leak the handle.
            fh.close()
            raise

    def fsync(self, fd: int) -> None:
        self._trip("fsync")
        os.fsync(fd)

    def replace(self, src: str, dst: str) -> None:
        self._trip("replace")
        super().replace(src, dst)
