"""Crash-safe batch run journal: append-only, fsync'd, torn-tail tolerant.

``repro batch`` over a large corpus can die at any moment — a host
reboot, an OOM kill, a ``kill -9`` of the scheduler itself.  The journal
makes that survivable: every finished trace appends one JSON line
(flushed and fsync'd before the scheduler moves on), so on restart
``repro batch --resume <journal>`` knows exactly which traces completed
and re-runs only the pending or failed ones.

File format — one JSON object per line:

* ``{"kind": "meta", "version": 1, "options": <options token>}`` —
  written when the journal is opened for a run; repeated meta lines
  (one per resumed run) are fine, but their options token must match.
* ``{"kind": "done", "source", "digest", "summary", "seconds",
  "attempts", "timed_out"}`` — a trace extracted successfully.
* ``{"kind": "fail", "source", "digest", "error", "attempts",
  "timed_out"}`` — a trace that exhausted its retries.

A process killed mid-append leaves at most one torn final line; the
loader ignores an undecodable tail (and counts, but tolerates, any
undecodable interior line), and a resumed run terminates the torn
fragment before appending so its own entries stay parseable.  Because a "done" line is only written
*after* its trace's summary is complete, and resume skips exactly the
digests with "done" lines, a trace is never extracted twice and never
lost, no matter where the kill landed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.chaos.fs import REAL_FS, FsOps

JOURNAL_VERSION = 1


@dataclass
class JournalState:
    """Parsed contents of a journal file."""

    #: digest -> the latest "done" entry for that trace.
    done: Dict[str, dict] = field(default_factory=dict)
    #: digest -> the latest "fail" entry (superseded by a later "done").
    failed: Dict[str, dict] = field(default_factory=dict)
    #: Options token from the meta line(s), None when no meta survived.
    options: Optional[str] = None
    #: Total well-formed entry lines read.
    entries: int = 0
    #: Undecodable lines skipped (1 for a torn tail is normal).
    corrupt_lines: int = 0

    def is_done(self, digest: str) -> bool:
        return digest in self.done


class JournalLines:
    """The JSON-object lines of a journal file, in order: the one
    torn-tail reader behind :func:`read_journal` and
    :func:`repro.serve.jobs.read_job_ledger`.  Blank lines are ignored;
    any other line (a torn tail after ``kill -9``, interior corruption)
    is counted in :attr:`skipped`.  A missing file yields nothing.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.skipped = 0

    def __iter__(self) -> Iterator[dict]:
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                entry = None
            if isinstance(entry, dict):
                yield entry
            else:
                self.skipped += 1


def read_journal(path: Union[str, Path]) -> JournalState:
    """Parse a journal, tolerating a torn final line (kill -9 mid-write).

    A missing file reads as an empty journal: resuming from a journal
    that was never created simply runs everything.
    """
    state = JournalState()
    lines = JournalLines(path)
    for entry in lines:
        state.entries += 1
        kind = entry.get("kind")
        digest = entry.get("digest", "")
        if kind == "meta":
            state.options = entry.get("options")
        elif kind == "done" and digest:
            state.done[digest] = entry
            state.failed.pop(digest, None)
        elif kind == "fail" and digest:
            state.failed[digest] = entry
    state.corrupt_lines = lines.skipped
    return state


class JournalWriter:
    """Append-only fsync'd JSONL writer with torn-tail repair.

    The durability core shared by :class:`RunJournal` (batch runs) and
    the ``repro serve`` job ledger (:class:`repro.serve.jobs.JobLedger`):
    every :meth:`record` call appends exactly one JSON line and is
    flushed + fsync'd before returning, so a reader after ``kill -9``
    sees every completed append and at most one torn final line.
    Opening with ``append=True`` keeps the existing file and terminates
    a torn tail (so the next line starts cleanly); otherwise the file is
    truncated.

    ``fs`` is the filesystem ops seam (:class:`repro.chaos.fs.FsOps`);
    the default delegates straight to the stdlib, a chaos fs injects
    scheduled faults so the durability story is provable under test.
    """

    def __init__(self, path: Union[str, Path], append: bool = False,
                 fs: Optional[FsOps] = None) -> None:
        self.path = Path(path)
        self.fs = fs if fs is not None else REAL_FS
        self.path.parent.mkdir(parents=True, exist_ok=True)
        torn_tail = False
        if append:
            try:
                with open(self.path, "rb") as fh:
                    fh.seek(0, os.SEEK_END)
                    if fh.tell() > 0:
                        fh.seek(-1, os.SEEK_END)
                        torn_tail = fh.read(1) != b"\n"
            except OSError:
                pass  # no existing file: nothing to terminate
        self._fh = self.fs.open(str(self.path), "ab" if append else "wb")
        if torn_tail:
            # A kill -9 mid-append left an unterminated final line;
            # terminate it so the next entry starts on its own line
            # instead of concatenating into one unparseable fragment.
            self._fh.write(b"\n")

    def record(self, kind: str, **fields: object) -> None:
        """Append one entry; durable (flushed + fsync'd) before returning."""
        entry = {"kind": kind, **fields}
        data = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
        self._fh.write(data)
        self._fh.flush()
        self.fs.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RunJournal:
    """Append-only writer for one batch run's journal.

    Opening with ``resume=True`` keeps the existing file and returns its
    parsed state (raising ``ValueError`` if it was written under a
    different options token — resuming under different extraction
    options would silently mix incompatible results).  Without
    ``resume``, an existing file is truncated and the run starts a fresh
    journal.
    """

    def __init__(self, path: Union[str, Path], options_token: str = "",
                 resume: bool = False, fs: Optional[FsOps] = None) -> None:
        self.path = Path(path)
        self.options_token = options_token
        self.state = read_journal(self.path) if resume else JournalState()
        if (resume and self.state.options is not None and options_token
                and self.state.options != options_token):
            raise ValueError(
                f"journal {self.path} was written under different pipeline "
                f"options; resuming it with these options would mix "
                f"incompatible results (use a fresh journal, or rerun with "
                f"the original options)"
            )
        self._writer = JournalWriter(self.path, append=resume, fs=fs)
        self.record("meta", version=JOURNAL_VERSION, options=options_token)

    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: object) -> None:
        """Append one entry; durable (flushed + fsync'd) before returning."""
        self._writer.record(kind, **fields)

    def record_done(self, source: str, digest: str, summary: dict,
                    seconds: float = 0.0, attempts: int = 1,
                    timed_out: bool = False) -> None:
        self.record("done", source=source, digest=digest, summary=summary,
                    seconds=seconds, attempts=attempts, timed_out=timed_out)

    def record_fail(self, source: str, digest: str, error: str,
                    attempts: int = 1, timed_out: bool = False) -> None:
        self.record("fail", source=source, digest=digest, error=error,
                    attempts=attempts, timed_out=timed_out)

    def is_done(self, digest: str) -> bool:
        return self.state.is_done(digest)

    def done_entry(self, digest: str) -> Optional[dict]:
        return self.state.done.get(digest)

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
