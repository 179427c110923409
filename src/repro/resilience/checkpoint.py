"""Atomic between-stage checkpoints and the context snapshots they hold.

A checkpoint is one file per (trace, options) pair under the caller's
``checkpoint_dir``, rewritten after every completed stage and replaced
atomically (:func:`repro.chaos.fs.atomic_write`: temp file + fsync +
``os.replace``), so a killed run leaves either the previous complete
snapshot or the new one — never a torn file.  Corrupt, unreadable,
version-skewed, or key-mismatched files are treated as "no checkpoint"
and the run starts from scratch.

File format (``<key>.ckpt``): a pickle of the header::

    {
        "version": 3,
        "key": <sha256 of trace digest + result-affecting options>,
        "completed": [stage names, in execution order],
        "outcomes": [StageOutcome dicts for the completed stages],
    }

followed by the context snapshot (:func:`dump_snapshot`): the pipeline
context — partition state, phases, arrays, ... — pickled in one dump,
with each of the run's *inputs* stored as a named reference instead of
a copy.  The inputs are the trace and the options object the run was
given; the key already pins the trace by digest and the result-affecting
options by token, so a resumed run binds the references to its own,
content-equal inputs (:func:`load_snapshot`).  A trace the run derived
(a ``repair="fix"`` result) is not an input and is stored by value.

``completed``/``outcomes`` list only successfully completed (ok or
fallback) stages — the executor never checkpoints a skipped stage — and
outcome dicts carry their original status plus a ``resumed`` flag.
Files of earlier versions (version 2 copied the whole trace into every
snapshot) are discarded like any other version skew.

One dump keeps object identity within the snapshot (the trace shared by
the partition state and the block table), so a resumed run is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import io
import pickle
from pathlib import Path
from typing import IO, Any, List, Mapping, Optional, Tuple, Union

from repro.chaos.fs import atomic_write

CHECKPOINT_VERSION = 3
CHECKPOINT_SUFFIX = ".ckpt"

#: Run inputs by name (``{"trace": ..., "options": ...}``).
Inputs = Mapping[str, object]


def _run_input(name: str) -> object:
    """Stand-in a snapshot stores for a run input; only the snapshot
    unpickler resolves it, to the current run's object."""
    raise pickle.UnpicklingError(f"unbound run input {name!r}")


class _SnapshotPickler(pickle.Pickler):
    """Pickles a context, storing each run input as a named reference.

    Inputs are recognized by identity: the caller holds them for the
    whole run, so their ids cannot be reused.  ``reducer_override`` is
    not consulted for exact ``int``/``float``/``str``/``list``/``dict``/
    ``set``/``tuple`` instances, which keeps it off the hot path (and
    means an input cannot be one of those types).
    """

    def __init__(self, file: IO[bytes], inputs: Inputs) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._names = {id(obj): name for name, obj in inputs.items()}

    def reducer_override(self, obj: Any) -> Any:
        name = self._names.get(id(obj))
        if name is None:
            return NotImplemented
        return _run_input, (name,)


class _SnapshotUnpickler(pickle.Unpickler):
    """Binds each input reference to the current run's object (None
    when the caller binds no object under that name)."""

    def __init__(self, file: IO[bytes], inputs: Optional[Inputs]) -> None:
        super().__init__(file)
        self._inputs = dict(inputs or {})

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_run_input":
            return self._inputs.get
        return super().find_class(module, name)


def dump_snapshot(ctx: dict, inputs: Inputs) -> bytes:
    """Pickle ``ctx`` in one dump, referencing (not copying) ``inputs``."""
    buf = io.BytesIO()
    _SnapshotPickler(buf, inputs).dump(ctx)
    return buf.getvalue()


def load_snapshot(data: Union[bytes, IO[bytes]],
                  inputs: Optional[Inputs]) -> dict:
    """Inverse of :func:`dump_snapshot`, binding the references to
    ``inputs``; ``data`` is the snapshot bytes or a file positioned at
    them."""
    file = io.BytesIO(data) if isinstance(data, bytes) else data
    return _SnapshotUnpickler(file, inputs).load()


def checkpoint_key(trace_digest: str, options_token: str) -> str:
    """Stable key naming one (trace, result-affecting options) pair."""
    return hashlib.sha256(
        (trace_digest + "\n" + options_token).encode()
    ).hexdigest()


def checkpoint_path(directory: Union[str, Path], key: str) -> Path:
    """Path of the checkpoint file for ``key`` under ``directory``."""
    return Path(directory) / f"{key}{CHECKPOINT_SUFFIX}"


def save_checkpoint(directory: Union[str, Path], key: str,
                    completed: List[str], outcomes: List[dict],
                    ctx_pickle: bytes) -> Path:
    """Atomically write the checkpoint for ``key``; returns its path.

    ``ctx_pickle`` is the context snapshot from :func:`dump_snapshot`
    (the executor takes it anyway for fallback restore, so no double
    serialization).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, key)
    header = {
        "version": CHECKPOINT_VERSION,
        "key": key,
        "completed": list(completed),
        "outcomes": list(outcomes),
    }
    atomic_write(path, (pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL),
                        ctx_pickle))
    return path


def load_checkpoint(
    directory: Union[str, Path], key: str, inputs: Optional[Inputs] = None,
) -> Optional[Tuple[List[str], List[dict], dict]]:
    """Load the checkpoint for ``key``; None when absent or unusable.

    Returns ``(completed stage names, outcome dicts, restored ctx)``.
    The context's input references bind to ``inputs`` (the resuming
    run's trace and options); without them they read as None, which is
    enough to inspect the header.  Any defect — missing file,
    truncation, pickle corruption, version or key mismatch — reads as
    "no checkpoint"; resumability must never turn into a new failure
    mode.
    """
    path = checkpoint_path(directory, key)
    try:
        with open(path, "rb") as fh:
            header = pickle.load(fh)
            if (not isinstance(header, dict)
                    or header.get("version") != CHECKPOINT_VERSION
                    or header.get("key") != key):
                return None
            ctx = load_snapshot(fh, inputs)
        if not isinstance(ctx, dict):
            return None
        return list(header["completed"]), list(header["outcomes"]), ctx
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, KeyError, ValueError):
        return None


def discard_checkpoint(directory: Union[str, Path], key: str) -> bool:
    """Remove the checkpoint for ``key``; True if one existed."""
    path = checkpoint_path(directory, key)
    try:
        path.unlink()
        return True
    except OSError:
        return False
