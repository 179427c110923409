"""Combined performance and verification reports over a logical structure.

Pulls the Section 4 metrics, the critical path, and the phase-pattern
summary into a single plain-text report — the "where do I look first"
artifact a developer would want from a trace.  Used by the CLI
(``repro analyze --report`` / ``repro report``) and the examples.

:func:`verification_report` is the machine-readable counterpart for
``repro verify``: trace-level and structure-level violations, per-stage
timings/merge counts, and the differential matrix, as one JSON-friendly
dict keyed by stable invariant names.

:func:`analysis_document` is the ``repro analyze --json`` / ``repro
serve`` result and :func:`render_document` its one wire rendering;
:func:`encode_json` is the exact ``json.dumps(obj, indent=1)`` encoder
behind it, which writes the per-event rows column by column.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.core.patterns import kind_sequence, repeating_unit
from repro.core.structure import LogicalStructure
from repro.metrics import (
    critical_path,
    differential_duration,
    idle_experienced,
    imbalance,
    sub_block_durations,
)
from repro.trace.model import Trace
from repro.trace.validate import Violation


def _fmt_entry(name: str) -> str:
    return name.split("::")[-1]


#: Rows per block of the column-wise list encoder: the encoded columns
#: of one block are alive at a time.
_BLOCK_ROWS = 4096

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_BOOL_TEXT = {True: "true", False: "false"}


def _encode_floats(column: list) -> list:
    text = list(map(float.__repr__, column))
    if not all(map(isfinite, column)):
        text = [_NONFINITE.get(t, t) for t in text]
    return text


#: Exact scalar type -> encoder of a column of that type, value by value
#: what ``json`` writes for it.
_COLUMN_ENCODERS = {
    int: lambda column: list(map(int.__repr__, column)),
    float: _encode_floats,
    str: lambda column: list(map(_encode_str, column)),
    bool: lambda column: list(map(_BOOL_TEXT.__getitem__, column)),
}


def _encode_rows(rows: list, depth: int) -> Optional[List[str]]:
    """Chunks of a list of flat same-key-order dicts, or None.

    The list qualifies when every row is a plain dict with the first
    row's ``str`` keys in the same order and, block by block, each
    column holds one exact scalar type of :data:`_COLUMN_ENCODERS`.
    Each column is then encoded in one pass and interleaved with
    precomputed key and indent separators.
    """
    keys = tuple(rows[0]) if type(rows[0]) is dict else ()
    if not keys or not all(type(k) is str for k in keys):
        return None
    row_indent = "\n" + " " * (depth + 1)
    key_indent = row_indent + " "
    template = []
    for j, key in enumerate(keys):
        lead = f",{row_indent}{{{key_indent}" if j == 0 else f",{key_indent}"
        template += [f"{lead}{_encode_str(key)}: ", None]
    template.append(row_indent + "}")
    width = len(template)
    chunks = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        if (set(map(type, block)) != {dict}
                or not all(map(keys.__eq__, map(tuple, block)))):
            return None
        columns = [list(map(itemgetter(key), block)) for key in keys]
        encoders = []
        for column in columns:
            types = set(map(type, column))
            if len(types) != 1 or types.pop() not in _COLUMN_ENCODERS:
                return None
            encoders.append(_COLUMN_ENCODERS[type(column[0])])
        parts = template * len(block)
        for j, (encoder, column) in enumerate(zip(encoders, columns)):
            parts[2 * j + 1::width] = encoder(column)
        chunks.append("".join(parts))
    chunks[0] = "[" + chunks[0][1:]
    chunks.append("\n" + " " * depth + "]")
    return chunks


def _iterencode(obj, depth: int, markers: set):
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        if id(obj) in markers:
            raise ValueError("Circular reference detected")
        markers.add(id(obj))
        indent = "\n" + " " * (depth + 1)
        lead = "{" + indent
        for key, value in obj.items():
            yield f"{lead}{_encode_str(key)}: "
            yield from _iterencode(value, depth + 1, markers)
            lead = "," + indent
        yield "\n" + " " * depth + "}"
        markers.discard(id(obj))
        return
    chunks = _encode_rows(obj, depth) if type(obj) is list and obj else None
    if chunks is not None:
        yield from chunks
        return
    # Anything else: json's own text, shifted to this nesting depth.
    # Exact because an encoded JSON string never holds a raw newline.
    text = json.dumps(obj, indent=1)
    yield text.replace("\n", "\n" + " " * depth) if depth else text


def encode_json(obj) -> str:
    """Exactly ``json.dumps(obj, indent=1)``, column by column where it can.

    A dict with ``str`` keys is written key by key; a list of flat rows
    sharing one key order whose columns are each all ``int``, all
    ``float``, all ``str`` or all ``bool`` (exact types, so a ``bool``
    never passes as an ``int``) is written column-wise in blocks of
    :data:`_BLOCK_ROWS` rows; every other value is handed to
    ``json.dumps`` itself.  Raises where ``json.dumps`` raises.
    Standard library only — the pure-Python ``indent`` encoder of
    ``json`` is what this replaces on the per-event rows.
    """
    return "".join(_iterencode(obj, 0, set()))


def render_document(doc: dict) -> str:
    """The canonical wire/disk rendering of an analysis document.

    Byte-identical to ``json.dumps(doc, indent=1) + "\\n"`` — what
    ``repro analyze --json`` prints and ``repro serve`` serves — so a
    ``curl`` of a job result diffs clean against the CLI.  The CLI, the
    service and :func:`repro.viz.structure_to_json` all encode through
    :func:`encode_json`.
    """
    return encode_json(doc) + "\n"


def analysis_document(structure: LogicalStructure, stats,
                      metrics: Optional[Dict[str, dict]] = None) -> dict:
    """The full machine-readable analysis of one extraction.

    The one place the ``repro analyze --json`` document is assembled, so
    every producer — the CLI, ``repro serve`` job workers — emits the
    identical structure for identical inputs (the service's artifacts
    are byte-for-byte what the CLI would have printed).  ``metrics``
    optionally attaches named per-event metric maps; ``stats`` is the
    :class:`~repro.core.pipeline.PipelineStats` of the run.

    Keys, in order: ``summary``, ``phases``, ``events`` (one row per
    stepped event, ordered by step, chare and event id, built from the
    trace's event columns by :func:`repro.viz.export.structure_to_rows`),
    ``backend``, ``stage_backends``, then ``repair`` and
    ``degradation`` when the run has them.  Every value is a plain
    ``dict``/``list``/``int``/``float``/``str``/``bool``/``None``, so
    the dict equals its own JSON round trip; :func:`render_document`
    writes it.

    The document is **bit-identical across runs** for the same trace
    and options: per-stage wall-clock ``seconds`` are stripped from the
    embedded degradation report (they are run telemetry, not result
    data — still available on :class:`PipelineStats` and in batch
    rows), because the document is what the service caches and serves
    by content key.
    """
    from repro.viz.export import structure_document

    doc = structure_document(structure, metrics or None)
    doc["backend"] = stats.backend
    doc["stage_backends"] = dict(stats.stage_backends)
    if stats.repair is not None:
        doc["repair"] = stats.repair
    if stats.degradation is not None:
        degradation = dict(stats.degradation)
        degradation["stages"] = [
            {k: v for k, v in outcome.items() if k != "seconds"}
            for outcome in degradation.get("stages", [])
        ]
        doc["degradation"] = degradation
    return doc


def performance_report(structure: LogicalStructure, top: int = 5) -> str:
    """Render a plain-text performance report for a structure."""
    trace = structure.trace
    lines: List[str] = []
    s = structure.summary()
    lines.append("== trace ==")
    lines.append(
        f"{len(trace.chares)} chares ({len(trace.runtime_chares())} runtime) "
        f"on {trace.num_pes} PEs; {len(trace.executions)} executions, "
        f"{len(trace.events)} dependency events, span {trace.end_time():.1f}"
    )

    lines.append("")
    lines.append("== logical structure ==")
    lines.append(
        f"{s['phases']} phases ({s['runtime_phases']} runtime), "
        f"{s['max_step'] + 1} logical steps, {s['leaps']} leaps"
    )
    lines.append(f"phase kinds: {kind_sequence(structure)}")
    unit = repeating_unit(structure, min_repeats=2)
    if unit:
        lines.append(f"repeating unit (x{unit[0]['repeats']}):")
        for entry in unit:
            sig = ", ".join(f"{_fmt_entry(n)}x{c}" for n, c in entry["signature"])
            lines.append(f"  [{entry['kind']:11s}] {sig}")

    durations = sub_block_durations(structure)
    total_busy = sum(durations.values())

    lines.append("")
    lines.append("== critical path ==")
    path = critical_path(structure)
    lines.append(
        f"length {path.length:.1f} ({100 * path.share_of(total_busy):.0f}% of "
        f"total busy time), {len(path.events)} events"
    )
    for entry, t in sorted(path.by_entry.items(), key=lambda kv: -kv[1])[:top]:
        lines.append(f"  {t:10.1f}  {_fmt_entry(entry)}")

    lines.append("")
    lines.append("== differential duration (slow vs same-step peers) ==")
    diff = differential_duration(structure)
    ranked = sorted(diff.by_event.items(), key=lambda kv: -kv[1])[:top]
    for ev, value in ranked:
        if value <= 0:
            break
        rec = trace.events[ev]
        lines.append(
            f"  +{value:9.1f}  {trace.chares[rec.chare].name} "
            f"step {structure.step_of_event[ev]}"
        )

    lines.append("")
    lines.append("== idle experienced ==")
    idle = idle_experienced(structure)
    lines.append(f"total {idle.total():.1f} across {len(idle.by_block)} blocks")
    worst_block = idle.max_block()
    if worst_block is not None:
        block = structure.blocks[worst_block]
        lines.append(
            f"  worst: {idle.by_block[worst_block]:.1f} on "
            f"{trace.chares[block.chare].name} (PE {block.pe})"
        )

    lines.append("")
    lines.append("== imbalance ==")
    imb = imbalance(structure)
    if imb.max_by_phase:
        worst = imb.worst_phase()
        lines.append(
            f"worst phase {worst}: spread {imb.max_by_phase[worst]:.1f} "
            f"between most- and least-loaded PEs"
        )
        loads = sorted(
            ((pe, v) for (p, pe), v in imb.by_phase_pe.items() if p == worst),
            key=lambda kv: -kv[1],
        )[:top]
        for pe, v in loads:
            lines.append(f"  PE {pe:3d}: +{v:.1f}")
    return "\n".join(lines)


def verification_report(
    trace: Trace,
    violations: Sequence[Violation],
    structure: Optional[LogicalStructure] = None,
    stages: Optional[Sequence] = None,
    differential: Optional[object] = None,
) -> Dict[str, object]:
    """Machine-readable verification result (``repro verify --json``).

    Parameters
    ----------
    trace:
        The trace that was verified.
    violations:
        Trace- and structure-level :class:`Violation` records (empty when
        everything holds).
    structure:
        The extracted structure, for the summary block (single-run mode).
    stages:
        :class:`repro.verify.stagehooks.StageRecord` rows from the
        instrumented run.
    differential:
        A :class:`repro.verify.differential.DifferentialReport` when the
        full variant matrix was run.
    """
    payload: Dict[str, object] = {
        "ok": not violations and (differential is None or differential.ok),
        "trace": {
            "chares": len(trace.chares),
            "executions": len(trace.executions),
            "events": len(trace.events),
            "messages": len(trace.messages),
            "pes": trace.num_pes,
        },
        "violations": [v.to_dict() for v in violations],
        "invariants_violated": sorted({v.invariant for v in violations}),
    }
    if structure is not None:
        payload["structure"] = structure.summary()
    if stages is not None:
        payload["stages"] = [r.to_dict() for r in stages]
    if differential is not None:
        payload["differential"] = differential.to_dict()
    return payload
