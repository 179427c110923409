"""Structured exports of logical structures for external tooling."""

from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.structure import LogicalStructure
from repro.report import encode_json
from repro.trace.columns import TraceColumns
from repro.trace.events import EventKind


def _per_value(values: np.ndarray, lookup) -> np.ndarray:
    """``lookup(v)`` for each of ``values``, called once per distinct v."""
    distinct, inverse = np.unique(values, return_inverse=True)
    table = np.empty(len(distinct), dtype=object)
    table[:] = [lookup(v) for v in distinct.tolist()]
    return table[inverse]


def structure_to_rows(
    structure: LogicalStructure,
    metrics: Optional[Dict[str, Mapping[int, float]]] = None,
) -> List[Dict[str, object]]:
    """One row per stepped event: identity, placement, optional metrics.

    Rows are ordered by (step, chare, event id).  They are built from
    the trace's :class:`~repro.trace.columns.TraceColumns`, never from
    per-event records; names and flags are looked up once per distinct
    kind, chare and entry, and every value is a plain
    ``int``/``float``/``str``/``bool``.  Each metric adds a column
    ``mapping.get(event, 0.0)``.
    """
    trace = structure.trace
    cols = TraceColumns.of(trace)
    steps = np.asarray(structure.step_of_event, dtype=np.int64)
    ev = np.flatnonzero(steps >= 0)
    ev = ev[np.lexsort((ev, cols.ev_chare[ev], steps[ev]))]
    chare = cols.ev_chare[ev]
    execution = cols.ev_exec[ev]
    traced = execution >= 0
    entry = np.full(len(ev), "", dtype=object)
    if traced.any():
        entry[traced] = _per_value(cols.ex_entry[execution[traced]],
                                   lambda e: trace.entry(e).name)
    chares = _per_value(chare, lambda c: trace.chares[c]).tolist()
    columns = {
        "event": ev.tolist(),
        "kind": _per_value(cols.ev_kind[ev],
                           lambda k: EventKind(k).name).tolist(),
        "chare": chare.tolist(),
        "chare_name": [c.name for c in chares],
        "is_runtime": [c.is_runtime for c in chares],
        "pe": cols.ev_pe[ev].tolist(),
        "time": cols.ev_time[ev].tolist(),
        "entry": entry.tolist(),
        "phase": np.asarray(structure.phase_of_event, np.int64)[ev].tolist(),
        "step": steps[ev].tolist(),
        "local_step": np.asarray(structure.local_step_of_event,
                                 np.int64)[ev].tolist(),
    }
    for name, mapping in (metrics or {}).items():
        columns[name] = list(map(mapping.get, columns["event"], repeat(0.0)))
    keys = tuple(columns)
    return [dict(zip(keys, values)) for values in zip(*columns.values())]


def structure_document(
    structure: LogicalStructure,
    metrics: Optional[Dict[str, Mapping[int, float]]] = None,
) -> Dict[str, object]:
    """Summary, phase DAG and per-event placement rows, as one dict."""
    return {
        "summary": structure.summary(),
        "phases": [
            {
                "id": p.id,
                "leap": p.leap,
                "is_runtime": p.is_runtime,
                "offset": p.offset,
                "max_local_step": p.max_local_step,
                "events": len(p.events),
                "chares": sorted(p.chares),
                "preds": sorted(p.preds),
                "succs": sorted(p.succs),
            }
            for p in structure.phases
        ],
        "events": structure_to_rows(structure, metrics),
    }


def structure_to_json(
    structure: LogicalStructure,
    metrics: Optional[Dict[str, Mapping[int, float]]] = None,
) -> str:
    """JSON document: summary, phase DAG, and per-event placement rows."""
    return encode_json(structure_document(structure, metrics))


def write_csv(
    structure: LogicalStructure,
    path: Union[str, Path],
    metrics: Optional[Dict[str, Mapping[int, float]]] = None,
) -> None:
    """Write the per-event rows as CSV."""
    rows = structure_to_rows(structure, metrics)
    if not rows:
        Path(path).write_text("")
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
