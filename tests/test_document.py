"""The analysis document's byte contract.

``analysis_document`` builds the ``repro analyze --json`` / ``repro
serve`` document straight from the trace's event columns, and
``render_document`` writes it through ``encode_json``, which encodes
the per-event rows column by column.  Both must agree with the
per-event oracle in ``tests/helpers.py`` — dict for dict and byte for
byte — and ``encode_json`` must be exactly ``json.dumps(obj, indent=1)``
on any value ``json.dumps`` accepts, raising where it raises.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import report
from repro.apps import (
    btsweep,
    jacobi2d,
    lassen,
    lulesh,
    mergetree,
    multigrid,
    nasbt,
    pdes,
    sssp,
)
from repro.core.pipeline import (
    PipelineOptions,
    PipelineStats,
    extract_logical_structure,
)
from repro.report import analysis_document, encode_json, render_document
from repro.trace import read_trace, write_trace
from repro.trace.columns import (
    ColumnarTrace,
    EventList,
    ExecutionList,
    IdleList,
    MessageList,
)
from repro.trace.events import NO_ID, DepEvent
from repro.trace.faults import FAULT_KINDS, inject_fault
from repro.trace.model import Trace
from repro.trace.source import open_trace
from repro.viz import write_csv
from tests.helpers import SyntheticTrace, reference_document, reference_rows

pytestmark = pytest.mark.document

APPS = {
    "jacobi2d": lambda: jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=7),
    "lulesh": lambda: lulesh.run_charm(chares=8, pes=4, iterations=2, seed=3),
    "lassen": lambda: lassen.run_charm(chares=8, pes=4, iterations=3, seed=1),
    "pdes": lambda: pdes.run(chares=8, pes=4, seed=5),
    "mergetree": lambda: mergetree.run(ranks=8, seed=2),
    "nasbt": lambda: nasbt.run(ranks=9, iterations=2, seed=4),
    "btsweep": lambda: btsweep.run(tiles=(3, 3), pes=4, iterations=2, seed=6),
    "multigrid": lambda: multigrid.run(fine=(8, 8), pes=4, cycles=2, seed=8),
    "sssp": lambda: sssp.run(nodes=40, edges=120, parts=8, pes=4, seed=9)[0],
}


@pytest.fixture(scope="module")
def app_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("document-apps")
    paths = {}
    for name, run in APPS.items():
        paths[name] = root / f"{name}.jsonl"
        write_trace(run(), paths[name])
    return paths


def csv_text(rows) -> str:
    """What ``write_csv`` writes for ``rows``, through ``csv.DictWriter``."""
    if not rows:
        return ""
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def assert_matches_oracle(structure, stats, tmp_path, metrics=None):
    doc = analysis_document(structure, stats, metrics)
    reference = reference_document(structure, stats, metrics)
    assert doc == reference
    assert render_document(doc) == json.dumps(reference, indent=1) + "\n"
    out = tmp_path / "rows.csv"
    write_csv(structure, out, metrics)
    with open(out, newline="", encoding="utf-8") as fh:
        assert fh.read() == csv_text(reference_rows(structure, metrics))


@pytest.mark.parametrize("order", ["reordered", "physical"])
@pytest.mark.parametrize("ingest", ["chunked", "eager"])
@pytest.mark.parametrize("backend", ["python", "columnar"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_document_matches_oracle(app, backend, ingest, order, app_files,
                                 tmp_path):
    trace = (read_trace(app_files[app]) if ingest == "eager"
             else open_trace(app_files[app]).trace())
    assert isinstance(trace, ColumnarTrace) == (ingest == "chunked")
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(backend=backend, order=order), stats=stats)
    assert_matches_oracle(structure, stats, tmp_path)


@pytest.mark.parametrize("metric", ["diffdur", "idle", "imbalance",
                                    "lateness"])
def test_document_with_metric_matches_oracle(metric, app_files, tmp_path):
    from repro import metrics as m

    trace = open_trace(app_files["jacobi2d"]).trace()
    stats = PipelineStats()
    structure = extract_logical_structure(trace, PipelineOptions(),
                                          stats=stats)
    values = {
        "diffdur": lambda: m.differential_duration(structure).by_event,
        "idle": lambda: m.idle_experienced(structure).by_event,
        "imbalance": lambda: m.imbalance(structure).by_event,
        "lateness": lambda: m.lateness(structure),
    }[metric]()
    assert_matches_oracle(structure, stats, tmp_path, {metric: values})


@pytest.mark.parametrize("backend", ["python", "columnar"])
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_document_on_fault_corpus_matches_oracle(kind, backend, tmp_path):
    trace = inject_fault(APPS["jacobi2d"](), kind, seed=11)
    stats = PipelineStats()
    structure = extract_logical_structure(
        trace, PipelineOptions(backend=backend, repair="fix"), stats=stats)
    assert stats.repair is not None
    assert_matches_oracle(structure, stats, tmp_path)


@pytest.mark.parametrize("dead", [("reordered_order_task",),
                                  ("reordered_order_task", "physical_order")])
def test_degraded_document_matches_oracle(dead, monkeypatch, tmp_path):
    from repro.core import pipeline as pl

    def boom(*a, **k):
        raise RuntimeError("ordering fault injection")

    for name in dead:
        monkeypatch.setattr(pl, name, boom)
    stats = PipelineStats()
    structure = extract_logical_structure(
        APPS["jacobi2d"](),
        PipelineOptions(backend="python", on_error="degrade"), stats=stats)
    assert stats.degradation["degraded"]
    assert_matches_oracle(structure, stats, tmp_path)


@pytest.mark.parametrize("ingest", ["chunked", "eager"])
def test_untraced_events_get_an_empty_entry(ingest, tmp_path):
    """A stepped event outside any execution has ``entry == ""``.

    The pipeline never steps such an event, so the placement of a clean
    run is re-pointed at a copy of its trace with every fifth event
    detached from its execution.
    """
    structure = extract_logical_structure(APPS["jacobi2d"]())
    base = structure.trace
    events = [DepEvent(e.id, e.kind, e.chare, e.pe, e.time,
                       NO_ID if e.id % 5 == 0 else e.execution)
              for e in base.events]
    path = tmp_path / "untraced.jsonl"
    write_trace(Trace(chares=base.chares, entries=base.entries,
                      arrays=base.arrays, executions=base.executions,
                      events=events, messages=base.messages,
                      idles=base.idles, num_pes=base.num_pes,
                      metadata=base.metadata), path)
    structure.trace = (read_trace(path) if ingest == "eager"
                       else open_trace(path).trace())
    assert "" in {row["entry"] for row in reference_rows(structure)}
    assert_matches_oracle(structure, PipelineStats(), tmp_path)


def test_integer_timestamps_render_alike_on_both_ingests(tmp_path):
    """Times come from the float64 event column on either ingest path,
    so a trace written with integer timestamps renders the same."""
    tr = SyntheticTrace(num_pes=2)
    a, b = tr.chare("A", pe=0), tr.chare("B", pe=1)
    tr.block(a, "go", 0, 0, 10, [("send", "m", 5)])
    tr.block(b, "got", 1, 12, 20, [("recv", "m", 12)])
    path = tmp_path / "int-times.jsonl"
    write_trace(tr.build(), path)
    texts = set()
    for ingest in ("chunked", "eager"):
        stats = PipelineStats()
        structure = extract_logical_structure(
            read_trace(path) if ingest == "eager"
            else open_trace(path).trace(), stats=stats)
        doc = analysis_document(structure, stats)
        assert [row["time"] for row in doc["events"]] == [5.0, 12.0]
        assert all(type(row["time"]) is float for row in doc["events"])
        texts.add(render_document(doc))
    assert len(texts) == 1


@pytest.mark.parametrize("app", sorted(APPS))
def test_document_layer_builds_no_event_records(app, app_files, tmp_path,
                                                monkeypatch):
    """Extract + document + CSV of a chunk-ingested trace, with default
    options, read every record field from the columns: no lazy list
    builds a record.  (``repair`` detection, off by default, still reads
    records.)"""
    trace = open_trace(app_files[app]).trace()
    made = []
    for cls in (EventList, ExecutionList, MessageList, IdleList):
        def counted(self, i, _make=cls._make, _cls=cls.__name__):
            made.append((_cls, i))
            return _make(self, i)

        monkeypatch.setattr(cls, "_make", counted)
    stats = PipelineStats()
    structure = extract_logical_structure(trace, PipelineOptions(),
                                          stats=stats)
    render_document(analysis_document(structure, stats))
    write_csv(structure, tmp_path / "rows.csv")
    assert made == []


@pytest.mark.parametrize("app", sorted(APPS))
def test_hardened_extract_builds_no_records(app, app_files, tmp_path,
                                            monkeypatch):
    """The hardened pass of a chunk-ingested trace — defect detection
    (``repair="warn"``), fallback snapshots and checkpoints — reads
    columns too: no lazy list builds a record."""
    trace = open_trace(app_files[app]).trace()
    made = []
    for cls in (EventList, ExecutionList, MessageList, IdleList):
        def counted(self, i, _make=cls._make, _cls=cls.__name__):
            made.append((_cls, i))
            return _make(self, i)

        monkeypatch.setattr(cls, "_make", counted)
    structure = extract_logical_structure(trace, PipelineOptions(
        repair="warn", on_error="fallback",
        checkpoint_dir=str(tmp_path / "ckpt")))
    assert made == []
    assert structure.trace is trace


# ----------------------------------------------------------------------
# encode_json is exactly json.dumps(obj, indent=1)
# ----------------------------------------------------------------------
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324,
                  1e-7, 123456789.123]
SPECIAL_TEXT = ['"', "\\", "\x00\x1f\n\t\r", "café", " ",
                "\U0001f600", "\ud800", ""]

ints = st.one_of(st.integers(), st.integers(min_value=-(10 ** 60),
                                             max_value=10 ** 60))
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
texts = st.one_of(st.text(max_size=8), st.sampled_from(SPECIAL_TEXT))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(),
                 st.none())
#: Column value strategies: the exact-type ones the column path takes,
#: plus mixes that must send a row list to the fallback.
COLUMNS = [ints, floats, texts, st.booleans(), scalars,
           st.one_of(st.integers(), st.booleans()),
           st.one_of(st.integers(), st.floats())]


@st.composite
def row_lists(draw, values=scalars):
    """Lists of flat rows sharing one key order, sometimes perturbed."""
    names = draw(st.lists(texts, max_size=4, unique=True))
    columns = [draw(st.sampled_from(COLUMNS + [values])) for _ in names]
    rows = [{k: draw(c) for k, c in zip(names, columns)}
            for _ in range(draw(st.integers(0, 10)))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(["reorder", "drop", "extra"]))
        if change == "reorder":
            items = list(row.items())
            row.clear()
            row.update(reversed(items))
        elif change == "drop" and row:
            del row[next(iter(row))]
        else:
            row[draw(keys)] = draw(scalars)
    return rows


json_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(texts, children, max_size=4),
        row_lists(children),
    ),
    max_leaves=40,
)


@pytest.mark.parametrize("block_rows", [2, report._BLOCK_ROWS])
@settings(max_examples=300, deadline=None)
@given(tree=json_trees)
@example(tree=[{"a": 1}, {"a": 2}, {"a": 1.5}, {"a": "x"}, {"a": False}])
@example(tree={"k": {"rows": [{"a": 1, "b": "x"}] * 5}})
def test_encode_json_is_json_dumps(tree, block_rows):
    with mock.patch.object(report, "_BLOCK_ROWS", block_rows):
        assert encode_json(tree) == json.dumps(tree, indent=1)


class Kind(enum.IntEnum):
    SEND = 0


class Name(str):
    pass


#: Row lists the column-wise path must hand to ``json.dumps`` whole.
FALLBACK_ROWS = {
    "empty row": [{}],
    "non-dict row": [{"a": 1}, [1]],
    "dict subclass row": [{"a": 1}, OrderedDict(a=2)],
    "reordered keys": [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
    "missing key": [{"a": 1, "b": 2}, {"a": 3}],
    "extra key": [{"a": 1}, {"a": 2, "b": 3}],
    "non-str key": [{1: 2}, {1: 3}],
    "str-subclass key": [{Name("a"): 1}],
    "bool in int column": [{"a": 1}, {"a": True}],
    "int in bool column": [{"a": False}, {"a": 0}],
    "int in float column": [{"a": 1.5}, {"a": 2}],
    "None column": [{"a": None}],
    "nested column": [{"a": [1, {"b": 2}]}],
    "np.float64 column": [{"a": np.float64(0.1)}],
    "IntEnum column": [{"a": Kind.SEND}],
    "str-subclass column": [{"a": Name("x\n")}],
}


@pytest.mark.parametrize("label", sorted(FALLBACK_ROWS))
def test_fallback_triggers(label):
    rows = FALLBACK_ROWS[label]
    assert report._encode_rows(rows, 0) is None
    for tree in (rows, {"rows": rows}, [rows]):
        assert encode_json(tree) == json.dumps(tree, indent=1)


def test_qualifying_rows_take_the_column_path():
    rows = [{"i": 1, "f": math.nan, "s": "é", "b": True},
            {"i": -2, "f": -math.inf, "s": '"', "b": False}]
    assert report._encode_rows(rows, 0) is not None
    assert encode_json({"events": rows}) == json.dumps({"events": rows},
                                                       indent=1)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, object(), b"x"])
def test_unencodable_values_raise_typeerror(bad):
    for tree in (bad, {"a": bad}, [{"a": 1}, {"a": bad}], {"r": [{"a": bad}]}):
        with pytest.raises(TypeError):
            json.dumps(tree, indent=1)
        with pytest.raises(TypeError):
            encode_json(tree)


def test_digit_limit_raises_like_json():
    huge = 10 ** 5000
    for tree in ([{"a": huge}], {"r": [{"a": 1}, {"a": huge}]}):
        with pytest.raises(ValueError):
            json.dumps(tree, indent=1)
        with pytest.raises(ValueError):
            encode_json(tree)


def test_circular_reference_raises_like_json():
    loop = {"a": {}}
    loop["a"]["b"] = loop
    via_list = {"rows": []}
    via_list["rows"].append(via_list)
    for tree in (loop, via_list):
        with pytest.raises(ValueError, match="Circular reference"):
            json.dumps(tree, indent=1)
        with pytest.raises(ValueError, match="Circular reference"):
            encode_json(tree)
