"""CLI smoke tests (in-process via repro.cli.main)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.trace import read_trace, write_trace
from repro.trace.clocksync import apply_clock_skew


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "t.jsonl"
    rc = main(["simulate", "jacobi2d", "--chares", "4x4", "--pes", "4",
               "--iterations", "2", "--seed", "1", "-o", str(path)])
    assert rc == 0
    return path


def test_simulate_writes_loadable_trace(trace_file):
    trace = read_trace(trace_file)
    assert trace.num_pes == 4
    assert len(trace.events) > 0


def test_simulate_each_app(tmp_path):
    for app, extra in [
        ("lulesh", ["--chares", "8", "--pes", "2"]),
        ("lulesh", ["--model", "mpi", "--ranks", "8"]),
        ("lassen", ["--chares", "8"]),
        ("pdes", ["--chares", "8", "--pes", "2"]),
        ("mergetree", ["--ranks", "16"]),
        ("nasbt", ["--ranks", "4"]),
    ]:
        out = tmp_path / f"{app}_{len(extra)}.jsonl"
        rc = main(["simulate", app, "--iterations", "2", "-o", str(out)] + extra)
        assert rc == 0
        assert read_trace(out).events


def test_validate_ok(trace_file, capsys):
    assert main(["validate", str(trace_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_catches_skew(trace_file, tmp_path, capsys):
    trace = read_trace(trace_file)
    skewed = apply_clock_skew(trace, [300.0, 0.0, 0.0, 0.0])
    bad = tmp_path / "bad.jsonl"
    write_trace(skewed, bad)
    assert main(["validate", str(bad)]) == 1


def test_analyze_summary_and_render(trace_file, capsys):
    assert main(["analyze", str(trace_file), "--render", "logical"]) == 0
    out = capsys.readouterr().out
    assert "phase kinds: arar" in out
    assert "Jacobi[0, 0]" in out


def test_analyze_json(trace_file, capsys):
    assert main(["analyze", str(trace_file), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["phases"] == 4


def test_analyze_json_writes_requested_exports(trace_file, tmp_path, capsys):
    from repro.core.pipeline import PipelineStats, extract_logical_structure
    from repro.metrics import differential_duration
    from repro.report import analysis_document, render_document
    from repro.trace import open_trace

    svg, csv, html = (tmp_path / "o.svg", tmp_path / "o.csv",
                      tmp_path / "o.html")
    rc = main(["analyze", str(trace_file), "--json", "--metric", "diffdur",
               "--csv", str(csv), "--svg", str(svg), "--html", str(html)])
    assert rc == 0
    out, err = capsys.readouterr()
    # stdout is exactly the document of the same run; notices go to stderr
    stats = PipelineStats()
    structure = extract_logical_structure(open_trace(trace_file).trace(),
                                          stats=stats)
    metric = {"diffdur": differential_duration(structure).by_event}
    assert out == render_document(analysis_document(structure, stats, metric))
    assert svg.read_text().startswith("<svg")
    assert "diffdur" in csv.read_text().splitlines()[0]
    assert html.read_text().startswith("<!DOCTYPE html>")
    for path in (svg, csv, html):
        assert f"wrote {path}" in err


def test_analyze_json_rejects_render(trace_file, capsys):
    rc = main(["analyze", str(trace_file), "--json", "--render", "logical"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--render" in err and "--json" in err


def test_analyze_metric_and_exports(trace_file, tmp_path, capsys):
    svg = tmp_path / "s.svg"
    csv = tmp_path / "e.csv"
    rc = main(["analyze", str(trace_file), "--metric", "diffdur",
               "--svg", str(svg), "--csv", str(csv)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    header = csv.read_text().splitlines()[0]
    assert "diffdur" in header


def test_analyze_no_infer_flag(trace_file, capsys):
    assert main(["analyze", str(trace_file), "--no-infer"]) == 0


def test_sync_roundtrip(trace_file, tmp_path, capsys):
    trace = read_trace(trace_file)
    skewed = apply_clock_skew(trace, [0.0, 200.0, 0.0, 100.0])
    bad = tmp_path / "bad.jsonl"
    write_trace(skewed, bad)
    fixed = tmp_path / "fixed.jsonl"
    assert main(["sync", str(bad), "-o", str(fixed)]) == 0
    assert main(["validate", str(fixed)]) == 0


def test_cli_profile(trace_file, capsys):
    assert main(["profile", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "entry method" in out and "util%" in out


def test_cli_cluster(trace_file, capsys):
    assert main(["cluster", str(trace_file), "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("cluster ") == 2


def test_cli_html_export(trace_file, tmp_path):
    html = tmp_path / "out.html"
    rc = main(["analyze", str(trace_file), "--metric", "imbalance",
               "--html", str(html)])
    assert rc == 0
    text = html.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "<svg" in text and "Performance report" in text


#: Every subcommand that reads a trace, with the arguments it needs after
#: the trace path (``diff`` reads two and gets the bad one second).
TRACE_COMMANDS = {
    "analyze": [], "profile": [], "cluster": [], "report": [], "diff": [],
    "validate": [], "verify": [], "faults": ["--kind", "drop_messages"],
    "sync": ["-o", "synced.jsonl"],
}


@pytest.mark.parametrize("damage", ["missing", "malformed", "not_utf8"])
@pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
def test_unreadable_trace_is_a_usage_error(command, damage, trace_file,
                                           tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    if damage == "malformed":
        bad.write_text("garbage\n")
    elif damage == "not_utf8":  # a chare name holding a stray 0xff byte
        bad.write_bytes(trace_file.read_bytes().replace(
            b'"name": "Jacobi', b'"name": "\xffJacobi', 1))
    paths = [str(trace_file), str(bad)] if command == "diff" else [str(bad)]
    extra = [str(tmp_path / a) if a.endswith(".jsonl") else a
             for a in TRACE_COMMANDS[command]]
    assert main([command] + paths + extra) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(bad) in err and "Traceback" not in err


def test_unreadable_trace_exits_2_without_traceback(tmp_path):
    missing = tmp_path / "missing.jsonl"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    proc = subprocess.run([sys.executable, "-m", "repro", "analyze",
                           str(missing)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == (f"repro analyze: cannot read trace {missing}: "
                           "No such file or directory\n")
