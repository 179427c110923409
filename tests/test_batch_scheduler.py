"""The batch scheduler's long-lived workers: reuse, replacement, cleanup.

``BatchExtractor`` with ``jobs > 1`` (or a ``timeout``) forks up to
``jobs`` worker processes per run and feeds them attempt indexes one at
a time.  The job body here, passed as ``worker=``, reports the pid of
the process that ran it, so a row says which worker ran its trace.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.api import (
    BatchExtractor,
    PipelineOptions,
    StructureCache,
    trace_digest,
    write_trace,
)
from repro.apps import jacobi2d, pdes
from repro.resilience.journal import RunJournal

pytestmark = pytest.mark.batch


def pid_worker(source, option_fields):
    """Stand-in job body: a short attempt that reports its process, or a
    crash or hang when the source says so."""
    if source == "crash":
        os._exit(13)
    if source == "hang":
        time.sleep(30.0)
    time.sleep(0.02)  # long enough that both slots stay busy
    return True, {"pid": os.getpid(), "source": str(source)}, "", 0.0


def pids(report):
    return {r.summary["pid"] for r in report.results if r.ok}


def campaign(n, at=None, kind=None):
    """``n`` stand-in sources; the one ``at`` index is ``kind``."""
    sources = [f"t{i}" for i in range(n)]
    if at is not None:
        sources[at] = kind
    return sources


def test_campaign_runs_in_jobs_worker_processes():
    report = BatchExtractor(jobs=2, worker=pid_worker).run(campaign(8))
    assert report.ok
    assert [r.summary["source"] for r in report.results] == campaign(8)
    assert len(pids(report)) == 2
    assert os.getpid() not in pids(report)
    assert multiprocessing.active_children() == []


def test_fewer_traces_than_jobs_start_one_worker_each():
    report = BatchExtractor(jobs=4, worker=pid_worker).run(campaign(2))
    assert report.ok and len(pids(report)) == 2
    one = BatchExtractor(jobs=2, timeout=30.0,
                         worker=pid_worker).run(campaign(1))
    assert one.ok and len(pids(one)) == 1


def test_crash_fails_only_its_trace_and_the_rest_finish_on_a_replacement():
    sources = campaign(8, 3, "crash")
    report = BatchExtractor(jobs=2, worker=pid_worker).run(sources)
    failed = report.failures
    assert [r.source for r in failed] == ["crash"]
    assert failed[0].attempts == 1 and not failed[0].timed_out
    assert failed[0].error.startswith("WorkerCrash") and "13" in failed[0].error
    assert all(r.ok for i, r in enumerate(report.results) if i != 3)
    # The crashed worker ran a trace before item 3, and a third worker
    # took over after it died.
    assert len(pids(report)) == 3
    assert multiprocessing.active_children() == []


def test_crash_with_retries_charges_each_attempt():
    report = BatchExtractor(jobs=2, worker=pid_worker, retries=2,
                            backoff=0.01).run(campaign(4, 1, "crash"))
    assert [r.attempts for r in report.results] == [1, 3, 1, 1]
    assert [r.ok for r in report.results] == [True, False, True, True]


def test_hung_trace_is_killed_at_its_deadline_and_the_rest_complete():
    t0 = time.monotonic()
    report = BatchExtractor(jobs=2, timeout=1.0,
                            worker=pid_worker).run(campaign(8, 2, "hang"))
    elapsed = time.monotonic() - t0
    hung = report.results[2]
    assert not hung.ok and hung.timed_out and hung.attempts == 1
    assert hung.error.startswith("Timeout")
    assert 1.0 <= hung.seconds < 10.0
    assert report.timeouts == [hung]
    assert all(r.ok for i, r in enumerate(report.results) if i != 2)
    assert elapsed < 10.0
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def traces():
    return [
        jacobi2d.run(chares=(3, 3), pes=2, iterations=1, seed=0),
        pdes.run(chares=8, pes=4, seed=2),
        jacobi2d.run(chares=(4, 4), pes=4, iterations=2, seed=1),
    ]


def untimed_summary(summary):
    return {k: v for k, v in summary.items() if not k.endswith("seconds")}


def untimed(report):
    """Rows without their timing fields."""
    rows = []
    for row in report.to_dict()["results"]:
        row.pop("seconds")
        row["summary"] = untimed_summary(row["summary"])
        rows.append(row)
    return rows


def test_in_memory_traces_in_workers_match_serial(traces):
    serial = BatchExtractor(jobs=1).run(traces)
    parallel = BatchExtractor(jobs=2).run(traces)
    assert serial.ok and parallel.ok
    assert untimed(parallel) == untimed(serial)
    hardened = PipelineOptions(repair="warn", on_error="fallback")
    assert untimed(BatchExtractor(hardened, jobs=2, timeout=120.0).run(
        traces)) == untimed(BatchExtractor(hardened).run(traces))


@pytest.fixture
def journal_fails_second_done(monkeypatch):
    """``RunJournal.record_done`` raises on the second finished trace."""
    real = RunJournal.record_done
    calls = []

    def record_done(self, *args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise OSError("journal disk full")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RunJournal, "record_done", record_done)


def test_no_worker_outlives_a_clean_a_timed_out_or_a_raising_run(
        traces, tmp_path, journal_fails_second_done):
    BatchExtractor(jobs=2, worker=pid_worker).run(campaign(4))
    assert multiprocessing.active_children() == []
    BatchExtractor(jobs=2, timeout=0.5,
                   worker=pid_worker).run(campaign(4, 0, "hang"))
    assert multiprocessing.active_children() == []
    # The outcome callback (cache put, then journal line) raises on the
    # second finished trace: run() raises after stopping every worker,
    # and the trace finished before it keeps its cache entry.
    cache = StructureCache(tmp_path / "cache")
    with pytest.raises(OSError, match="journal disk full"):
        BatchExtractor(jobs=2, cache=cache,
                       journal=tmp_path / "run.jsonl").run(traces)
    assert multiprocessing.active_children() == []
    assert len(list((tmp_path / "cache").glob("*.json"))) >= 1


def test_cache_entries_are_written_as_outcomes_arrive(
        traces, tmp_path, journal_fails_second_done):
    """A serial run whose journal write raises on the second outcome
    still leaves the first trace's entry on disk (and the second's,
    written before its journal line)."""
    cache_dir = tmp_path / "cache"
    with pytest.raises(OSError, match="journal disk full"):
        BatchExtractor(jobs=1, cache=StructureCache(cache_dir),
                       journal=tmp_path / "run.jsonl").run(traces)
    fresh = StructureCache(cache_dir)
    options = PipelineOptions()
    stored = [fresh.get(fresh.key(trace_digest(t), options)) for t in traces]
    assert stored[0] is not None and stored[1] is not None
    assert stored[2] is None
    # The entry is the one a clean run writes, up to its timings.
    clean = BatchExtractor(jobs=1).run(traces[:1]).results[0].summary
    assert untimed_summary(json.loads(stored[0])) == untimed_summary(clean)


def test_path_sources_write_the_same_entries_and_journal_as_serial(
        traces, tmp_path):
    paths = []
    for n, trace in enumerate(traces):
        paths.append(str(tmp_path / f"t{n}.jsonl"))
        write_trace(trace, paths[-1])
    runs = {}
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        report = BatchExtractor(jobs=jobs, cache=StructureCache(root / "c"),
                                journal=root / "run.jsonl").run(paths)
        assert report.ok
        entries = {p.name: untimed_summary(json.loads(p.read_bytes()))
                   for p in (root / "c").glob("*.json")}
        lines = set()
        for line in (root / "run.jsonl").read_text().splitlines():
            record = json.loads(line)
            record.pop("seconds", None)
            if "summary" in record:
                record["summary"] = untimed_summary(record["summary"])
            lines.add(json.dumps(record, sort_keys=True))
        runs[jobs] = (untimed(report), entries, lines)
    assert runs[2] == runs[1]
    assert len(runs[2][1]) == len(paths)
