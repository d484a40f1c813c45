"""`python -m repro.jobs.status`: every number folded from the write-ahead
journal — of a live, finished, torn or resumed batch — and the
machine-readable --json dump."""

from __future__ import annotations

import json
import os
import shutil
import signal
import time

import pytest

from repro.jobs import JOURNAL_NAME, JobPool, JobSpec, run_batch
from repro.jobs.status import journal_stats, main, render_status


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("batch")
    specs = [
        JobSpec("q0", nt=8, seed=1),
        JobSpec("q1", nt=8, seed=2),
        JobSpec("q2", nt=8, seed=3),
    ]
    report = run_batch(specs, workers=0, workdir=path)
    assert report.ok
    return path


def test_journal_stats_reconstructs_the_jobs_summary(batch_dir):
    stats = journal_stats(batch_dir)
    assert stats is not None
    assert stats["ended"] is True
    assert stats["corrupt_tail"] is None
    assert stats["statuses"] == {"completed": 3}
    jobs = stats["jobs"]
    assert (jobs["admitted"], jobs["completed"], jobs["terminal"]) == (3, 3, 3)
    assert jobs["active"] == 0
    assert jobs["throughput_per_s"] > 0
    assert stats["queue"] == {"ready": 0, "delayed": 0}
    assert stats["latency"]["completed"]["n"] == 3
    # the completed outcome records carry the attempts' work
    assert stats["work"]["points_updated"] > 0 and stats["work"]["gpts_per_s"] > 0


def test_render_mentions_every_section(batch_dir):
    text = render_status(journal_stats(batch_dir))
    for fragment in (
        f"batch {batch_dir.name} [ended]", "3/3 completed", "queue: ready 0, delayed 0",
        "0 busy worker(s)", "0 hung daemon(s)", "0 retries",
        "attempt latency [completed]: n=3", "terminal statuses: completed=3",
        "stencil throughput:", "journal:",
    ):
        assert fragment in text, f"missing {fragment!r} in:\n{text}"


def test_cli_renders_and_exits_zero(batch_dir, capsys):
    assert main([str(batch_dir)]) == 0
    out = capsys.readouterr().out
    assert f"batch {batch_dir.name} [ended]" in out


def test_cli_json_dump_parses(batch_dir, capsys):
    assert main([str(batch_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(json.dumps(journal_stats(batch_dir)))
    assert payload["statuses"] == {"completed": 3}


def test_cli_journal_only_batch(batch_dir, tmp_path, capsys):
    # the journal alone — no result, checkpoint or any other file — is the
    # whole record of the batch
    (tmp_path / "lone").mkdir()
    shutil.copy(batch_dir / JOURNAL_NAME, tmp_path / "lone" / JOURNAL_NAME)
    assert main([str(tmp_path / "lone")]) == 0
    out = capsys.readouterr().out
    assert "3/3 completed" in out and "terminal statuses: completed=3" in out


def test_cli_errors_on_empty_and_missing_dirs(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1
    assert JOURNAL_NAME in capsys.readouterr().err


def test_live_batch_status_reads_the_journal_so_far(tmp_path):
    """Mid-batch, the status folds the records fsynced so far: completed
    jobs, the job in flight, and no batch end — and the open supervisor's
    span runs to the reader's clock, so the header shows supervised time and
    a throughput."""
    seen = []
    later = 10.0

    def stream():
        for i in range(3):
            if i == 2:
                seen.append(journal_stats(tmp_path, clock=lambda: time.time() + later))
            yield JobSpec(f"l{i}", nt=8, seed=i)

    pool = JobPool(workers=0, capacity=1, workdir=tmp_path)
    pool.submit(stream())
    assert pool.run().ok
    (live,) = seen
    assert not live["ended"] and live["jobs"]["admitted"] == 2
    assert live["jobs"]["completed"] + live["busy_workers"] + live["queue"]["ready"] == 2
    assert live["supervised_seconds"] >= later
    assert live["jobs"]["completed"] >= 1 and live["jobs"]["throughput_per_s"] > 0
    text = render_status(live)
    assert "[open]" in text and "jobs/s)" in text
    assert journal_stats(tmp_path)["jobs"]["completed"] == 3


def test_torn_tail_renders_the_verified_prefix(batch_dir, tmp_path):
    """A supervisor SIGKILLed mid-append leaves a torn record: the status is
    the verified prefix's, and says where it was torn."""
    data = (batch_dir / JOURNAL_NAME).read_bytes()
    lines = data.splitlines(keepends=True)
    (tmp_path / JOURNAL_NAME).write_bytes(b"".join(lines[:6]) + lines[6][:20])
    stats = journal_stats(tmp_path)
    assert stats["records"] == 6 and not stats["ended"]
    assert stats["corrupt_tail"] and "torn" in stats["corrupt_tail"]
    text = render_status(stats)
    assert "[open]" in text and "journal corruption:" in text


def test_journal_counts_each_job_once_across_a_drain_and_resume(tmp_path):
    """A drained job journals ``interrupted`` and, after the resume, also
    ``completed``: the replay folds the records, so it is one completed job."""
    specs = [JobSpec(f"d{i}", example="acoustic", nt=16, seed=i) for i in range(3)]

    def stream():
        yield specs[0]
        yield specs[1]
        os.kill(os.getpid(), signal.SIGTERM)
        yield specs[2]

    pool = JobPool(workers=0, capacity=1, workdir=tmp_path)
    pool.submit(stream())
    assert pool.run().drained
    assert JobPool.resume(tmp_path, workers=0).run().completed == 3
    stats = journal_stats(tmp_path)
    assert stats["statuses"] == {"completed": 3}
    assert stats["jobs"]["terminal"] == 3 and stats["resumes"] == 1
    assert "3/3 completed, " in render_status(stats)


def test_resumed_throughput_counts_only_supervised_time(tmp_path, monkeypatch):
    """A batch resumed long after its supervisor stopped: the downtime is no
    supervised time, so it does not dilute the reported jobs/s."""
    downtime = 1000.0
    def stream():
        yield JobSpec("r0", nt=8, seed=0)
        os.kill(os.getpid(), signal.SIGTERM)
        yield JobSpec("r1", nt=8, seed=1)  # admitted as the drain begins

    pool = JobPool(workers=0, capacity=1, workdir=tmp_path)
    pool.submit(stream())
    assert pool.run().drained
    real_time = time.time
    with monkeypatch.context() as m:
        m.setattr(time, "time", lambda: real_time() + downtime)
        resumed = JobPool.resume(tmp_path, workers=0)
    report = resumed.run()
    assert report.ok and report.resumed
    stats = journal_stats(tmp_path)
    assert stats["jobs"]["completed"] == report.completed >= 2
    assert stats["jobs"]["throughput_per_s"] > report.completed / (downtime / 10)
    assert stats["supervised_seconds"] < downtime / 10
