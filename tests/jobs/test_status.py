"""`python -m repro.jobs.status`: rendering from the metrics.json snapshot,
journal-replay fallback, and the machine-readable --json dump."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.jobs import METRICS_NAME, JobPool, JobSpec, run_batch
from repro.jobs.status import (
    _quantile,
    journal_stats,
    load_status,
    main,
    render_status,
)


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


def test_load_status_reads_final_snapshot(batch_dir):
    snap = load_status(batch_dir)
    assert snap is not None
    assert snap["final"] is True
    assert snap["batch_id"] == batch_dir.name
    assert snap["status"]["completed"] == 3


def test_journal_stats_reconstructs_the_jobs_summary(batch_dir):
    stats = journal_stats(batch_dir)
    assert stats is not None
    assert stats["ended"] is True
    assert stats["corrupt_tail"] is None
    assert stats["statuses"] == {"completed": 3}
    jobs = stats["jobs"]
    assert (jobs["admitted"], jobs["completed"], jobs["failed"]) == (3, 3, 0)
    assert jobs["throughput_per_s"] > 0


def test_render_mentions_every_section(batch_dir):
    text = render_status(load_status(batch_dir), journal_stats(batch_dir))
    for fragment in (
        "[final]", "3/3 completed", "queue: ready 0, delayed 0",
        "attempt latency [completed]:", "supervisor seconds:",
        "journal:", "batch ended", "jobs: 3/3 completed",
    ):
        assert fragment in text, f"missing {fragment!r} in:\n{text}"


def test_cli_renders_and_exits_zero(batch_dir, capsys):
    assert main([str(batch_dir)]) == 0
    out = capsys.readouterr().out
    assert f"batch {batch_dir.name} [final]" in out


def test_cli_json_dump_parses(batch_dir, capsys):
    assert main([str(batch_dir), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["snapshot"]["final"] is True
    assert payload["journal"]["statuses"] == {"completed": 3}


def test_cli_journal_fallback_ignores_snapshot(batch_dir, capsys):
    assert main([str(batch_dir), "--journal"]) == 0
    capsys.readouterr()
    assert main([str(batch_dir), "--journal", "--json"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["snapshot"] is None  # --journal forces replay-only
    assert dump["journal"]["statuses"] == {"completed": 3}


def test_cli_journal_only_batch(tmp_path, capsys):
    # a snapshotless dir (metrics.json deleted — e.g. a batch run with
    # metrics off, or a pre-observability batch) still renders via replay
    report = run_batch([JobSpec("j0", nt=8, seed=9)], workers=0,
                       workdir=tmp_path)
    assert report.ok
    (tmp_path / METRICS_NAME).unlink()
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "journal:" in out and "terminal statuses: completed=1" in out


def test_cli_errors_on_empty_and_missing_dirs(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1
    assert "neither" in capsys.readouterr().err


def test_quantile_interpolates_snapshot_histograms():
    entry = {"count": 4, "buckets": {"0.1": 1, "1.0": 3, "+Inf": 4}}
    assert 0.1 <= _quantile(entry, 0.5) <= 1.0
    assert _quantile(entry, 0.99) == 1.0  # overflow saturates to last edge
    assert _quantile({"count": 0, "buckets": {}}, 0.5) is None


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
    assert stats["jobs"]["failed"] == 0
    assert "jobs: 3/3 completed, " in render_status(None, stats)
