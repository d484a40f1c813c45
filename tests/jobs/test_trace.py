"""The observability acceptance gate: a chaos batch (fault injection plus a
SIGKILLed daemon) produces a merged Chrome trace with per-worker tracks and
a metrics snapshot whose totals assert against the BatchReport's ground
truth — and serial batches reconcile ≥95% of their wall clock into phases."""

from __future__ import annotations

import pytest

from repro.jobs import ChaosConfig, JobPool, JobSpec
from repro.jobs.status import load_status
from repro.telemetry.merge import merge_batch_trace, validate_chrome_trace


def _series(snapshot, name):
    family = (snapshot.get("metrics") or {}).get(name)
    return list(family.get("series", [])) if family else []


def _value(snapshot, name, **labels):
    for entry in _series(snapshot, name):
        if all(entry["labels"].get(k) == str(v) for k, v in labels.items()):
            return entry.get("value")
    return 0.0


def _chaos_pool(tmp_path, workers=2):
    pool = JobPool(
        workers=workers,
        workdir=tmp_path,
        chaos=ChaosConfig(fault_rate=0.3, kill_workers=1),
        batch_seed=77,
        trace=True,
    )
    for i in range(6):
        pool.submit(JobSpec(f"t{i}", nt=48, seed=200 + i, checkpoint_every=8,
                            max_attempts=4))
    return pool


@pytest.mark.faults
def test_chaos_batch_metrics_assert_against_report(tmp_path):
    pool = _chaos_pool(tmp_path)
    report = pool.run()
    assert report.ok
    assert report.kills == 1
    snap = report.metrics
    assert snap is not None and snap["version"] >= 1

    completed = sum(1 for r in report.results if r.status == "completed")
    assert _value(snap, "repro_jobs_completed_total") == completed
    terminal = sum(
        e.get("value", 0.0) for e in _series(snap, "repro_jobs_terminal_total")
    )
    assert terminal == len(report.results)
    admitted = sum(
        e.get("value", 0.0) for e in _series(snap, "repro_jobs_admitted_total")
    )
    assert admitted == len(report.results)

    # all queues drained: the final status summary reads no ready job
    status = load_status(tmp_path)
    assert status["final"] and status["status"]["ready"] == 0
    assert _value(snap, "repro_workers_busy") == 0.0

    # retry counter mirrors the 'retried' lifecycle events exactly
    retried_events = sum(1 for e in report.events if e["kind"] == "retried")
    assert _value(snap, "repro_jobs_retried_total") == retried_events

    # worker-churn accounting: initial prefork + the post-SIGKILL replacement
    assert _value(snap, "repro_workers_spawned_total") == report.workers_spawned
    assert report.workers_spawned >= pool.workers + report.kills

    # attempt-latency histogram saw every attempt of every job
    attempts = sum(len(r.attempts) for r in report.results)
    observed = sum(e.get("count", 0) for e in _series(snap, "repro_attempt_seconds"))
    assert observed == attempts

    # supervisor accounting made it into the gauge vector
    buckets = {
        e["labels"]["bucket"] for e in _series(snap, "repro_supervisor_seconds")
    }
    assert "supervise" in buckets and "journal" in buckets
    assert report.supervisor_seconds


@pytest.mark.faults
def test_chaos_batch_merges_into_valid_trace_with_worker_tracks(tmp_path):
    pool = _chaos_pool(tmp_path)
    report = pool.run()
    assert report.ok
    trace = merge_batch_trace(report, pool.telemetry)
    assert validate_chrome_trace(trace) == []
    # the SIGKILLed attempt's torn payload must not poison the merge:
    # every surviving payload lands on a real worker track under pid 2
    worker_tids = {
        e["tid"]
        for e in trace["traceEvents"]
        if e.get("pid") == 2 and e.get("ph") != "M"
    }
    assert worker_tids and all(tid >= 1 for tid in worker_tids)
    # supervisor track carries one async lifetime bar pair per job
    opens = [e for e in trace["traceEvents"] if e.get("ph") == "b"]
    closes = [e for e in trace["traceEvents"] if e.get("ph") == "e"]
    assert {e["id"] for e in opens} == {f"t{i}" for i in range(6)}
    assert {e["id"] for e in closes} == {f"t{i}" for i in range(6)}
    # every completed attempt shipped a clock-corrected span tree home
    for result in report.results:
        final = result.attempts[-1]
        assert final.outcome == "completed"
        assert final.trace is not None
        assert "clock_offset_s" in final.trace["context"]


def test_serial_batch_wall_clock_reconciles(tmp_path):
    """Satellite (b): supervisor-side admission/journal/drain accounting
    closes the books — ≥95% of batch wall time lands in phase_totals."""
    pool = JobPool(workers=0, workdir=tmp_path, trace=True, batch_seed=5)
    for i in range(4):
        pool.submit(JobSpec(f"s{i}", nt=32, seed=i))
    report = pool.run()
    assert report.ok
    totals = pool.telemetry.phase_totals()
    coverage = sum(totals.values()) / report.wall_seconds
    assert coverage >= 0.95
    assert totals["jobs"] > 0.0  # supervisor overhead charged to the jobs phase
    # serial trace still validates, with attempts on the tid-0 track
    trace = merge_batch_trace(report, pool.telemetry)
    assert validate_chrome_trace(trace) == []
    assert any(
        e.get("pid") == 2 and e.get("tid") == 0
        for e in trace["traceEvents"]
        if e.get("ph") != "M"
    )
