"""The observability acceptance gate: a chaos batch (fault injection plus a
SIGKILLed daemon) produces a merged Chrome trace with per-worker tracks and
a journal whose folded status asserts against the BatchReport's ground
truth — and serial batches reconcile ≥95% of their wall clock into phases."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.jobs import ChaosConfig, JobPool, JobSpec
from repro.jobs.observe import PhaseAccountant
from repro.jobs.status import journal_stats
from repro.telemetry.merge import merge_batch_trace, validate_chrome_trace


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
    """Every number of the status view, folded from the journal alone,
    equals what the live supervisor's report says."""
    pool = _chaos_pool(tmp_path)
    report = pool.run()
    assert report.ok
    assert report.kills == 1
    stats = journal_stats(tmp_path)

    jobs = stats["jobs"]
    assert jobs["admitted"] == jobs["terminal"] == len(report.results)
    assert jobs["completed"] == report.completed and jobs["active"] == 0
    assert stats["statuses"] == dict(Counter(r.status for r in report.results))
    assert stats["queue"] == {"ready": 0, "delayed": 0}
    assert stats["busy_workers"] == 0 and stats["ended"]

    # retries mirror the 'retried' lifecycle events and the attempt histories
    retried_events = sum(1 for e in report.events if e["kind"] == "retried")
    assert stats["retries"] == retried_events == report.retries
    assert stats["hung_daemons"] == report.hung_workers

    # exact per-outcome latency quantiles of every attempt of every job: the
    # journal stamps each record with the clock reading the supervisor
    # applied it at (to the microsecond)
    attempts = [a for r in report.results for a in r.attempts]
    assert sum(q["n"] for q in stats["latency"].values()) == len(attempts)
    for outcome, q in stats["latency"].items():
        seconds = [a.seconds for a in attempts if a.outcome == outcome]
        assert q["n"] == len(seconds)
        expected = np.quantile(seconds, (0.5, 0.9, 0.99))
        assert [q["p50"], q["p90"], q["p99"]] == pytest.approx(expected, abs=2e-6)

    # no corruption was injected: no sdc record, and no detection counted
    assert stats["sdc"] == {
        "records": 0, "recovered": 0, "detections": 0, "tiles_reexecuted": 0,
    }
    assert not any(e["kind"].startswith("sdc") for e in report.events)
    assert stats["work"]["gpts_per_s"] > 0
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


def test_phase_accountant_exclusive_nesting():
    clock = iter(range(100))
    acct = PhaseAccountant(clock=lambda: float(next(clock)))
    acct.push("supervise")  # t=0
    acct.push("admission")  # t=1 (supervise charged 1)
    acct.pop()              # t=2 (admission charged 1)
    with acct.phase("journal"):  # t=3..4
        pass
    acct.pop()              # t=5 (supervise charged 2+1 more)
    total = sum(acct.seconds.values())
    assert total == pytest.approx(5.0)  # covers [0, 5] exactly, no overlap
    assert acct.seconds["admission"] == pytest.approx(1.0)
    assert acct.seconds["journal"] == pytest.approx(1.0)
    assert acct.seconds["supervise"] == pytest.approx(3.0)
