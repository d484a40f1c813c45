"""Warm-daemon pool: cache warmth across jobs, crash replacement — the fault
domains of the process-per-attempt design must survive the move to
long-lived workers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jobs import (
    JOURNAL_NAME, ChaosConfig, JobPool, JobSpec, load_journal, run_batch,
    run_job_inline,
)
from repro.jobs.spec import PHASE_KEYS
from repro.telemetry import Telemetry

pytestmark = pytest.mark.faults


def _specs(n, nt=48, **kwargs):
    return [
        JobSpec(f"shot-{i:02d}", nt=nt, seed=i, checkpoint_every=8, **kwargs)
        for i in range(n)
    ]


def test_one_daemon_serves_many_jobs_and_warms_up(tmp_path):
    report = run_batch(_specs(3), workers=1, workdir=tmp_path)
    assert report.ok
    # one daemon, preforked once, served the whole batch
    assert report.workers_spawned == 1
    attempts = [r.attempts[-1] for r in report.results]
    assert len({a.worker for a in attempts}) == 1
    assert attempts[0].worker is not None
    # the daemon's first job is cold, every later one warm
    assert [a.warm for a in attempts] == [False, True, True]
    assert report.warm_attempts == 2 and report.cold_attempts == 1
    # warm jobs replay the family step plans instead of recomputing them
    assert all(a.caches.get("step_hits", 0) > 0 for a in attempts[1:])
    # the per-attempt phase breakdown is attributed to the known phases
    for a in attempts:
        assert set(a.phases) <= set(PHASE_KEYS)
        assert a.phases.get("compute", 0.0) > 0.0


def test_warm_results_match_the_serial_oracle(tmp_path):
    specs = _specs(4, example="acoustic")
    report = run_batch(specs, workers=2, workdir=tmp_path)
    assert report.ok
    for spec in specs:
        np.testing.assert_array_equal(
            report.result_for(spec.job_id).receivers, run_job_inline(spec)
        )


def test_sigkilled_daemon_is_replaced_and_batch_is_bit_identical(tmp_path):
    """The satellite invariant: SIGKILL a warm daemon mid-batch — the batch
    still completes with receivers bit-identical to the fault-free oracle,
    and a replacement daemon is preforked."""
    specs = _specs(4, nt=96, max_attempts=3)
    pool = JobPool(
        workers=2, workdir=tmp_path, chaos=ChaosConfig(kill_workers=1), batch_seed=21
    )
    for spec in specs:
        pool.submit(spec)
    report = pool.run()
    assert report.ok
    assert report.kills == 1
    # the dead daemon was retired and a fresh one preforked in its place
    assert report.workers_spawned > 2
    kinds = [e["kind"] for e in report.events]
    assert "worker_crashed" in kinds
    # the killed job resumed from its checkpoint...
    killed = [r for r in report.results if any(a.outcome == "crash" for a in r.attempts)]
    assert len(killed) == 1
    assert killed[0].attempts[-1].resumed_from is not None
    # ...and every job (killed one included) matches the oracle bit-for-bit
    for spec in specs:
        np.testing.assert_array_equal(
            report.result_for(spec.job_id).receivers, run_job_inline(spec)
        )


def test_daemon_faults_cross_the_pipe_and_retry(tmp_path):
    # an injected fault inside a warm daemon must surface as a typed error
    # and retry on the same warm pool, not wedge the dispatch loop
    report = run_batch(
        _specs(2, nt=64, max_attempts=4),
        workers=1,
        workdir=tmp_path,
        chaos=ChaosConfig(fault_rate=1.0, kinds=("raise",)),
        batch_seed=5,
    )
    assert report.ok
    assert report.retries >= 1
    for result in report.results:
        assert result.attempts[0].outcome == "fault"
        assert "InjectedFault" in result.attempts[0].error


def test_serial_executor_also_warms_across_jobs(tmp_path):
    report = run_batch(_specs(3), workers=0, workdir=tmp_path)
    assert report.ok
    attempts = [r.attempts[-1] for r in report.results]
    # same in-process warm state: first job cold, later jobs warm, no daemon
    assert [a.warm for a in attempts] == [False, True, True]
    assert all(a.worker is None for a in attempts)
    assert report.workers_spawned == 0


def test_dead_pipe_at_dispatch_retires_the_daemon_and_changes_nothing_else(
    tmp_path, monkeypatch
):
    """A daemon that died between polls surfaces as ``BrokenPipeError`` on
    the dispatch write.  The write-ahead ``attempt`` record is already
    journaled, so the same attempt must go to the next daemon: one
    ``worker_crashed``, and exactly one ``resumed`` / ``started`` event and
    one ``attempt`` record for that attempt number — nothing doubled."""
    from repro.jobs import ChaosPlan, WarmWorker

    chaos = ChaosConfig(fault_rate=1.0, kinds=("raise",))
    spec = JobSpec("victim", nt=64, seed=3, checkpoint_every=4, max_attempts=3)
    # the injected fault fires late enough for a checkpoint to land first,
    # so the retry is a genuine resume
    assert ChaosPlan(chaos, 5).entry(0, spec.nt).fault["t"] > 2 * spec.checkpoint_every
    real_dispatch = WarmWorker.dispatch
    broken = []

    def dispatch(self, spec, job_dir, attempt, *rest):
        if attempt == 1 and not broken:
            broken.append(self.worker_id)
            raise BrokenPipeError("daemon died between polls")
        return real_dispatch(self, spec, job_dir, attempt, *rest)

    monkeypatch.setattr(WarmWorker, "dispatch", dispatch)
    tel = Telemetry()
    pool = JobPool(
        workers=1, workdir=tmp_path, chaos=chaos, batch_seed=5, telemetry=tel
    )
    pool.submit(spec)
    report = pool.run()
    assert report.ok and len(broken) == 1
    result = report.result_for("victim")
    assert [(a.attempt, a.outcome) for a in result.attempts] == [
        (0, "fault"), (1, "completed"),
    ]
    assert result.attempts[1].resumed_from is not None
    np.testing.assert_array_equal(result.receivers, run_job_inline(spec))
    crashed = [e for e in report.events if e["kind"] == "worker_crashed"]
    assert [e["worker"] for e in crashed] == broken
    retry_events = [
        e["kind"] for e in report.events
        if e["job"] == "victim" and e.get("attempt") == 1
        and e["kind"] in ("resumed", "started")
    ]
    assert retry_events == ["resumed", "started"]
    # the daemon that took the attempt is the replacement, not the dead one
    started = [e for e in report.events if e["kind"] == "started"][-1]
    assert started["worker"] not in broken
    assert report.workers_spawned == 2
    attempts = load_journal(tmp_path / JOURNAL_NAME).for_kind("attempt")
    assert [r["attempt"] for r in attempts] == [0, 1]
    kinds = [e["kind"] for e in report.events]
    assert kinds.count("resumed") == 1 and kinds.count("started") == 2
