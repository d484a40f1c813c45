"""JobPool supervision: completion bit-identity, the retry state machine,
retry exhaustion with full history, deadlines, and breaker rerouting — under
both fleets (``FLEETS``) wherever the assertion is about the protocol, not
about what only a daemon (pre-emption) or only an in-process attempt
(post-hoc deadlines) can do."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import InjectedFault, JobTimeoutError, RetryExhaustedError
from repro.jobs import (
    JOURNAL_NAME,
    ChaosConfig,
    CircuitBreaker,
    JobPool,
    JobSpec,
    load_journal,
    run_batch,
    run_job_inline,
)
from repro.telemetry import Telemetry

from .fleets import FLEETS


def kinds_of(report, job_id):
    return [e["kind"] for e in report.events if e["job"] == job_id]


def test_pool_results_are_bit_identical_to_inline_runs(tmp_path):
    specs = [
        JobSpec("a0", example="acoustic", nt=8, seed=1),
        JobSpec("a1", example="acoustic", nt=8, schedule="naive", seed=2),
    ]
    for workers in FLEETS:
        report = run_batch(specs, workers=workers, workdir=tmp_path / f"w{workers}")
        assert report.ok
        assert report.workers == workers
        for spec in specs:
            result = report.result_for(spec.job_id)
            assert result.status == "completed"
            assert result.engine == "fused"
            np.testing.assert_array_equal(result.receivers, run_job_inline(spec))
            assert kinds_of(report, spec.job_id) == ["queued", "started", "completed"]


@pytest.mark.faults
def test_serial_injected_fault_retries_to_bit_identical_completion(tmp_path):
    # every job faults on attempt 0 (raise kind: a clean structured abort),
    # retries resume from checkpoints and must still match the oracle
    specs = [JobSpec(f"f{i}", nt=16, seed=i, checkpoint_every=4) for i in range(3)]
    for workers in FLEETS:
        report = run_batch(
            specs,
            workers=workers,
            workdir=tmp_path / f"w{workers}",
            chaos=ChaosConfig(fault_rate=1.0, kinds=("raise",)),
            batch_seed=5,
        )
        assert report.ok
        assert report.retries == len(specs)  # each job failed exactly once
        for spec in specs:
            result = report.result_for(spec.job_id)
            assert [a.outcome for a in result.attempts] == ["fault", "completed"]
            assert "InjectedFault" in result.attempts[0].error
            np.testing.assert_array_equal(result.receivers, run_job_inline(spec))


@pytest.mark.faults
def test_retry_exhaustion_carries_full_attempt_history(tmp_path):
    spec = JobSpec("doomed", nt=16, max_attempts=1, checkpoint_every=4)
    for workers in FLEETS:
        report = run_batch(
            [spec],
            workers=workers,
            workdir=tmp_path / f"w{workers}",
            chaos=ChaosConfig(fault_rate=1.0, kinds=("raise",)),
            batch_seed=5,
        )
        result = report.result_for("doomed")
        assert result.status == "exhausted"
        assert isinstance(result.error, RetryExhaustedError)
        assert isinstance(result.error.__cause__, InjectedFault)
        assert len(result.error.attempts) == 1
        assert result.error.attempts[0]["outcome"] == "fault"
        # the terminal error crosses process/report boundaries with history intact
        clone = pickle.loads(pickle.dumps(result.error))
        assert clone.attempts == result.error.attempts


def test_deadline_kills_job_without_wedging_the_pool(tmp_path):
    # pre-emption: only a daemon can be killed at its deadline
    deadline = 0.3
    specs = [
        # far more work than the deadline allows
        JobSpec("slow", nt=20000, schedule="naive", engine="interp",
                deadline=deadline, max_attempts=2),
        JobSpec("quick", nt=8, seed=4),
    ]
    report = run_batch(specs, workers=2, workdir=tmp_path)
    slow = report.result_for("slow")
    assert slow.status == "timeout"
    assert isinstance(slow.error, JobTimeoutError)
    assert slow.error.job_id == "slow"
    # the gate: reported within 2x the deadline, not after a full run
    assert slow.elapsed < 2 * deadline
    quick = report.result_for("quick")
    assert quick.status == "completed"
    np.testing.assert_array_equal(quick.receivers, run_job_inline(specs[1]))


def test_serial_deadline_is_enforced_post_hoc(tmp_path):
    # an in-process attempt cannot be pre-empted: the inline fleet judges the
    # deadline when the attempt has returned, and reports it as a timeout
    spec = JobSpec("slow", nt=256, schedule="naive", deadline=1e-3, max_attempts=3)
    report = run_batch([spec], workers=0, workdir=tmp_path)
    result = report.result_for("slow")
    assert result.status == "timeout"
    assert isinstance(result.error, JobTimeoutError)
    assert [a.outcome for a in result.attempts] == ["timeout"]


@pytest.mark.faults
def test_open_breaker_reroutes_dispatch_across_the_batch(tmp_path):
    # every job's attempt 0 runs with a broken fused compiler; after
    # `threshold` reported failures the supervisor's breaker opens and the
    # remaining jobs are dispatched straight at the interp rung.  One job in
    # flight at a time (a stream under capacity=1) makes the trip point exact
    # under either fleet: with two attempts in flight, how many more reach
    # the tracked rung before the threshold-th report is a matter of timing
    specs = [JobSpec(f"b{i}", nt=8, seed=i) for i in range(6)]
    for workers in FLEETS:
        breaker = CircuitBreaker(threshold=2, cooldown=3600.0)
        workdir = tmp_path / f"w{workers}"
        pool = JobPool(
            workers=workers,
            capacity=1,
            workdir=workdir,
            breaker=breaker,
            chaos=ChaosConfig(break_rate=1.0),
            batch_seed=9,
        )
        pool.submit(iter(specs))
        report = pool.run()
        assert report.ok
        assert breaker.state == "open"
        fallback_counts = [len(report.result_for(f"b{i}").fallbacks) for i in range(6)]
        assert fallback_counts == [1, 1, 0, 0, 0, 0], workers
        engines = [report.result_for(f"b{i}").engine for i in range(6)]
        assert engines == ["interp"] * 6
        rerouted = [e["job"] for e in report.events if e["kind"] == "rerouted"]
        assert rerouted == [f"b{i}" for i in range(2, 6)]
        # with the breaker open the write-ahead journal names the rerouted rung
        attempts = load_journal(workdir / JOURNAL_NAME).for_kind("attempt")
        assert [r["engine"] for r in attempts] == ["fused"] * 2 + ["interp"] * 4
        degraded = [report.result_for(f"b{i}").attempts[0].degraded for i in range(6)]
        assert degraded == [False] * 2 + [True] * 4
        for spec in specs:  # engine reroute never changes numerics
            np.testing.assert_array_equal(
                report.result_for(spec.job_id).receivers, run_job_inline(spec)
            )


def test_run_batch_passes_breaker_through(tmp_path):
    for workers in FLEETS:
        breaker = CircuitBreaker(threshold=1, cooldown=3600.0)
        report = run_batch(
            [JobSpec("b0", nt=8)],
            workers=workers,
            workdir=tmp_path / f"w{workers}",
            breaker=breaker,
            chaos=ChaosConfig(break_rate=1.0),
        )
        assert report.ok
        assert breaker.state == "open", workers


def test_lifecycle_events_land_in_telemetry(tmp_path):
    for workers in FLEETS:
        tel = Telemetry()
        report = run_batch(
            [JobSpec("t0", nt=8)], workers=workers, workdir=tmp_path / f"w{workers}",
            telemetry=tel,
        )
        assert report.ok
        assert tel.counters["jobs_queued"] == 1
        assert tel.counters["jobs_started"] == 1
        assert tel.counters["jobs_completed"] == 1
        names = [e.name for e in tel.events]
        assert "job.queued" in names and "job.completed" in names
