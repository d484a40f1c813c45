"""JobPool supervision: completion bit-identity, the retry state machine,
retry exhaustion with full history and deadlines — under both fleets
(``FLEETS``) wherever the assertion is about the protocol, not about what
only a daemon (pre-emption) or only an in-process attempt (post-hoc
deadlines) can do."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import InjectedFault, JobTimeoutError, RetryExhaustedError
from repro.jobs import ChaosConfig, JobSpec, run_batch, run_job_inline
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
            assert result.engine == "c" and result.fallbacks == []
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
