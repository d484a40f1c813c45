"""Crash-safe resume: a supervisor SIGKILLed mid-batch (or drained by a
signal) leaves a journal from which ``JobPool.resume`` reconstructs the
batch and finishes it bit-identically to an uninterrupted run — durable
results preloaded, not recomputed; torn artifacts refused and redone."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.jobs import (
    JOURNAL_NAME, BatchJournal, JobPool, JobSpec, RetryPolicy, load_journal,
    run_job_inline,
)
from repro.jobs.transitions import fold

from .fleets import FLEETS

pytestmark = pytest.mark.faults

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _spec(i, nt=32, **kwargs):
    kwargs.setdefault("checkpoint_every", 8)
    return JobSpec(f"shot-{i:02d}", nt=nt, seed=i, **kwargs)


def _assert_oracle(report, specs):
    for spec in specs:
        np.testing.assert_array_equal(
            report.result_for(spec.job_id).receivers, run_job_inline(spec)
        )


def test_every_transition_is_journaled(tmp_path):
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
        specs = [_spec(i) for i in range(3)]
        for spec in specs:
            pool.submit(spec)
        report = pool.run()
        assert report.ok and not report.resumed
        replay = load_journal(workdir / JOURNAL_NAME)
        assert replay.corruption is None
        assert replay.header["batch_seed"] == 3
        assert len(replay.for_kind("admit")) == 3
        assert len(replay.for_kind("attempt")) == 3
        assert len(replay.for_kind("outcome")) == 3
        assert len(replay.for_kind("terminal")) == 3
        assert len(replay.for_kind("batch_end")) == 1
        # outcomes carry the durable-result digest resume will verify against
        for out in replay.for_kind("outcome"):
            assert out["outcome"] == "completed" and len(out["digest"]) == 64


def test_journal_stays_open_across_run_cycles(tmp_path):
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        # finished jobs free admission capacity, so submitting into the same
        # pool after run() is supported — the journal must keep recording
        pool = JobPool(workers=workers, capacity=2, workdir=workdir, batch_seed=3)
        pool.submit(_spec(0))
        pool.submit(_spec(1))
        assert pool.run().ok
        pool.submit(_spec(2))
        report = pool.run()
        assert report.ok and len(report.results) == 3
        replay = load_journal(workdir / JOURNAL_NAME)
        assert replay.corruption is None
        assert len(replay.for_kind("admit")) == 3
        assert len(replay.for_kind("batch_end")) == 2


def test_resume_of_a_finished_batch_preloads_everything(tmp_path):
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        specs = [_spec(i) for i in range(3)]
        pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
        for spec in specs:
            pool.submit(spec)
        first = pool.run()
        assert first.ok
        resumed = JobPool.resume(workdir, workers=workers)
        report = resumed.run()
        assert report.ok and report.resumed
        # nothing re-ran: every job was preloaded from its verified result.npz
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("preloaded") == 3
        assert "started" not in kinds
        _assert_oracle(report, specs)


def test_resume_redoes_a_job_whose_result_was_torn(tmp_path):
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        specs = [_spec(i) for i in range(2)]
        pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
        for spec in specs:
            pool.submit(spec)
        assert pool.run().ok
        # tear the durable artifact of job 0 the way a dying disk would
        result = workdir / specs[0].job_id / "result.npz"
        result.write_bytes(result.read_bytes()[:-16])
        resumed = JobPool.resume(workdir, workers=workers)
        report = resumed.run()
        assert report.ok and report.resumed
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("preloaded") == 1  # the intact job
        assert kinds.count("readmitted") == 1  # the torn one, recomputed
        _assert_oracle(report, specs)


def test_resume_redoes_jobs_whose_whole_sealed_results_were_swapped(tmp_path):
    """Each file passes its own seal; only the digest each job's outcome
    journaled tells them apart, so resume must trust neither."""
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        specs = [_spec(i) for i in range(2)]
        pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
        for spec in specs:
            pool.submit(spec)
        assert pool.run().ok
        a, b = (workdir / spec.job_id / "result.npz" for spec in specs)
        blob = a.read_bytes()
        a.write_bytes(b.read_bytes())
        b.write_bytes(blob)
        report = JobPool.resume(workdir, workers=workers).run()
        assert report.ok and report.resumed
        kinds = [e["kind"] for e in report.events]
        assert kinds.count("preloaded") == 0
        assert kinds.count("readmitted") == 2
        _assert_oracle(report, specs)


def test_supervisor_sigkill_then_resume_is_bit_identical(tmp_path):
    """The tentpole invariant: SIGKILL the supervisor process mid-batch
    (chaos pulls the trigger after 2 terminal jobs), then resume from the
    journal — the batch completes with receivers bit-identical to the
    fault-free oracle and durable results are preloaded."""
    specs = [_spec(i, nt=48, max_attempts=3) for i in range(4)]
    child = (
        "import sys\n"
        "from repro.jobs import ChaosConfig, JobPool, JobSpec\n"
        "pool = JobPool(workers=2, workdir=sys.argv[1], batch_seed=11,\n"
        "               chaos=ChaosConfig(kill_supervisor_after=2))\n"
        "for i in range(4):\n"
        "    pool.submit(JobSpec(f'shot-{i:02d}', nt=48, seed=i,\n"
        "                        checkpoint_every=8, max_attempts=3))\n"
        "pool.run()\n"
        "sys.exit(3)  # unreachable: chaos SIGKILLs the supervisor first\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # the journal survived the kill with at worst a torn tail
    replay = load_journal(tmp_path / JOURNAL_NAME)
    assert len(replay.for_kind("terminal")) >= 2
    report = JobPool.resume(tmp_path, workers=2).run()
    assert report.ok and report.resumed
    kinds = [e["kind"] for e in report.events]
    assert kinds.count("preloaded") >= 2  # the pre-kill completions
    assert kinds.count("preloaded") + kinds.count("readmitted") == 4
    _assert_oracle(report, specs)


def test_resumed_jobs_keep_their_pre_crash_attempt_history(tmp_path):
    """Every job faults once on attempt 0 and the supervisor is SIGKILLed at
    the first terminal job.  One daemon serialises the batch — job 0 fails,
    job 1 fails while job 0 backs off, job 0's retry completes, kill — so
    job 1 resumes with one journaled failure behind it.  The fold restores
    that history: both jobs end with attempts 0 (fault) and 1 (completed),
    whichever side of the crash each attempt ran on."""
    child = (
        "import sys\n"
        "from repro.jobs import ChaosConfig, JobPool, JobSpec\n"
        "chaos = ChaosConfig(fault_rate=1.0, kinds=('raise',),\n"
        "                    kill_supervisor_after=1)\n"
        "pool = JobPool(workers=1, workdir=sys.argv[1], batch_seed=5, chaos=chaos)\n"
        "for i in range(2):\n"
        "    pool.submit(JobSpec(f'shot-{i:02d}', nt=48, seed=i,\n"
        "                        checkpoint_every=8, max_attempts=3))\n"
        "pool.run()\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    replay = load_journal(tmp_path / JOURNAL_NAME)
    before = [(r["job"], r["outcome"]) for r in replay.for_kind("outcome")]
    assert before == [
        ("shot-00", "fault"), ("shot-01", "fault"), ("shot-00", "completed"),
    ]
    report = JobPool.resume(tmp_path).run()
    assert report.ok and report.resumed
    for i in range(2):
        result = report.result_for(f"shot-{i:02d}")
        assert [(a.attempt, a.outcome) for a in result.attempts] == [
            (0, "fault"), (1, "completed"),
        ]
        assert "InjectedFault" in result.attempts[0].error
    assert report.retries == 2
    # job 0 was preloaded, job 1 re-queued with its budget and ran once more
    kinds = [(e["kind"], e["job"]) for e in report.events]
    assert ("preloaded", "shot-00") in kinds and ("readmitted", "shot-01") in kinds
    assert [k for k in kinds if k[0] == "started"] == [("started", "shot-01")]
    _assert_oracle(report, [_spec(i, nt=48, max_attempts=3) for i in range(2)])


def test_sigterm_drains_gracefully_and_resume_completes(tmp_path):
    """SIGTERM mid-batch: dispatch stops, un-run jobs become resumable
    ``interrupted`` terminals, and the drained report says so — then a
    resume finishes exactly the jobs the drain left behind."""
    specs = [_spec(i) for i in range(3)]

    def stream():
        yield specs[0]
        yield specs[1]
        # delivered in the main thread, so the drain handler runs before
        # the pool pulls again — deterministic, no timers
        os.kill(os.getpid(), signal.SIGTERM)
        yield specs[2]

    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        pool = JobPool(workers=workers, capacity=1, workdir=workdir, batch_seed=5)
        pool.submit(stream())
        report = pool.run()
        assert report.drained and not report.ok
        assert report.completed == 2 and report.interrupted == 1
        assert any(e["kind"] == "drain" for e in report.events)
        # the handler was restored once run() returned
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
        resumed = JobPool.resume(workdir, workers=workers).run()
        assert resumed.ok and resumed.resumed
        assert resumed.completed == 3 and not resumed.drained
        _assert_oracle(resumed, specs)


def test_resume_survives_a_torn_journal_tail(tmp_path):
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        specs = [_spec(i) for i in range(2)]
        pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
        for spec in specs:
            pool.submit(spec)
        assert pool.run().ok
        journal = workdir / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes()[:-9])  # writer died mid-append
        report = JobPool.resume(workdir, workers=workers).run()
        assert report.ok and report.resumed
        _assert_oracle(report, specs)
        # the resumed supervisor truncated the tear and appended cleanly
        assert load_journal(journal).corruption is None


def test_resume_without_a_journal_is_a_structured_error(tmp_path):
    from repro.errors import JournalCorruptError

    with pytest.raises(JournalCorruptError, match="unreadable"):
        JobPool.resume(tmp_path)


def test_a_journal_with_tenants_and_lanes_still_resumes(tmp_path):
    """Journals written while the service still had tenants and priority
    lanes carry ``tenant_quota`` in the header and ``tenant`` / ``lane`` in
    every admitted spec: a resume ignores both and completes every job
    bit-identically."""
    specs = [_spec(i, nt=8) for i in range(3)]
    journal = BatchJournal(tmp_path / JOURNAL_NAME, truncate_to=0)
    journal.append(
        "batch", version=1, batch_seed=0, workers=0, capacity=16, tenant_quota=1,
        retry=asdict(RetryPolicy()), heartbeat_interval=0.25,
        heartbeat_timeout=60.0, poison_threshold=3, chaos_active=False,
    )
    for i, (spec, lane) in enumerate(zip(specs, ("bulk", "batch", "interactive"))):
        legacy = dict(spec.to_dict(), tenant=f"team-{i}", lane=lane)
        journal.append("admit", job=spec.job_id, index=i, streamed=False, spec=legacy)
    report = JobPool.resume(tmp_path, workers=0).run()
    assert report.ok and report.resumed
    assert [r.spec for r in report.results] == specs
    _assert_oracle(report, specs)


def test_a_journal_with_shared_memory_records_still_resumes(tmp_path):
    """Journals written while the service still published its model to
    shared memory carry an ``shm`` record (segment names) and a
    ``reclaimed_shm`` list in every ``resume`` record: both fold as audit
    data, nothing is unlinked, and the batch — one attempt in flight at the
    crash — completes bit-identically."""
    specs = [_spec(i, nt=8) for i in range(3)]
    journal = BatchJournal(tmp_path / JOURNAL_NAME, truncate_to=0)
    journal.append(
        "batch", version=1, batch_seed=0, workers=2, capacity=16,
        retry=asdict(RetryPolicy()), heartbeat_interval=0.25,
        heartbeat_timeout=60.0, poison_threshold=3, chaos_active=False,
    )
    journal.append("shm", names=["/psm_dead"])
    for i, spec in enumerate(specs):
        journal.append("admit", job=spec.job_id, index=i, streamed=False,
                       spec=spec.to_dict())
    journal.append("resume", jobs=3, pending=3, reclaimed_shm=[], corruption=None)
    journal.append("attempt", job=specs[0].job_id, attempt=0, engine=specs[0].engine,
                   resume=True, step=None)
    journal.close()
    report = JobPool.resume(tmp_path).run()
    assert report.ok and report.resumed
    assert [r.status for r in report.results] == ["completed"] * 3
    _assert_oracle(report, specs)
    replay = load_journal(tmp_path / JOURNAL_NAME)
    assert len(replay.for_kind("shm")) == 1  # the old record, nothing new
    assert "reclaimed_shm" not in replay.for_kind("resume")[-1]


def test_a_journal_with_a_rerouted_attempt_still_folds_degraded(tmp_path):
    """Supervisors that could reroute dispatch to a lower rung journaled the
    attempt with an ``engine`` other than the spec's.  Such an in-flight
    attempt still folds ``degraded``, and the resumed batch completes
    bit-identically."""
    specs = [_spec(i, nt=8, engine="c") for i in range(2)]
    journal = BatchJournal(tmp_path / JOURNAL_NAME, truncate_to=0)
    journal.append(
        "batch", version=1, batch_seed=0, workers=0, capacity=16,
        retry=asdict(RetryPolicy()), heartbeat_interval=0.25,
        heartbeat_timeout=60.0, poison_threshold=3, chaos_active=False,
    )
    for i, spec in enumerate(specs):
        journal.append("admit", job=spec.job_id, index=i, streamed=False,
                       spec=spec.to_dict())
    journal.append("attempt", job=specs[0].job_id, attempt=0, engine="fused",
                   resume=False, step=None)
    journal.close()
    state = fold(load_journal(tmp_path / JOURNAL_NAME).records, lambda rec: rec["ts"])
    (attempt,) = state.by_id[specs[0].job_id].attempts
    assert attempt.degraded and state.by_id[specs[0].job_id].in_flight
    report = JobPool.resume(tmp_path).run()
    assert report.ok and report.resumed
    assert [r.spec.engine for r in report.results] == ["c", "c"]
    _assert_oracle(report, specs)


def test_a_resumed_attempt_reads_its_snapshot_once(tmp_path, monkeypatch):
    """``resumed_from``, the fields' reset and the run's restore share one
    read (and hash) of the job's checkpoint slots."""
    from repro.jobs.worker import execute_attempt
    from repro.runtime.checkpoint import FileCheckpointStore

    spec = _spec(0, nt=32)
    execute_attempt(spec, tmp_path)  # leaves the job's last two snapshots
    reads = []
    real = FileCheckpointStore.latest

    def counted(store):
        reads.append(store.directory)
        return real(store)

    monkeypatch.setattr(FileCheckpointStore, "latest", counted)
    rec, meta = execute_attempt(spec, tmp_path, attempt=1, resume=True)
    assert meta["resumed_from"] == 32
    assert len(reads) == 1
    np.testing.assert_array_equal(rec, run_job_inline(spec))
