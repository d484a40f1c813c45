"""The supervisor's pure core, driven without processes, sleeps or a real
clock: scripted journal records and a fake ``now`` through every outcome ×
budget corner, and — on the journal of one real chaos batch — the property
that replay *is* the state machine: every prefix folds to a consistent
state, and the full journal folds to the live pool's final state."""

from __future__ import annotations

import pytest

from repro.errors import (
    JobTimeoutError,
    PoisonJobError,
    QueueSaturatedError,
    RetryExhaustedError,
)
from repro.jobs import (
    JOURNAL_NAME, ChaosConfig, JobPool, JobSpec, RetryPolicy, load_journal,
)
from repro.jobs.spec import STATUSES
from repro.jobs.transitions import (
    PRESSURE_FRACTION,
    BatchState,
    apply,
    check_admission,
    fold,
    pressured_spec,
    promote,
    reopen,
)

RETRY = {"base": 1.0, "factor": 2.0, "max_delay": 8.0, "jitter": 0.5}


class Script:
    """A batch driven by hand: records in, events out, ``now`` from the test."""

    def __init__(self, **header):
        self.state = BatchState("/batch")
        self.effects = []
        self("batch", 0.0, batch_seed=7, retry=RETRY, **header)

    def __call__(self, kind, now, **payload):
        out = list(apply(self.state, {"kind": kind, **payload}, now))
        for event in out:  # every effect is a lifecycle event: (kind, job, info)
            assert [type(part) for part in event] == [str, str, dict], event
        self.effects += out
        return out

    def admit(self, job_id, now=0.0, **spec):
        spec = JobSpec(job_id, nt=8, checkpoint_every=4, **spec)
        check_admission(self.state, spec)
        self("admit", now, job=job_id, index=len(self.state.jobs),
             streamed=False, spec=spec.to_dict())
        return self.state.by_id[job_id]

    def attempt(self, job, now, engine=None):
        self("attempt", now, job=job.spec.job_id, attempt=job.attempt_no,
             engine=engine or job.spec.engine, resume=job.attempt_no > 0, step=None)

    def outcome(self, job, now, outcome, **extra):
        if outcome not in ("completed", "timeout"):
            extra.setdefault("error", f"Boom: {outcome}")
        return self("outcome", now, job=job.spec.job_id,
                    attempt=job.attempts[-1].attempt if job.attempts else 0,
                    outcome=outcome, **extra)

    def events(self, kind):
        return [e for e in self.effects if e[0] == kind]


def location(state, job):
    """The queues/flags *job* is in — a consistent state has exactly one."""
    return (
        ["ready"] * sum(1 for j in state.ready if j is job)
        + ["delayed"] * sum(1 for e in state.delayed if e[2] is job)
        + ["in-flight"] * job.in_flight
        + ["terminal"] * job.terminal
    )


# -- (i) table tests: every outcome × budget corner ---------------------------------
@pytest.mark.parametrize("outcome", ["fault", "sdc", "crash", "hang"])
def test_failed_attempt_with_budget_left_backs_off_and_retries(outcome):
    s = Script()
    job = s.admit("a", max_attempts=3)
    s.attempt(job, 1.0)
    assert location(s.state, job) == ["in-flight"]
    expected = RetryPolicy(**RETRY).delay(
        1, RetryPolicy(**RETRY).rng_for(7, 0), outcome=outcome
    )
    s.outcome(job, 2.0, outcome)
    assert location(s.state, job) == ["delayed"]
    assert job.attempt_no == 1 and not job.terminal
    # the jitter draw happened inside the transition, from the job's stream
    assert s.state.delayed[0][0] == pytest.approx(2.0 + expected)
    (retried,) = s.events("retried")
    assert retried[1] == "a" and retried[2]["delay"] == pytest.approx(expected)
    record = job.attempts[0]
    assert (record.outcome, record.started, record.ended) == (outcome, 1.0, 2.0)
    assert record.error == f"Boom: {outcome}"
    # only a crash feeds quarantine (sdc backs off flat: see below)
    assert job.consecutive_crashes == (1 if outcome == "crash" else 0)
    # backoff expiry is the shell's timer: nothing moves before it is due
    assert promote(s.state, 2.0 + expected - 1e-6) == []
    assert location(s.state, job) == ["delayed"]
    assert promote(s.state, 2.0 + expected) == []
    assert location(s.state, job) == ["ready"]


def test_retry_budget_exhausts_with_full_history():
    s = Script()
    job = s.admit("a", max_attempts=2)
    s.attempt(job, 1.0)
    s.outcome(job, 2.0, "fault")
    promote(s.state, 99.0)
    s.attempt(job, 100.0)
    s.outcome(job, 101.0, "fault")
    assert job.status == "exhausted" and location(s.state, job) == ["terminal"]
    assert isinstance(job.error, RetryExhaustedError)
    assert [a["attempt"] for a in job.error.attempts] == [0, 1]
    assert "Boom: fault" in str(job.error)
    s("terminal", 101.0, job="a", status="exhausted", attempts=2, error="x")
    assert s.events("exhausted")[0][2] == {"attempts": 2}
    assert s.state.terminals == 1 and s.state.active == 0


def test_consecutive_crashes_quarantine_at_the_threshold_only():
    s = Script(poison_threshold=2)
    job = s.admit("a", max_attempts=9)
    for now in (1.0, 20.0):  # crash, then a hang: the streak is broken
        s.attempt(job, now)
        s.outcome(job, now + 1, "crash" if now == 1.0 else "hang")
        promote(s.state, now + 15)
    assert job.consecutive_crashes == 0 and not job.terminal
    for now in (40.0, 60.0):
        s.attempt(job, now)
        s.outcome(job, now + 1, "crash")
        promote(s.state, now + 15)
    assert job.status == "quarantined" and job.consecutive_crashes == 2
    err = job.error
    assert isinstance(err, PoisonJobError) and err.crashes == 2
    assert err.job_dir == "/batch/a" and len(err.attempts) == 4
    assert location(s.state, job) == ["terminal"]
    s("terminal", 61.0, job="a", status="quarantined", attempts=4, error="x")
    assert s.events("quarantined")[0][2] == {"crashes": 2}


def test_sdc_never_counts_toward_quarantine():
    s = Script(poison_threshold=1)
    job = s.admit("a", max_attempts=4)
    s.attempt(job, 1.0)
    s.outcome(job, 2.0, "sdc")
    assert not job.terminal and job.consecutive_crashes == 0
    # ...and its backoff is the flat base delay, whatever the attempt number
    assert s.state.delayed[0][0] - 2.0 <= RETRY["base"] * (1 + RETRY["jitter"])


def test_completed_result_past_deadline_still_completes():
    s = Script()
    job = s.admit("a", deadline=1.0)
    s.attempt(job, 10.0)
    assert job.over_deadline(12.0)
    s.outcome(job, 12.0, "completed", engine="fused", digest="d" * 64)
    assert job.status == "completed" and job.digest == "d" * 64
    assert job.attempts[0].engine == "fused" and job.error is None


def test_deadline_kill_in_flight_times_out():
    s = Script()
    job = s.admit("a", deadline=1.0)
    s.attempt(job, 10.0)
    s.outcome(job, 11.5, "timeout")
    assert job.status == "timeout" and job.attempts[0].outcome == "timeout"
    assert isinstance(job.error, JobTimeoutError)
    assert job.error.elapsed == pytest.approx(1.5)
    s("terminal", 11.5, job="a", status="timeout", attempts=1, error="x")
    assert s.events("timeout")[0][2] == {"elapsed": pytest.approx(1.5)}


def test_deadline_expiring_in_backoff_times_out_without_an_open_attempt():
    s = Script()
    job = s.admit("a", deadline=2.0, max_attempts=5)
    s.attempt(job, 0.0)
    s.outcome(job, 1.5, "fault")
    # the backoff is capped at the remaining budget, never slept past it
    assert s.state.delayed[0][0] <= 2.0
    assert promote(s.state, 1.9) == []
    assert promote(s.state, 2.5) == [job]  # the shell times these out
    s.outcome(job, 2.5, "timeout")
    assert job.status == "timeout" and location(s.state, job) == ["terminal"]
    assert [a.outcome for a in job.attempts] == ["fault"]  # nothing was open


def test_deadline_pressure_degrades_the_schedule_on_retries_only():
    s = Script()
    job = s.admit("a", deadline=10.0, max_attempts=3)
    assert pressured_spec(job, 0.0) is job.spec
    s.attempt(job, 0.0)
    late = PRESSURE_FRACTION * 10.0 + 1.0
    s.outcome(job, late, "fault")
    assert pressured_spec(job, late).schedule == "naive"
    promote(s.state, late + 9.0)
    s.attempt(job, late)
    assert [a.degraded for a in job.attempts] == [False, True]
    # a journaled engine other than the spec's (a parent journal's reroute)
    # still folds degraded
    other = s.admit("b")
    s.attempt(other, 0.0, engine="interp")
    assert other.attempts[0].degraded


def test_drain_interrupts_everything_unfinished_and_active_returns_to_zero():
    s = Script(capacity=3)
    a = s.admit("a")
    b = s.admit("b")
    c = s.admit("c")
    assert list(s.state.ready) == [a, b, c]  # FIFO: admission order
    with pytest.raises(QueueSaturatedError, match="3/3"):
        s.admit("d")
    with pytest.raises(ValueError, match="duplicate"):
        s.admit("a")
    s.attempt(a, 1.0)
    s.outcome(a, 2.0, "completed", engine="fused", digest="0" * 64)
    s("terminal", 2.0, job="a", status="completed", attempts=1, error="")
    s.attempt(b, 2.0)
    s.outcome(b, 3.0, "fault")  # b is backing off, c still ready
    s("drain", 3.0, signal=15)
    assert s.state.draining and s.events("drain")[0][2] == {"signal": 15}
    for job in (b, c):
        s("terminal", 4.0, job=job.spec.job_id, status="interrupted",
          attempts=len(job.attempts), error="")
        assert location(s.state, job) == ["terminal"]
    assert s.state.active == 0
    assert s.state.terminals == 3 and not s.state.ready and not s.state.delayed
    terminal_events = [e[0] for e in s.effects if e[0] in STATUSES]
    assert terminal_events == ["completed", "interrupted", "interrupted"]
    # a later supervisor reopens exactly the interrupted ones
    s("resume", 100.0, jobs=3, pending=2, reclaimed_shm=[], corruption=None)
    assert not s.state.draining and s.state.terminals == 0
    assert [location(s.state, j) for j in (a, b, c)] == [
        ["terminal"], ["ready"], ["ready"],
    ]
    assert (b.attempt_no, c.attempt_no) == (1, 0) and b.first_started is None
    assert [e[2]["resume"] for e in s.events("readmitted")] == [True, False]
    assert list(s.state.ready) == [b, c] and s.state.active == 2


def test_resume_orphans_the_in_flight_attempt_and_reuses_its_number():
    s = Script()
    job = s.admit("a")
    s("shm", 0.5, names=["/psm_x"])  # an older supervisor's record: audit only
    s.attempt(job, 1.0)
    s("resume", 50.0, jobs=1, pending=1, reclaimed_shm=["/psm_x"], corruption=None)
    assert location(s.state, job) == ["ready"] and job.force_resume
    assert job.attempts == [] and job.attempt_no == 0
    s.attempt(job, 51.0)
    assert [a.attempt for a in job.attempts] == [0] and not job.force_resume


def test_a_demoted_result_reopens_and_an_attempt_on_it_is_accepted():
    s = Script()
    job = s.admit("a")
    s.attempt(job, 1.0)
    s.outcome(job, 2.0, "completed", engine="fused", digest="0" * 64)
    s("terminal", 2.0, job="a", status="completed", attempts=1, error="")
    reopen(s.state, job)  # what resume does when result.npz fails verification
    assert location(s.state, job) == ["ready"] and job.digest is None
    # a second resume folds the first one's re-run: the attempt record finds
    # the job terminal in the journal and reopens it the same way
    t = Script()
    twin = t.admit("a")
    t.attempt(twin, 1.0)
    t.outcome(twin, 2.0, "completed", engine="fused", digest="0" * 64)
    t.attempt(twin, 60.0)
    assert location(t.state, twin) == ["in-flight"] and t.state.active == 1


# -- (ii) + (iii): replay is the state machine ----------------------------------------
def summary(state):
    """Everything about a state that must survive a fold, as plain data.
    Clock readings are excluded (live runs on perf_counter, replay on
    ``ts``)."""
    return {
        "jobs": [
            (
                j.spec.job_id, j.index, j.status, j.attempt_no, j.in_flight,
                j.consecutive_crashes, j.force_resume, j.digest,
                type(j.error).__name__,
                [(a.attempt, a.outcome, a.error, a.engine) for a in j.attempts],
                # the jitter stream's position
                j.jitter_rng.bit_generator.state["state"],
            )
            for j in state.jobs
        ],
        "ready": [j.spec.job_id for j in state.ready],
        "delayed": [j.spec.job_id for _, _, j in sorted(state.delayed)],
        "terminals": state.terminals,
        "active": state.active,
        "draining": state.draining,
    }


@pytest.fixture(scope="session")
def chaos_journal(tmp_path_factory):
    """One real chaos batch (injected faults + a SIGKILLed daemon), run once:
    its journal records and the live pool's final state."""
    workdir = tmp_path_factory.mktemp("chaos-journal")
    pool = JobPool(
        workers=2,
        workdir=workdir,
        batch_seed=77,
        chaos=ChaosConfig(fault_rate=0.5, kinds=("raise",), kill_workers=1),
    )
    for i in range(6):
        pool.submit(JobSpec(f"p{i}", nt=64, seed=300 + i, checkpoint_every=8,
                            max_attempts=4))
    report = pool.run()
    assert report.ok and report.kills == 1 and report.retries >= 2
    replay = load_journal(workdir / JOURNAL_NAME)
    assert replay.corruption is None
    return replay.records, pool.state


@pytest.mark.faults
def test_every_journal_prefix_folds_to_a_consistent_state(chaos_journal):
    records, live = chaos_journal
    outcomes = {r["outcome"] for r in records if r["kind"] == "outcome"}
    # the corners it crosses: three jobs fault by the seeded plan and the one
    # kill can pre-empt at most one of them (the kill itself normally shows
    # as a "crash", unless that daemon's report raced it into the pipe)
    assert {"completed", "fault"} <= outcomes
    for n in range(1, len(records) + 1):
        prefix = records[:n]
        state = fold(prefix, lambda rec: rec["ts"])
        admitted = [r["job"] for r in prefix if r["kind"] == "admit"]
        assert [j.spec.job_id for j in state.jobs] == admitted
        for job in state.jobs:
            assert len(location(state, job)) == 1, (n, job.spec.job_id)
        terminal = [r for r in prefix if r["kind"] == "terminal"]
        assert state.terminals == len(terminal)
        assert {r["job"] for r in terminal} <= {
            j.spec.job_id for j in state.jobs if j.terminal
        }
        assert state.active == sum(not j.terminal for j in state.jobs)
    assert summary(fold(records, lambda rec: rec["ts"])) == summary(live)


@pytest.mark.faults
def test_folding_a_prefix_twice_gives_equal_states_and_jitter_positions(
    chaos_journal,
):
    records, _ = chaos_journal
    retried = [i for i, r in enumerate(records)
               if r["kind"] == "outcome" and r["outcome"] != "completed"]
    for n in (retried[0] + 1, retried[-1] + 1, len(records) // 2, len(records)):
        first = fold(records[:n], lambda rec: rec["ts"])
        second = fold(records[:n], lambda rec: rec["ts"])
        assert summary(first) == summary(second)
    # a stream advances by exactly one draw per scheduled retry
    final = fold(records, lambda rec: rec["ts"])
    policy = final.retry
    for job in final.jobs:
        fresh = policy.rng_for(final.batch_seed, job.index)
        for _ in range(job.attempt_no):
            fresh.random()
        assert (fresh.bit_generator.state["state"]
                == job.jitter_rng.bit_generator.state["state"])
