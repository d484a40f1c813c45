"""The live supervisor as a state machine, without processes.

:class:`ScriptedFleet` is a third implementation of the fleet surface
(:mod:`repro.jobs.warm`): attempts never run, their verdicts (``ok`` / ``err``
as fault or sdc / ``crash`` / ``hang``; ``timeout`` from the scripted clock)
are dealt by the test, and ``now`` is a counter the test advances.  A
hypothesis rule-based machine drives a real :class:`JobPool` — real journal,
real ``result.npz`` files — through admissions,
polls, reports, drains and supervisor deaths (the pool abandoned un-shut-down,
then ``JobPool.resume``), and holds it to a small independent model."""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro.jobs.pool as pool_mod
from repro.errors import SilentCorruptionError, WorkerCrashError
from repro.jobs import JOURNAL_NAME, JobPool, JobSpec, RetryPolicy, load_journal

POISON_THRESHOLD = 2
#: what the ``report`` rule deals from: weighted so runs of crashes happen
DEALT = ("ok", "ok", "fault", "sdc", "hang", "crash", "crash", "crash")
FINAL = ("completed", "timeout", "exhausted", "quarantined")


class Clock:
    """The scripted ``perf_counter``: it moves only when the test says so."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class ScriptedFleet:
    """Fleet surface with scripted verdicts: ``send`` parks the attempt,
    :meth:`deal` decides how it ends, ``sweep`` reports it."""

    in_process = False
    workers = ()  # no daemons for the gauges
    hung = 0

    def __init__(self, clock: Clock, slots: int = 2):
        self.clock = clock
        self.slots = slots
        self.spawned = slots
        #: in-flight attempts: SimpleNamespace(worker_id, job, attempt, verdict)
        self.flying = []
        #: every (job_id, verdict) a sweep reported, in order
        self.delivered = []
        #: every (job_id, attempt, resume) ``send`` was handed, in order
        self.sent = []
        #: verdict of attempts nobody dealt one (None = they stay in flight)
        self.default = None

    @property
    def busy(self):
        return list(self.flying)

    def idle(self):
        if len(self.flying) >= self.slots:
            return None
        taken = {slot.worker_id for slot in self.flying}
        free = next(i for i in range(1, self.slots + 1) if i not in taken)
        return SimpleNamespace(worker_id=free, job=None, attempt=0, verdict=None)

    def replenish(self, outstanding):
        pass

    def send(self, worker, job, started, spec, job_dir, attempt, resume, chaos,
             trace=None):
        worker.job, worker.attempt = job, attempt
        self.flying.append(worker)
        self.sent.append((job.spec.job_id, attempt, resume))
        started(worker)
        return worker

    def deal(self, index: int, verdict: str) -> None:
        pending = [slot for slot in self.flying if slot.verdict is None]
        pending[index % len(pending)].verdict = verdict

    def sweep(self, now):
        for slot in list(self.flying):
            job, verdict = slot.job, slot.verdict or self.default
            if verdict is None and job.over_deadline(now):
                verdict = "timeout"
            if verdict is None:
                continue
            self.flying.remove(slot)
            job_id = job.spec.job_id
            self.delivered.append((job_id, verdict))
            if verdict == "ok":
                meta = {"engine": job.spec.engine, "fallbacks": [], "worker": slot.worker_id}
                yield job, "ok", (np.full(3, float(job.index)), meta)
            elif verdict == "timeout":
                yield job, "timeout", None
            elif verdict == "fault":
                yield job, "err", RuntimeError(f"scripted fault in {job_id}")
            elif verdict == "sdc":
                yield job, "err", SilentCorruptionError(
                    "scripted corruption", field="u", detector="growth"
                )
            else:  # crash / hang: the daemon is gone, not the supervisor
                self.hung += verdict == "hang"
                yield job, verdict, WorkerCrashError(
                    f"scripted {verdict}", job_id=job_id, exitcode=-9, attempt=slot.attempt
                )

    def wait(self, timeout):
        self.clock.advance(timeout)

    def shutdown(self):
        pass


def _state_summary(state):
    return [
        (
            job.spec.job_id, job.status, job.attempt_no, job.consecutive_crashes,
            job.force_resume, job.digest,
            [(a.attempt, a.outcome) for a in job.attempts],
            job.jitter_rng.bit_generator.state["state"],
        )
        for job in state.jobs
    ]


class LiveSupervisor(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="repro-live-"))
        self.clock = Clock()
        # the pool module reads the scripted clock; nothing sleeps
        self._real_time = pool_mod.time
        pool_mod.time = SimpleNamespace(perf_counter=self.clock, time=time.time)
        self.pool = JobPool(
            workers=0, workdir=self.dir, batch_seed=7,
            retry=RetryPolicy(base=0.5), poison_threshold=POISON_THRESHOLD,
        )
        self.fleet = self.pool.fleet = ScriptedFleet(self.clock)
        #: the model — per job: budget, failures so far, trailing crashes and
        #: the final status once one is decided
        self.model = {}
        self.sdc_dealt = 0
        self.polls = 0  # since the last supervisor took over

    def teardown(self):
        try:
            self._finish()
        finally:
            pool_mod.time = self._real_time
            self.fleet.shutdown()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules -------------------------------------------------------------------------
    @precondition(lambda self: len(self.model) < 6)
    @rule(max_attempts=st.integers(1, 3), deadline=st.sampled_from([None, 5.0]))
    def admit(self, max_attempts, deadline):
        job_id = f"j{len(self.model)}"
        self.pool.submit(
            JobSpec(job_id, nt=8, max_attempts=max_attempts, deadline=deadline)
        )
        self.model[job_id] = SimpleNamespace(
            budget=max_attempts, deadline=deadline, failures=0, crashes=0, status=None,
            orphaned=False,
        )

    @rule(dt=st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    def poll(self, dt):
        self.clock.advance(dt)
        self.pool._poll(self.clock())
        self._absorb()
        self.polls += 1

    @precondition(lambda self: any(s.verdict is None for s in self.fleet.flying))
    @rule(index=st.integers(0, 3), verdict=st.sampled_from(DEALT),
          dt=st.sampled_from([0.0, 0.1, 1.0]))
    def report(self, index, verdict, dt):
        self.fleet.deal(index, verdict)
        self.poll(dt)

    @precondition(lambda self: self.fleet.flying and not self.pool.state.draining)
    @rule()
    def drain(self):
        self.pool.request_drain()

    @precondition(lambda self: self.polls >= 4)
    @rule()
    def supervisor_dies(self):
        """SIGKILL, as far as the batch directory can tell: no shutdown, no
        ``finally`` — in-flight attempts orphaned — then two
        successors in a row resume the journal."""
        self._resume()

    # -- the model ---------------------------------------------------------------------
    def _absorb(self):
        """Fold what the last poll sent and the last sweep delivered into the
        model."""
        for job_id, attempt, resume in self.fleet.sent:
            entry = self.model[job_id]
            # a retry resumes from checkpoint; so does the first dispatch
            # after a supervisor died with the attempt in flight
            assert attempt == entry.failures
            assert resume == (attempt > 0 or entry.orphaned), (job_id, attempt)
            entry.orphaned = False
        self.fleet.sent.clear()
        for job_id, verdict in self.fleet.delivered:
            entry = self.model[job_id]
            assert entry.status is None, f"{job_id} reported after {entry.status}"
            # only an unbroken run of crashes counts toward quarantine
            entry.crashes = entry.crashes + 1 if verdict == "crash" else 0
            if verdict == "ok":
                entry.status = "completed"
            elif verdict == "timeout":
                assert entry.deadline is not None
                entry.status = "timeout"
            else:
                entry.failures += 1
                self.sdc_dealt += verdict == "sdc"
                if entry.crashes >= POISON_THRESHOLD:
                    entry.status = "quarantined"
                elif entry.failures >= entry.budget:
                    entry.status = "exhausted"
        self.fleet.delivered.clear()

    def _resume(self):
        for slot in self.fleet.flying:
            self.model[slot.job.spec.job_id].orphaned = True
        self.polls = 0
        self.pool._journal.close()
        first = JobPool.resume(self.dir, workers=0)
        seen = _state_summary(first.state)
        first._journal.close()
        # a second resume over the resumed journal folds to the same state
        self.pool = JobPool.resume(self.dir, workers=0)
        assert _state_summary(self.pool.state) == seen
        self.fleet = self.pool.fleet = ScriptedFleet(self.clock)
        for entry in self.model.values():  # a job is interrupted only until resumed
            if entry.status == "interrupted":
                entry.status = None

    def _finish(self):
        """Let every remaining attempt succeed and run the real drive loop to
        the end — through a resume if a drain interrupted the batch."""
        self.fleet.default = "ok"
        report = self.pool.run()
        self._absorb()
        if report.drained:
            self._resume()
            self.fleet.default = "ok"
            report = self.pool.run()
            self._absorb()
        assert not report.drained
        for result in report.results:
            entry = self.model[result.spec.job_id]
            # a deadline can also die in backoff, where no sweep reports it
            assert result.status == (entry.status or "timeout"), result.spec.job_id
            assert result.status in FINAL
            assert result.status != "timeout" or entry.deadline is not None
        self._check_journal()

    # -- invariants --------------------------------------------------------------------
    @invariant()
    def every_job_is_in_exactly_one_place(self):
        state = self.pool.state
        ready = list(state.ready)
        delayed = [entry[2] for entry in state.delayed]
        flying = [slot.job for slot in self.fleet.flying]
        for job in state.jobs:
            places = (
                int(job.terminal) + ready.count(job) + delayed.count(job) + flying.count(job)
            )
            assert places == 1, (job.spec.job_id, job.status, places)
            assert job.in_flight == (job in flying)

    @invariant()
    def budgets_are_counted_once(self):
        for job in self.pool.state.jobs:
            entry = self.model[job.spec.job_id]
            if entry.status is None and job.terminal:
                # decided without a report: a deadline that died in backoff
                # (an outcome like any other: it ends a run of crashes), or a
                # drain that left the job for a successor
                assert job.status in ("timeout", "interrupted"), job.status
                if job.status == "timeout":
                    assert entry.deadline is not None
                    entry.crashes = 0
                entry.status = job.status
            assert job.status == entry.status
            assert job.consecutive_crashes == entry.crashes
            assert len(job.attempts) <= entry.budget
            if not job.terminal:
                assert job.attempt_no == entry.failures
            if job.status == "quarantined":
                assert entry.crashes == POISON_THRESHOLD

    # -- the journal, read back ---------------------------------------------------------
    def _check_journal(self):
        replay = load_journal(self.dir / JOURNAL_NAME)
        assert replay.corruption is None
        open_attempt, terminals, final = {}, set(), {}
        for rec in replay.records:
            kind, job = rec["kind"], rec.get("job")
            if kind == "resume":  # orphans are re-queued, a new lifetime begins
                open_attempt.clear()
                terminals.clear()
            elif kind == "attempt":
                assert job not in open_attempt, f"{job}: two attempts in flight"
                open_attempt[job] = rec["attempt"]
            elif kind == "outcome":
                if job in open_attempt:
                    assert open_attempt.pop(job) == rec["attempt"]
                else:  # only a deadline that died in backoff has nothing open
                    assert rec["outcome"] == "timeout", rec
            elif kind == "terminal":
                assert job not in open_attempt, f"{job}: terminal with an attempt open"
                assert job not in terminals, f"{job}: two terminal records in one lifetime"
                terminals.add(job)
                if rec["status"] != "interrupted":
                    assert job not in final, f"{job}: {final.get(job)} then {rec['status']}"
                    final[job] = rec["status"]
        assert final == {job_id: entry.status or "timeout" for job_id, entry in self.model.items()}
        unrecovered = [r for r in replay.for_kind("sdc") if not r["recovered"]]
        assert len(unrecovered) == self.sdc_dealt
        quarantined = [r for r in replay.for_kind("terminal") if r["status"] == "quarantined"]
        assert len(quarantined) == sum(e.status == "quarantined" for e in self.model.values())


TestLiveSupervisor = LiveSupervisor.TestCase
TestLiveSupervisor.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
