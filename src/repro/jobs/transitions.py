"""The batch supervisor's state machine, as a pure fold over journal records.

:class:`BatchState` / :class:`JobState` are plain data — no path, process
handle, clock or registry — and :func:`apply` is the *only* thing that
changes them: one handler per :data:`~repro.jobs.journal.JOURNAL_KINDS`
entry, taking exactly the record that is journaled plus a ``now`` reading
and returning the lifecycle events the caller may emit or drop.  :class:`~repro.jobs.pool.JobPool` drives it twice: live (*decide →
journal the record → apply → perform the effects*) and on resume
(:func:`fold` over the verified journal prefix, effects dropped), so replay
is the state machine by construction.  Retry, quarantine, exhaustion and
deadline-pressure decisions are functions of ``(state, now)`` made inside
the handlers, and a job's backoff jitter is drawn there too — folding a
prefix leaves every jitter stream exactly where the live supervisor had it.
DESIGN.md §8 has the state × record-kind transition table.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import (
    JobTimeoutError,
    PoisonJobError,
    QueueSaturatedError,
    RetryExhaustedError,
)
from .journal import JOURNAL_KINDS
from .retry import RetryPolicy
from .spec import AttemptRecord, JobSpec

__all__ = [
    "DEFAULT_CAPACITY",
    "PRESSURE_FRACTION",
    "JobState",
    "BatchState",
    "HANDLERS",
    "check_handlers",
    "apply",
    "fold",
    "check_admission",
    "pressured_spec",
    "promote",
    "reopen",
]

DEFAULT_CAPACITY = 256

#: fraction of its deadline a job may burn before retries dispatch degraded
PRESSURE_FRACTION = 0.5

#: ``(kind, job, info)`` — one lifecycle event: its kind, the job id (``""``
#: for batch-scoped ones) and its details
Effect = Tuple[str, str, dict]


def _event(kind: str, job: str = "", **info) -> Effect:
    return (kind, job, info)


@dataclass(eq=False)
class JobState:
    """Supervisor-side state of one admitted job."""

    index: int
    spec: JobSpec
    #: the job's private backoff-jitter stream (drawn only inside ``apply``)
    jitter_rng: np.random.Generator
    attempt_no: int = 0
    #: every attempt that reached an outcome, plus the open one while in flight
    attempts: List[AttemptRecord] = field(default_factory=list)
    first_started: Optional[float] = None
    #: an ``attempt`` record has no ``outcome`` record yet
    in_flight: bool = False
    #: consecutive daemon-crash outcomes (the quarantine trigger)
    consecutive_crashes: int = 0
    #: a later supervisor found an attempt in flight: the next dispatch must
    #: resume from checkpoint even though no failure outcome was journaled
    force_resume: bool = False
    #: terminal status (None while the job is ready, delayed or in flight)
    status: Optional[str] = None
    #: the terminal error of a timeout / exhausted / quarantined job
    error: Optional[BaseException] = None
    #: SHA-256 of the durable ``result.npz`` a completed outcome recorded
    digest: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.status is not None

    def elapsed(self, now: float) -> float:
        return 0.0 if self.first_started is None else now - self.first_started

    def over_deadline(self, now: float) -> bool:
        return (
            self.spec.deadline is not None
            and self.first_started is not None
            and self.elapsed(now) > self.spec.deadline
        )


class BatchState:
    """Everything the supervisor knows about its batch.

    A non-terminal job is in exactly one of ``ready`` (a FIFO deque of
    jobs, dispatched from the left), ``delayed`` (a heap of ``(ready_time,
    seq, job)`` — backing off) or in flight (``job.in_flight``).  The
    configuration fields are set by the ``batch`` record.
    """

    def __init__(self, workdir: str = ""):
        #: batch directory, as a string — only ever quoted in forensics
        self.workdir = workdir
        self.retry = RetryPolicy()
        self.batch_seed = 0
        self.capacity = DEFAULT_CAPACITY
        self.poison_threshold = 3
        self.jobs: List[JobState] = []
        self.by_id: Dict[str, JobState] = {}
        self.ready: deque = deque()
        self.delayed: list = []
        self.seq = 0
        #: admitted-but-unfinished jobs
        self.active = 0
        #: ``terminal`` records seen since the last supervisor took over
        self.terminals = 0
        self.draining = False


# -- decisions (pure functions of state and now) ---------------------------------------
def check_admission(state: BatchState, spec: JobSpec) -> None:
    """Raise unless *spec* may be admitted now: ``ValueError`` for a duplicate
    id, :class:`QueueSaturatedError` — backpressure, not failure — at
    capacity."""
    if spec.job_id in state.by_id:
        raise ValueError(f"duplicate job_id {spec.job_id!r}")
    pending = state.active
    if pending >= state.capacity:
        raise QueueSaturatedError(
            f"admission queue is full ({pending}/{state.capacity}); "
            "drain the pool or shed load",
            capacity=state.capacity,
            pending=pending,
        )


def pressured_spec(job: JobState, now: float) -> JobSpec:
    """The spec *job*'s next attempt runs: under deadline pressure a retry is
    downgraded to the naive schedule — minimal precompute, and per-timestep
    (not per-tile) checkpoint granularity, so any further retry loses the
    least work.  Numerics are unchanged: all schedules are bit-identical."""
    spec = job.spec
    if (
        job.attempt_no > 0
        and spec.deadline is not None
        and spec.schedule != "naive"
        and job.elapsed(now) > PRESSURE_FRACTION * spec.deadline
    ):
        return replace(spec, schedule="naive")
    return spec


def promote(state: BatchState, now: float) -> List[JobState]:
    """Move delayed jobs whose backoff expired to ``ready``; return the
    delayed jobs whose deadline died waiting, for the caller to time out.

    Backoff expiry is the one unjournaled transition: timers are not
    durable, and a resuming supervisor re-queues every waiting job."""
    dead = [job for _, _, job in state.delayed if job.over_deadline(now)]
    while state.delayed and state.delayed[0][0] <= now:
        job = heapq.heappop(state.delayed)[2]
        if not job.over_deadline(now):
            state.ready.append(job)
    return dead


def reopen(state: BatchState, job: JobState) -> None:
    """Send a terminal job back to ``ready`` — an ``interrupted`` job a later
    supervisor picks up, or a ``completed`` one whose durable result failed
    verification and must be recomputed."""
    job.status = job.error = job.digest = None
    _open(state, job)


def _open(state: BatchState, job: JobState) -> None:
    """Count *job* as active and queue it for dispatch."""
    state.active += 1
    state.ready.append(job)


def _dequeue(state: BatchState, job: JobState) -> None:
    if job in state.ready:  # JobState compares by identity
        state.ready.remove(job)
    kept = [entry for entry in state.delayed if entry[2] is not job]
    if len(kept) != len(state.delayed):
        state.delayed[:] = kept
        heapq.heapify(state.delayed)


def _close(
    state: BatchState, job: JobState, status: str,
    error: Optional[BaseException] = None,
) -> None:
    """Make *job* terminal (idempotent: the ``outcome`` record decides every
    status but ``interrupted``, the ``terminal`` record confirms it)."""
    if job.terminal:
        return
    _dequeue(state, job)
    job.status, job.error = status, error
    state.active -= 1


# -- handlers: one per journal record kind ---------------------------------------------
def _on_batch(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    if rec.get("retry"):
        state.retry = RetryPolicy(**rec["retry"])
    state.batch_seed = int(rec.get("batch_seed", 0))
    state.capacity = int(rec.get("capacity", DEFAULT_CAPACITY))
    state.poison_threshold = int(rec.get("poison_threshold", 3))
    return ()


def _on_shm(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    """An older supervisor's shared-memory segment names: nothing to replay."""
    return ()


def _on_admit(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    spec = JobSpec.from_dict(rec["spec"])
    if spec.job_id in state.by_id:
        return ()  # duplicate admit record; first wins
    index = int(rec.get("index", len(state.jobs)))
    job = JobState(
        index=index,
        spec=spec,
        jitter_rng=state.retry.rng_for(state.batch_seed, index),
    )
    state.jobs.append(job)
    state.by_id[spec.job_id] = job
    _open(state, job)
    return (_event("queued", spec.job_id, streamed=bool(rec.get("streamed", False))),)


def _on_attempt(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    job = state.by_id[rec["job"]]
    if job.terminal:
        # only a resumed supervisor re-runs a terminal job: it demoted a
        # completed result that failed verification on disk
        reopen(state, job)
    _dequeue(state, job)
    if job.first_started is None:
        job.first_started = now
    job.attempts.append(
        AttemptRecord(
            attempt=int(rec["attempt"]),
            started=now,
            # deadline pressure changed the schedule; an engine that differs
            # from the spec's comes from journals of a supervisor that could
            # reroute dispatch, which still fold as before
            degraded=rec["engine"] != job.spec.engine
            or pressured_spec(job, now) is not job.spec,
        )
    )
    job.in_flight = True
    job.force_resume = False
    return ()


def _on_outcome(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    job = state.by_id[rec["job"]]
    job_id, outcome = job.spec.job_id, rec["outcome"]
    error = rec.get("error", "")
    if job.in_flight:  # (a deadline can also expire in backoff: nothing open)
        attempt = job.attempts[-1]
        attempt.ended, attempt.outcome, attempt.error = now, outcome, error
        attempt.engine = rec.get("engine", "")
        job.in_flight = False
    job.consecutive_crashes = job.consecutive_crashes + 1 if outcome == "crash" else 0
    if outcome == "completed":
        job.digest = rec.get("digest")
        _close(state, job, "completed")
    elif outcome == "timeout":
        _close(state, job, "timeout", JobTimeoutError(
            f"job {job_id} exceeded its {job.spec.deadline:.3f}s deadline",
            job_id=job_id,
            deadline=job.spec.deadline,
            elapsed=job.elapsed(now),
        ))
    elif job.consecutive_crashes >= state.poison_threshold:
        job_dir = os.path.join(state.workdir, job_id)
        _close(state, job, "quarantined", PoisonJobError(
            f"job {job_id} quarantined: it crashed {job.consecutive_crashes} "
            f"consecutive daemon(s); forensics under {job_dir}",
            job_id=job_id,
            crashes=job.consecutive_crashes,
            attempts=[a.to_dict() for a in job.attempts],
            job_dir=job_dir,
        ))
    elif job.attempt_no + 1 >= job.spec.max_attempts:
        _close(state, job, "exhausted", RetryExhaustedError(
            f"job {job_id} failed all {job.spec.max_attempts} attempt(s); "
            f"last error: {error}",
            job_id=job_id,
            attempts=[a.to_dict() for a in job.attempts],
        ))
    else:
        job.attempt_no += 1
        # backoff never sleeps a job past its own deadline: the delay is
        # capped at the remaining budget (the jitter draw is consumed
        # regardless, so the per-job backoff stream stays deterministic)
        budget = None
        if job.spec.deadline is not None and job.first_started is not None:
            budget = job.spec.deadline - job.elapsed(now)
        delay = state.retry.delay(
            job.attempt_no, job.jitter_rng, budget=budget, outcome=outcome
        )
        state.seq += 1
        heapq.heappush(state.delayed, (now + delay, state.seq, job))
        return (
            _event("retried", job_id, attempt=job.attempt_no, delay=delay, error=error),
        )
    return ()


def _on_terminal(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    job = state.by_id[rec["job"]]
    status = rec["status"]
    _close(state, job, status)  # "interrupted" has no outcome: decided here
    state.terminals += 1
    if status == "timeout":
        info = {"elapsed": job.elapsed(now)}
    elif status == "quarantined":
        info = {"crashes": job.consecutive_crashes}
    else:
        info = {"attempts": len(job.attempts)}
    return (_event(status, job.spec.job_id, **info),)


def _on_stream_failed(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    return (_event("stream_failed", admitted=rec["admitted"], error=rec["reason"]),)


def _on_sdc(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    if not rec.get("recovered"):
        detector = rec.get("detector", "growth")
        return (_event("sdc", rec["job"], attempt=rec["attempt"], detector=detector),)
    return (
        _event(
            "sdc_recovered", rec["job"], attempt=rec["attempt"],
            detections=int(rec.get("detections", 0)),
            tiles_reexecuted=int(rec.get("tiles_reexecuted", 0)),
        ),
    )


def _on_storage_degraded(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    return (_event("storage_degraded", error=rec.get("error"), op=rec.get("op")),)


def _on_drain(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    state.draining = True
    return (_event("drain", signal=rec.get("signal")),)


def _on_resume(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    """A later supervisor took over: whatever was in flight is orphaned (its
    checkpoints are on disk, so the retry resumes), ``interrupted`` jobs
    reopen, backoff timers are void and deadline clocks restart."""
    state.draining = False
    state.terminals = 0
    state.ready.clear()
    state.delayed.clear()
    effects = []
    for job in state.jobs:
        if job.status == "interrupted":
            reopen(state, job)
        elif job.terminal:
            continue
        else:
            state.ready.append(job)
        if job.in_flight:
            job.attempts.pop()  # never concluded; the retry reuses its number
            job.in_flight = False
            job.force_resume = True
        job.first_started = None
        effects.append(
            _event(
                "readmitted", job.spec.job_id, attempt=job.attempt_no,
                resume=job.force_resume or job.attempt_no > 0,
            )
        )
    return effects


def _on_batch_end(state: BatchState, rec: dict, now: float) -> Iterable[Effect]:
    return ()


HANDLERS: Dict[str, Callable[[BatchState, dict, float], Iterable[Effect]]] = {
    "batch": _on_batch,
    "shm": _on_shm,
    "admit": _on_admit,
    "attempt": _on_attempt,
    "outcome": _on_outcome,
    "terminal": _on_terminal,
    "stream_failed": _on_stream_failed,
    "sdc": _on_sdc,
    "storage_degraded": _on_storage_degraded,
    "drain": _on_drain,
    "resume": _on_resume,
    "batch_end": _on_batch_end,
}


def check_handlers(handlers: dict, kinds: Iterable[str]) -> None:
    """Every declared journal kind has a handler and every handler a declared
    kind — run at import, so schema drift cannot reach a batch."""
    drift = set(handlers) ^ set(kinds)
    if drift:
        raise KeyError(
            f"journal kinds and transition handlers disagree on {sorted(drift)}"
        )


check_handlers(HANDLERS, JOURNAL_KINDS)


def apply(state: BatchState, record: dict, now: float) -> Iterable[Effect]:
    """Advance *state* by one journal *record* at clock reading *now*;
    returns the events of the transition.  ``KeyError`` for an undeclared
    record kind."""
    return HANDLERS[record["kind"]](state, record, now)


def fold(
    records: Iterable[dict], now_of: Callable[[dict], float], workdir: str = ""
) -> BatchState:
    """The state a supervisor that journaled *records* was in — events
    dropped.  *now_of* maps a record to the clock reading it was applied at."""
    state = BatchState(workdir)
    for record in records:
        apply(state, record, now_of(record))
    return state
