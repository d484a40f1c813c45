"""The warm-worker batch executor — the I/O shell around the pure supervisor
state machine of :mod:`repro.jobs.transitions`.

One :class:`JobPool` drives one batch.  Every state transition goes through
one path, :meth:`JobPool._record`: *journal the record write-ahead → fold it
through* :func:`~repro.jobs.transitions.apply` *→ perform the returned
effects*; :meth:`JobPool.resume` folds a dead supervisor's journal through
the same handlers and reconciles the result with disk.  What is left to the
shell is what a pure function cannot own: the fsynced journal file, signals,
durable ``result.npz`` writes, chaos kills and the one drive loop here;
where attempts run behind the fleet surface of :mod:`repro.jobs.warm` —
daemons and pipes in :class:`~repro.jobs.warm.WarmFleet`, or this very
process in :class:`~repro.jobs.warm.InlineFleet` (``workers=0``: no kills,
post-hoc deadlines); supervisor accounting and trace plumbing in
:mod:`repro.jobs.observe`.
DESIGN.md §8 has the transition table and the fault-domain table.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..errors import SilentCorruptionError, StorageExhaustedError, StreamAdmissionError
from .chaos import ChaosConfig, ChaosPlan
from .journal import JOURNAL_NAME, JOURNAL_VERSION, BatchJournal, load_journal
from .observe import PoolObservability
from .retry import RetryPolicy
from .spec import BatchReport, JobResult, JobSpec
from .transitions import (
    DEFAULT_CAPACITY,
    BatchState,
    JobState,
    apply,
    check_admission,
    fold,
    pressured_spec,
    promote,
    reopen,
)
from .warm import InlineFleet, WarmFleet
from . import worker as worker_mod

__all__ = ["JobPool", "run_batch", "DEFAULT_CAPACITY"]

#: supervision sweep cadence (seconds) when no fleet report wakes the loop
POLL_INTERVAL = 0.02


class _Stream:
    """One lazily-pulled spec iterator; the pool drops it the moment a pull
    comes back empty."""

    def __init__(self, specs: Iterable[JobSpec]):
        self.it = iter(specs)
        self.admitted = 0  # specs successfully admitted from this stream


def _classify_failure(error: BaseException) -> str:
    """Attempt-outcome label of a daemon-reported failure.

    ``"sdc"`` (a :class:`~repro.errors.SilentCorruptionError` the worker's
    ABFT guard raised) is kept distinct from the generic ``"fault"``: sdc
    retries back off flat (corruption is environmental, not the job's
    fault) and never count toward poison quarantine."""
    return "sdc" if isinstance(error, SilentCorruptionError) else "fault"


class JobPool(PoolObservability):
    """Warm-worker batch executor (see module docstring).

    Parameters
    ----------
    workers:
        Warm daemon slots; ``0`` runs attempts in this process, one at a
        time, behind the same drive loop.
    capacity:
        Bound on admitted-but-unfinished jobs; a direct :meth:`submit`
        raises :class:`~repro.errors.QueueSaturatedError` beyond it, and
        streams stop being pulled until jobs finish.
    retry:
        Backoff policy (default :class:`~repro.jobs.retry.RetryPolicy`).
    chaos:
        Optional :class:`~repro.jobs.chaos.ChaosConfig`; resolved per job
        from *batch_seed* (scheduling-order independent).
    batch_seed:
        Master seed of every derived substream (faults, jitter, chaos).
    workdir:
        Directory for per-job checkpoint/forensics files; a temporary
        directory (cleaned up after :meth:`run`) when omitted.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` buffer; job lifecycle
        events land in it as ``job.*`` marks, plus per-worker warm/cold
        attempt counters and aggregated kernel/step-cache tallies.
    journal:
        Write-ahead journal every state transition to
        ``<workdir>/journal.jsonl``, fsynced per record (default on; a
        pre-existing journal from an earlier batch in the same workdir is
        truncated — use :meth:`resume` to continue one instead).
    heartbeat_interval:
        Seconds between liveness beats of a busy daemon.
    heartbeat_timeout:
        A busy daemon silent this long is declared wedged: SIGKILLed,
        replaced, its job retried from checkpoint.  ``None`` disables the
        check.
    poison_threshold:
        Consecutive daemon-crash outcomes before a job is quarantined.
    trace:
        Propagate a trace context to every attempt and collect serialized
        span trees back with results (``AttemptRecord.trace``), mergeable
        into one batch-wide Chrome trace by
        :func:`repro.telemetry.merge.merge_batch_trace`.  Implies a
        telemetry buffer (one is created when none was passed).
    """

    def __init__(
        self,
        workers: int = 4,
        capacity: int = DEFAULT_CAPACITY,
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[ChaosConfig] = None,
        batch_seed: int = 0,
        workdir=None,
        telemetry=None,
        journal: bool = True,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = 60.0,
        poison_threshold: int = 3,
        trace: bool = False,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = attempts run in-process)")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        self.workers = int(workers)
        self.chaos_plan = (
            ChaosPlan(chaos, batch_seed) if chaos is not None and chaos.active else None
        )
        self.telemetry = telemetry
        self.trace = bool(trace)
        if self.trace and self.telemetry is None:
            from ..telemetry import Telemetry

            self.telemetry = Telemetry()
        self._tmp = None
        if workdir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-jobs-")
            workdir = self._tmp.name
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        #: the pure supervisor state; only :func:`transitions.apply` changes it
        self.state = BatchState(str(self.workdir))
        self._results: Dict[str, JobResult] = {}
        self._streams: deque = deque()
        self._stream_errors: List[str] = []
        self._chaos_killed: set = set()  # ids of jobs whose daemon chaos killed
        #: chronological lifecycle events: {"ts", "kind", "job", ...}
        self.events: List[dict] = []
        self._epoch = time.perf_counter()
        #: maps this process's perf_counter onto the journal's wall clock
        self._wall_offset = time.time() - self._epoch
        self.resumed = False
        #: the StorageExhaustedError that degraded this batch (None = healthy)
        self.storage_degraded: Optional[StorageExhaustedError] = None
        self._init_observability()
        heartbeat_timeout = None if heartbeat_timeout is None else float(heartbeat_timeout)
        #: where attempts run: this process, or daemons + pipes
        self.fleet = (
            InlineFleet(self._acct.phase)
            if self.workers == 0
            else WarmFleet(self.workers, heartbeat_interval, heartbeat_timeout, self._emit)
        )
        self._journal: Optional[BatchJournal] = None
        if journal:
            # a fresh pool owns its journal outright: truncate whatever an
            # earlier batch left in this workdir (resume() reattaches
            # instead, past the verified prefix)
            self._journal = BatchJournal(self.workdir / JOURNAL_NAME, truncate_to=0)
        self._record(
            "batch",
            version=JOURNAL_VERSION,
            batch_seed=int(batch_seed),
            workers=self.workers,
            capacity=int(capacity),
            retry=asdict(retry or RetryPolicy()),
            heartbeat_interval=float(heartbeat_interval),
            heartbeat_timeout=heartbeat_timeout,
            poison_threshold=int(poison_threshold),
            chaos_active=self.chaos_plan is not None,
        )

    # -- the one transition path -------------------------------------------------------
    def _record(self, kind: str, now: Optional[float] = None, **payload) -> None:
        """Journal the record (write-ahead: it is durable before anything it
        describes happens, stamped with the clock reading it is applied at),
        fold it through the shared handler table, and emit the events the
        transition returned.

        ``ENOSPC`` on the append surfaces as
        :class:`~repro.errors.StorageExhaustedError` and must not take the
        supervisor loop down: the batch degrades — one best-effort
        ``storage_degraded`` record, journaling off, a clean drain — instead
        of dying mid-flight with daemons running."""
        degraded = False
        now = time.perf_counter() if now is None else now
        if self._journal is not None:
            try:
                with self._acct.phase("journal"):
                    self._journal.append(kind, ts=now + self._wall_offset, **payload)
                if self.telemetry is not None:
                    self.telemetry.counters.add("journal_records")
            except StorageExhaustedError as exc:
                degraded = self._on_storage_exhausted(exc)
        for event, job, info in apply(self.state, {"kind": kind, **payload}, now):
            self._emit(event, job, **info)
        if degraded:
            self.request_drain()

    def _on_storage_exhausted(self, exc: StorageExhaustedError) -> bool:
        """Degrade gracefully when persistent storage fills up: journal a
        best-effort ``storage_degraded`` record (it may well fail too — the
        recursion is cut by the ``storage_degraded`` flag) and stop
        journaling entirely.  True the first time: the caller then drains
        the batch cleanly, so in-flight attempts finish and everything else
        reports ``interrupted`` (resumable once space frees)."""
        if self.storage_degraded is not None:
            self._journal = None
            return False
        self.storage_degraded = exc
        context = getattr(exc, "context", {}) or {}
        self._record(
            "storage_degraded",
            op=context.get("op"),
            path=context.get("path"),
            error=str(exc),
        )
        self._journal = None
        return True

    def _emit(self, kind: str, job: str = "", **info) -> None:
        """Append a lifecycle event (*job* is ``""`` for batch- and
        worker-scoped ones) and mirror it into the telemetry buffer."""
        self.events.append(
            {"ts": time.perf_counter() - self._epoch, "kind": kind, "job": job, **info}
        )
        if self.telemetry is not None:
            if job:
                info = {"job": job, **info}
            self.telemetry.counters.add(f"jobs_{kind}")
            self.telemetry.event(f"job.{kind}", phase="jobs", **info)

    @property
    def batch_id(self) -> str:
        """Stable batch identity: the workdir name (survives resume)."""
        return self.workdir.name

    # -- admission ---------------------------------------------------------------------
    def submit(self, specs: Union[JobSpec, Iterable[JobSpec]]) -> None:
        """Admit one spec, or register a *stream* of them.

        A single :class:`JobSpec` is admitted immediately —
        :class:`QueueSaturatedError` at capacity is the backpressure signal,
        ``ValueError`` a duplicate id.  Any other iterable is registered as
        a stream and pulled lazily while :meth:`run` drives the batch: a
        spec is only drawn once there is admission capacity for it, so an
        effectively-infinite survey generator runs in bounded memory.
        Admission is first come, first served: jobs dispatch in the order
        they were admitted.
        """
        if isinstance(specs, JobSpec):
            check_admission(self.state, specs)
            self._admit(specs, streamed=False)
        else:
            self._streams.append(_Stream(specs))

    def _admit(self, spec: JobSpec, streamed: bool) -> None:
        """Admit *spec*, which has passed :func:`check_admission`."""
        (self.workdir / spec.job_id).mkdir(parents=True, exist_ok=True)
        self._record(
            "admit", job=spec.job_id, index=len(self.state.jobs),
            streamed=streamed, spec=spec.to_dict(),
        )

    def _pump_streams(self) -> bool:
        """Pull specs from registered streams while admission allows;
        True if anything was admitted.

        A stream whose iterator raises, or that yields a spec admission
        refuses (a duplicate id), is the *caller's* bug, not the batch's:
        the broken stream is dropped and recorded as a
        :class:`~repro.errors.StreamAdmissionError` on the report, while
        every job it already yielded drains to a terminal state — only the
        specs it never produced are lost.
        """
        admitted = False
        with self._acct.phase("admission"):
            while self._streams and self.state.active < self.state.capacity:
                stream: _Stream = self._streams[0]
                try:
                    spec = next(stream.it, None)
                    if spec is not None:
                        check_admission(self.state, spec)
                except Exception as exc:  # noqa: BLE001 — caller-owned iterator and specs
                    self._stream_failed(stream, exc)
                    spec = None
                if spec is None:  # exhausted, or broken: either way, dropped
                    self._streams.popleft()
                    continue
                self._admit(spec, streamed=True)
                stream.admitted += 1
                admitted = True
        return admitted

    def _stream_failed(self, stream: _Stream, exc: BaseException) -> None:
        reason = f"{type(exc).__name__}: {exc}"
        err = StreamAdmissionError(
            f"spec stream raised while being pulled ({reason}); dropping the "
            f"stream after {stream.admitted} admitted job(s)",
            admitted=stream.admitted,
            reason=reason,
        )
        err.__cause__ = exc
        self._stream_errors.append(str(err))
        self._record("stream_failed", admitted=stream.admitted, reason=reason)

    # -- attempt start / end -----------------------------------------------------------
    def _job_dir(self, job: JobState) -> Path:
        return self.workdir / job.spec.job_id

    def _finish(self, job: JobState, status: str, now: float, **result) -> None:
        """Journal and apply *job*'s ``terminal`` record and file its result."""
        self._record(
            "terminal",
            now,
            job=job.spec.job_id,
            status=status,
            attempts=len(job.attempts),
            error=f"{type(job.error).__name__}: {job.error}" if job.error else "",
        )
        self._results[job.spec.job_id] = JobResult(
            spec=job.spec, status=status, error=job.error, attempts=job.attempts,
            elapsed=job.elapsed(now), **result,
        )
        # chaos ``kill_supervisor_after``: SIGKILL *this* process once N jobs
        # are terminal — the journal records just fsynced are all a resume
        # gets, exactly like an OOM-killed parent
        if self.chaos_plan is not None:
            threshold = self.chaos_plan.config.kill_supervisor_after
            if threshold is not None and self.state.terminals >= threshold:
                os.kill(os.getpid(), signal.SIGKILL)

    def _complete(self, job: JobState, rec, meta: dict, now: float) -> None:
        # report detail the journal does not carry rides the attempt record
        record = job.attempts[-1]
        record.resumed_from = meta.get("resumed_from")
        record.worker = meta.get("worker")
        record.warm = bool(meta.get("warm", False))
        record.phases = dict(meta.get("phases", {}))
        record.caches = dict(meta.get("caches", {}))
        # peel the span payload off *before* the result goes durable: traces
        # are trace-file material, not result.npz material
        self._attach_trace(record, meta)
        self._observe_completion(record, meta)
        # make the result durable *before* journaling the outcome: the
        # outcome record carries the sealed digest, so a resume trusts
        # result.npz only when its seal holds and matches the journal
        digest = worker_mod.write_result(self._job_dir(job), rec, meta)
        engine = meta.get("engine", "")
        work = meta.get("work") or {}
        self._record(
            "outcome", now, job=job.spec.job_id, attempt=record.attempt,
            outcome="completed", engine=engine, digest=digest,
            points_updated=int(work.get("points_updated", 0)),
            stencil_s=float(work.get("stencil_seconds", 0.0)),
        )
        # an ABFT guard that detected corruption *and recovered in-run*
        # leaves the outcome "completed" — the detection must still reach
        # the journal, or recovered corruption is invisible
        abft = meta.get("abft")
        if isinstance(abft, dict) and abft.get("detections"):
            self._record(
                "sdc",
                now,
                job=job.spec.job_id,
                attempt=record.attempt,
                recovered=True,
                detector="growth",
                detections=int(abft["detections"]),
                tiles_reexecuted=int(abft.get("tiles_reexecuted", 0)),
                micro_snapshot_bytes=int(abft.get("micro_snapshot_bytes", 0)),
            )
        self._finish(
            job, "completed", now, receivers=rec, engine=engine,
            fallbacks=meta.get("fallbacks", []),
        )

    def _timeout(self, job: JobState, now: float) -> None:
        self._record(
            "outcome",
            now,
            job=job.spec.job_id,
            attempt=job.attempts[-1].attempt if job.attempts else 0,
            outcome="timeout",
        )
        self._finish(job, "timeout", now)

    def _fail_attempt(
        self, job: JobState, error: BaseException, outcome: str, now: float
    ) -> None:
        """Journal and apply a failed attempt's ``outcome`` — the handler
        decides retry (with backoff), exhaustion or quarantine."""
        attempt = job.attempts[-1].attempt
        summary = f"{type(error).__name__}: {error}"
        self._record(
            "outcome", now, job=job.spec.job_id, attempt=attempt, outcome=outcome,
            error=summary,
        )
        if outcome == "sdc":
            # unrecovered silent corruption also leaves an audit record
            detector = (getattr(error, "context", {}) or {}).get("detector", "growth")
            self._record(
                "sdc", now, job=job.spec.job_id, attempt=attempt, recovered=False,
                detector=detector, error=summary,
            )
        if job.terminal:
            job.error.__cause__ = error
            self._finish(job, job.status, now)

    # -- supervision -------------------------------------------------------------------
    def _dispatch(self, job: JobState, now: float) -> bool:
        """Start *job*'s next attempt on an idle fleet slot; False when there
        is none.  Decides the spec the attempt runs with, then journals and
        applies the ``attempt`` record — write-ahead: the attempt is durable
        before it reaches the fleet, so a supervisor crash can never lose
        track of an in-flight job."""
        worker = self.fleet.idle()
        if worker is None:
            return False
        job_id = job.spec.job_id
        spec = pressured_spec(job, now)
        if spec is not job.spec:
            self._emit("degraded", job_id, schedule=spec.schedule)
        attempt = job.attempt_no
        resume = attempt > 0 or job.force_resume
        step = worker_mod.newest_checkpoint_step(self._job_dir(job)) if resume else None
        entry = self.chaos_plan.entry(job.index, spec.nt) if self.chaos_plan else None
        self._record(
            "attempt", now, job=job_id, attempt=attempt, engine=spec.engine,
            resume=resume, step=step,
        )
        trace = {"batch": self.batch_id} if self.trace else None

        def started(worker) -> None:
            # the fleet calls this once the attempt is really under way
            if step is not None:
                self._emit("resumed", job_id, step=step, attempt=attempt)
            self._emit(
                "started", job_id, attempt=attempt, engine=spec.engine,
                worker=worker.worker_id,
            )

        self.fleet.send(
            worker, job, started, spec, str(self._job_dir(job)), attempt, resume,
            entry, trace,
        )
        return True

    def _chaos_kill(self) -> None:
        """SIGKILL the daemon of a kill victim's attempt 0 once its first
        checkpoint is durable: the victim stops itself right after that
        save, so the kill lands mid-run and the retry is a genuine resume."""
        for worker in self.fleet.busy:
            job = worker.job
            job_id = job.spec.job_id
            if job_id in self._chaos_killed or job.attempts[-1].attempt != 0:
                continue
            if not self.chaos_plan.entry(job.index, job.spec.nt).kill:
                continue
            if worker_mod.newest_checkpoint_step(self._job_dir(job)) is None:
                continue
            self._chaos_killed.add(job_id)
            worker.proc.kill()
            self._emit("killed", job_id, signal="SIGKILL", worker=worker.worker_id)

    def _poll(self, now: float) -> bool:
        """One supervision sweep; True if any state changed."""
        state = self.state
        changed = False
        if not state.draining:
            changed = self._pump_streams()
        if self.chaos_plan is not None and not self.fleet.in_process:
            self._chaos_kill()
        for job, verdict, payload in self.fleet.sweep(now):
            if verdict == "ok":
                self._complete(job, *payload, now)
            elif verdict == "timeout":
                self._timeout(job, now)
            else:  # a reported error, or the crash / hang of the daemon
                outcome = _classify_failure(payload) if verdict == "err" else verdict
                self._fail_attempt(job, payload, outcome, now)
            changed = True
        # backoff expiry — or a deadline that died while the job waited
        waiting = len(state.delayed)
        for job in promote(state, now):
            self._timeout(job, now)
        changed = changed or len(state.delayed) != waiting
        if not state.draining:  # no new daemons for work that will not dispatch
            self.fleet.replenish(
                len(state.ready) + len(state.delayed) + bool(self._streams)
            )
        while state.ready and not state.draining:
            with self._acct.phase("dispatch"):
                dispatched = self._dispatch(state.ready[0], now)
            if not dispatched:
                break
            changed = True
        return changed

    # -- graceful drain ----------------------------------------------------------------
    def request_drain(self, signum: Optional[int] = None) -> None:
        """Begin a graceful shutdown: stop pulling streams and dispatching
        ready jobs, let in-flight attempts finish, then return a partial —
        resumable — report with unfinished jobs marked ``interrupted``.

        Called by the SIGTERM/SIGINT handlers :meth:`run` installs;
        idempotent, safe from signal context (it only journals a record and
        flips a flag — the drive loop does the actual winding down)."""
        if not self.state.draining:
            self._record("drain", signal=signum)

    # -- the drive loop ----------------------------------------------------------------
    def _install_signal_handlers(self) -> dict:
        """SIGTERM/SIGINT → graceful drain while the batch runs.  Returns
        the displaced handlers (restored in :meth:`run`'s ``finally``); a
        no-op off the main thread, where Python forbids ``signal.signal``."""
        previous = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[sig] = signal.signal(
                    sig, lambda signum, frame: self.request_drain(signum)
                )
            except ValueError:  # not the main thread
                break
        return previous

    def run(self) -> BatchReport:
        """Drive every admitted job (and stream) to a terminal state — or,
        under a drain signal, every in-flight attempt to completion and the
        rest to ``interrupted``."""
        t0 = time.perf_counter()
        state = self.state
        previous_handlers = self._install_signal_handlers()
        self._acct.push("supervise")
        batch_span = (
            self.telemetry.begin("batch", phase="jobs", batch=self.batch_id)
            if self.telemetry is not None
            else None
        )
        try:
            self._drive()
            # whatever a drain left unfinished is ``interrupted`` — resumable:
            # the journal has the admission, the checkpoints have the progress
            now = time.perf_counter()
            for job in state.jobs:
                if not job.terminal:
                    self._finish(job, "interrupted", now)
            self._record(
                "batch_end",
                drained=state.draining,
                completed=sum(1 for j in state.jobs if j.status == "completed"),
                terminals=state.terminals,
            )
        finally:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
            # the journal stays open: the pool outlives run() (submitting
            # into freed capacity and running again is supported), and every
            # append is already flushed/fsynced — closing is GC's job
            with self._acct.phase("drain"):
                self.fleet.shutdown()
            if batch_span is not None:
                self.telemetry.end(batch_span)
            self._acct.pop()  # close the supervise root
            self._charge_jobs_phase()
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None
        wall = time.perf_counter() - t0
        return BatchReport(
            results=[self._results.get(j.spec.job_id) for j in state.jobs],
            wall_seconds=wall,
            events=self.events,
            workers=self.workers,
            kills=len(self._chaos_killed),
            workers_spawned=self.fleet.spawned,
            drained=state.draining,
            resumed=self.resumed,
            hung_workers=self.fleet.hung,
            stream_errors=list(self._stream_errors),
            supervisor_seconds=dict(self._acct.seconds),
            batch_id=self.batch_id,
        )

    def _drive(self) -> None:
        """The drive loop: poll until nothing is left to do (or, draining,
        until the in-flight attempts have finished).  It sleeps only when a
        poll changed nothing — until the fleet has a report, and no longer
        than the earliest backoff expiry."""
        state, fleet = self.state, self.fleet
        while fleet.busy or not state.draining:
            if not (fleet.busy or state.ready or state.delayed or self._streams):
                break
            if not self._poll(time.perf_counter()):
                timeout = POLL_INTERVAL
                if state.delayed:
                    expiry = state.delayed[0][0] - time.perf_counter()
                    timeout = min(timeout, max(0.0, expiry))
                with self._acct.phase("idle"):
                    fleet.wait(timeout)

    # -- crash-safe resume -------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        batch_dir,
        workers: Optional[int] = None,
        telemetry=None,
        trace: bool = False,
    ) -> "JobPool":
        """Reconstruct an interrupted batch from its journal; :meth:`run`
        the returned pool to drive it to completion.

        Folds the longest verified prefix of *batch_dir*'s write-ahead
        journal (a torn tail is truncated away before new records append)
        through the same transition handlers the live supervisor runs, then
        reconciles the folded state with disk:

        * preloads every completed job whose ``result.npz`` is durable *and*
          verified (its seal, equal to the journal's recorded digest),
          bit-identical to what the dead batch produced, and demotes the
          others to be recomputed;
        * keeps durable terminal failures (``timeout`` / ``exhausted`` /
          ``quarantined``) with their attempt history, never re-running them;
        * journals the ``resume`` record, whose handler re-queues everything
          else with its attempt budget, consecutive-crash count and jitter
          stream where the fold left them; a job whose attempt was in flight
          at the crash resumes from its newest verified checkpoint snapshot.

        *workers* defaults to the journaled batch header, like every other
        batch parameter.  Chaos injection is deliberately **not** re-armed:
        the crash the chaos config manufactured already happened — a resume
        runs clean, which is also what keeps ``kill_supervisor_after`` from
        re-killing every successor.
        """
        batch_dir = Path(batch_dir)
        replay = load_journal(batch_dir / JOURNAL_NAME)
        header = replay.header  # raises JournalCorruptError when unusable
        # the shell's own parameters; the batch's (capacity, retry policy,
        # seed, quarantine threshold) reach the state through the fold
        pool = cls(
            workers=header.get("workers", 4) if workers is None else workers,
            workdir=batch_dir,
            telemetry=telemetry,
            journal=False,  # reattached below, past the verified prefix
            heartbeat_interval=header.get("heartbeat_interval", 0.25),
            heartbeat_timeout=header.get("heartbeat_timeout", 60.0),
            trace=trace,
        )
        # journal timestamps are wall-clock; replay them on this process's
        # perf_counter so restored and new attempts share one time axis
        offset = time.perf_counter() - time.time()
        state = pool.state = fold(
            replay.records, lambda rec: rec["ts"] + offset, str(batch_dir)
        )
        pool._journal = BatchJournal(
            batch_dir / JOURNAL_NAME,
            seq_start=len(replay.records),
            truncate_to=replay.good_bytes,
        )
        pool.resumed = True
        for job in state.jobs:
            job_dir = pool._job_dir(job)
            job_dir.mkdir(parents=True, exist_ok=True)
            result = {}
            if job.status == "completed":
                loaded = worker_mod.durable_result(job_dir, job.digest)
                if loaded is None:
                    reopen(state, job)  # torn or missing: recompute it
                    continue
                meta = loaded[1]
                result = {
                    "receivers": loaded[0],
                    "engine": meta.get("engine", ""),
                    "fallbacks": meta.get("fallbacks", []),
                }
                pool._emit("preloaded", job.spec.job_id, digest=True)
            elif job.status in (None, "interrupted"):
                continue  # the ``resume`` record re-queues it
            pool._results[job.spec.job_id] = JobResult(
                spec=job.spec, status=job.status, error=job.error,
                attempts=job.attempts, **result,
            )
        pool._record(
            "resume",
            jobs=len(state.jobs),
            pending=sum(1 for j in state.jobs if j.status in (None, "interrupted")),
            corruption=str(replay.corruption) if replay.corruption else None,
        )
        return pool


def run_batch(specs: Sequence[JobSpec], workers: int = 4, **kwargs) -> BatchReport:
    """Submit *specs* to a fresh :class:`JobPool` and drive it to completion."""
    pool = JobPool(workers=workers, **kwargs)
    for spec in specs:
        pool.submit(spec)
    return pool.run()
