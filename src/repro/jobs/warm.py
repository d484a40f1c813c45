"""Where attempts run: the fleet surface, over warm daemons or in-process.

:class:`~repro.jobs.pool.JobPool`'s one drive loop talks to a *fleet* —
``idle`` / ``send`` / ``sweep`` / ``replenish`` / ``busy`` / ``wait`` /
``shutdown`` and the ``in_process`` flag.  :class:`WarmFleet`
implements it over long-lived daemons, :class:`InlineFleet` (``workers=0``)
by running the same :func:`~repro.jobs.worker.execute_attempt` in the
supervisor's own process and reporting through ``sweep`` as a daemon would.

A :class:`WarmWorker` is one daemon process preforked per pool slot, sent jobs
over a private duplex pipe and returning results over the same pipe.  Because
the process survives from job to job — the amortisation the paper asks for —

* the process-wide bind table (:func:`repro.ir.pycodegen.structural`)
  stays warm — every job after the first of a structure is served its
  compiled sweeps instead of compiling them (``kernel_cache_hits``);
* the lowered step lists (:func:`repro.core.scheduler.lower`, memoised per
  process) are replayed, not recomputed.

The model is not among them: every attempt rebuilds it in whichever process
runs it (a 12^3 velocity array, tens of microseconds), so daemons and the
in-process fleet share one model path.

Fault domains (DESIGN.md §8): the pipe is private per worker, so a SIGKILL
mid-write corrupts nothing shared; a dead-silent worker is detected, its job
retried bit-identically from its checkpoints, and a fresh daemon preforked;
failures are pickled to the job's ``error-NN.pkl`` *before* crossing the pipe.

**Liveness**: a busy daemon also *heartbeats* — a background thread sends
``("hb", worker_id)`` over the pipe every ``heartbeat_interval`` seconds
while a job is executing (sends are lock-serialised with result messages,
so a heartbeat can never tear a result frame).  Death is easy to detect;
*wedging* is not: a daemon stuck in a native call or a runaway loop is
alive by every OS measure while its job starves below the deadline.
Heartbeat silence is the tell: the supervisor SIGKILLs a busy daemon whose
last beat is older than ``heartbeat_timeout``, retries its job from the
newest checkpoint, and preforks a replacement — a hang costs one timeout,
never a stalled fleet slot.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from multiprocessing import connection as mp_connection
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import WorkerCrashError
from .spec import JobSpec

__all__ = [
    "WarmState", "WarmWorker", "WarmFleet", "InlineFleet", "warm_main", "SHUTDOWN",
    "HEARTBEAT",
]

#: parent -> worker sentinel asking the daemon loop to exit cleanly
SHUTDOWN = "shutdown"

#: worker -> parent message tag of a liveness heartbeat
HEARTBEAT = "hb"


class WarmState:
    """Per-daemon state that survives across jobs.

    ``jobs_done`` drives the warm/cold attribution: an attempt is *warm* iff
    its daemon had already completed at least one job.
    """

    def __init__(self, worker_id: Optional[int] = None):
        self.worker_id = worker_id
        self.jobs_done = 0


def _safe_exception(exc: BaseException) -> BaseException:
    """*exc* if it survives a pickle round-trip, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _Heartbeat:
    """Daemon-side liveness beacon: a background thread that sends
    :data:`HEARTBEAT` messages while a job is executing.

    ``begin``/``end`` bracket each job; outside them the thread idles (an
    idle daemon is blocked in ``conn.recv`` — silence there is normal, and
    the supervisor only judges *busy* workers).  All sends go through the
    shared lock so a heartbeat can never interleave with a result frame.
    """

    def __init__(self, conn, lock: threading.Lock, worker_id: int, interval: float):
        self.conn = conn
        self.lock = lock
        self.worker_id = worker_id
        self.interval = max(0.01, float(interval))
        self._busy = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"repro-hb-{worker_id}"
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not self._busy.is_set():
                continue
            try:
                with self.lock:
                    self.conn.send((HEARTBEAT, self.worker_id))
            except (BrokenPipeError, OSError, ValueError):
                return  # supervisor gone; the main loop will notice too

    def begin(self) -> None:
        self._busy.set()

    def end(self) -> None:
        self._busy.clear()

    def stop(self) -> None:
        self._stop.set()


def warm_main(worker_id: int, conn, heartbeat_interval: float = 0.25) -> None:
    """Daemon entry point: serve jobs until a :data:`SHUTDOWN` sentinel (or
    pipe EOF) arrives.

    Messages in: ``("job", spec, job_dir, attempt, resume, chaos_entry,
    dispatch_ts, trace)`` — *trace* is ``None`` or a trace
    context (batch id, worker id, and the parent's ``perf_counter`` reading at
    dispatch); the daemon stamps its own clock at receipt (``recv_perf``)
    and echoes both back inside the attempt's telemetry payload, which is
    how the supervisor computes the per-attempt clock offset
    (:mod:`repro.telemetry.merge`).  Messages out: ``("ok", job_id,
    attempt, receivers, meta)``, ``("err", job_id, attempt, exception)``,
    or ``("hb", worker_id)`` liveness beats while executing.  Failures are pickled to
    the job's forensics file before the pipe send, so the supervisor can
    still reconstruct the failure if the daemon dies between the two.

    Chaos hooks: an entry with ``hang_seconds > 0`` on attempt 0 wedges the
    daemon first — heartbeats *suspended*, simulating a livelock the
    supervisor must detect by silence; an entry with ``poison=True``
    hard-exits the process on every attempt (the quarantine pathology — no
    report, no forensics, just a dead daemon, exactly like a segfault); an
    entry with ``kill=True`` stops the daemon after attempt 0's first
    checkpoint save, for the supervisor's SIGKILL.

    **Orphan self-termination**: pipe EOF alone cannot signal supervisor
    death — under fork, each daemon inherits copies of its *siblings'*
    pipe ends, so when the supervisor is SIGKILLed the orphans keep each
    other's pipes open forever.  The recv loop therefore polls with a
    timeout and exits when the parent pid changes (re-parenting to init/a
    subreaper is the one unfakeable sign the supervisor is gone), so an
    orphaned fleet drains itself within about a second instead of pinning
    pipes and inherited stdio open indefinitely.
    """
    import os

    from . import worker as worker_mod

    parent_pid = os.getppid()
    warm = WarmState(worker_id=worker_id)
    send_lock = threading.Lock()
    beat = _Heartbeat(conn, send_lock, worker_id, heartbeat_interval)
    try:
        while True:
            try:
                if not conn.poll(1.0):
                    if os.getppid() != parent_pid:
                        break  # orphaned: the supervisor died without EOF
                    continue
                msg = conn.recv()
            except (EOFError, OSError):  # supervisor died or closed the pipe
                break
            if msg[0] == SHUTDOWN:
                break
            _, spec, job_dir, attempt, resume, chaos, dispatch_ts, trace = msg
            recv_ts = time.monotonic()
            recv_perf = time.perf_counter()  # clock-offset handshake stamp
            if chaos is not None and chaos.poison:
                os._exit(66)  # hard crash: no report, no cleanup — poison
            if chaos is not None and attempt == 0 and chaos.hang_seconds > 0:
                # wedged, not dead: alive to the OS, silent on the pipe
                time.sleep(chaos.hang_seconds)
            beat.begin()
            try:
                if trace is not None:
                    trace["recv_perf"] = recv_perf
                rec, meta = worker_mod.execute_attempt(
                    spec, job_dir, attempt=attempt, resume=resume, chaos=chaos,
                    warm=warm, trace=trace is not None, ctx=trace,
                    stop_after_save=chaos is not None and chaos.kill,
                )
                meta.setdefault("phases", {})["spawn"] = max(
                    0.0, recv_ts - dispatch_ts
                )
                with send_lock:
                    conn.send(("ok", spec.job_id, attempt, rec, meta))
            except BaseException as exc:  # noqa: BLE001 — crosses as a pickle
                worker_mod.write_error(job_dir, attempt, exc)
                try:
                    with send_lock:
                        conn.send(("err", spec.job_id, attempt, _safe_exception(exc)))
                except (BrokenPipeError, OSError):
                    break
            finally:
                beat.end()
    finally:
        beat.stop()
        try:
            conn.close()
        except OSError:
            pass


class WarmWorker:
    """Supervisor-side handle of one warm daemon.

    Owns the daemon :class:`multiprocessing.Process` and the parent end of
    its private pipe.  ``job`` tracks the in-flight supervisor job (None =
    idle); the pool never dispatches at a busy worker.  ``last_beat`` is
    the supervisor-side liveness clock: reset at dispatch and bumped by
    every message (heartbeat or result) drained from the pipe — a busy
    worker whose ``last_beat`` goes stale is wedged, not working.
    """

    def __init__(self, ctx, worker_id: int, heartbeat_interval: float = 0.25):
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=warm_main,
            args=(worker_id, child_conn, heartbeat_interval),
            daemon=True,
            name=f"repro-warm-{worker_id}",
        )
        self.proc.start()
        child_conn.close()  # parent's copy; lets EOF reach the daemon
        self.job = None
        self.jobs_dispatched = 0
        self.last_beat = time.monotonic()

    # -- state ---------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.job is not None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    # -- dispatch / results ----------------------------------------------------------
    def dispatch(self, spec: JobSpec, job_dir: str, attempt: int, resume: bool,
                 chaos, trace: Optional[dict] = None) -> None:
        """Send one job at the daemon; raises ``BrokenPipeError``/``OSError``
        when the daemon is already dead (the pool treats that as a crash).

        *trace* (tracing on) is stamped with this worker's id and the parent's
        ``perf_counter`` reading immediately before the pipe write — the
        parent half of the clock-offset handshake."""
        if trace is not None:
            trace = {**trace, "worker": self.worker_id,
                     "dispatch_perf": time.perf_counter()}
        self.conn.send(
            ("job", spec, str(job_dir), attempt, resume, chaos,
             time.monotonic(), trace)
        )
        self.jobs_dispatched += 1
        self.last_beat = time.monotonic()

    def recv_nowait(self):
        """The daemon's next buffered *job* message, or None.  Heartbeats
        are consumed here (bumping :attr:`last_beat`) and never surfaced.
        Buffered data is readable even after the daemon died, which is what
        lets the pool honour a result that raced a deadline kill."""
        try:
            while self.conn.poll(0):
                msg = self.conn.recv()
                self.last_beat = time.monotonic()
                if msg[0] != HEARTBEAT:
                    return msg
        except (EOFError, OSError):
            return None
        return None

    def stalled(self, timeout: Optional[float]) -> bool:
        """True iff this worker is busy and has been silent for longer than
        *timeout* seconds (None disables the check)."""
        return (
            timeout is not None
            and self.busy
            and (time.monotonic() - self.last_beat) > timeout
        )

    # -- lifecycle -------------------------------------------------------------------
    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join()

    def shutdown(self, timeout: float = 2.0) -> None:
        """Ask the daemon to exit; escalate to SIGKILL if it does not."""
        try:
            self.conn.send((SHUTDOWN,))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass


class WarmFleet:
    """The live daemons of one batch.

    Owns every process and pipe.  The pool hands it job
    messages (:meth:`send`) and reads attempt *reports* back (:meth:`sweep`):
    what the pipes and the process table say — a result, a daemon-reported
    error, a dead daemon, a heartbeat-silent one, a job past its deadline —
    becomes ``(job, verdict, payload)``, with the killing, reaping, retiring
    and replacing of daemons handled here.  *emit* receives the
    ``worker_*`` lifecycle events.
    """

    #: attempts run in other processes: on their own clocks, and killable
    in_process = False

    def __init__(
        self,
        slots: int,
        heartbeat_interval: float,
        heartbeat_timeout: Optional[float],
        emit: Callable[..., None],
    ):
        self.slots = int(slots)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = heartbeat_timeout
        self._emit = emit
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self.workers: List[WarmWorker] = []
        #: daemons preforked over the batch (initial + replacements); the
        #: newest one's id
        self.spawned = 0
        #: daemons killed for heartbeat silence
        self.hung = 0

    # -- daemons -----------------------------------------------------------------------
    @property
    def busy(self) -> List[WarmWorker]:
        return [w for w in self.workers if w.busy]

    def _spawn(self) -> WarmWorker:
        self.spawned += 1
        worker = WarmWorker(
            self._ctx, self.spawned, heartbeat_interval=self.heartbeat_interval
        )
        self.workers.append(worker)
        self._emit("worker_spawned", worker=worker.worker_id, pid=worker.proc.pid)
        return worker

    def retire(self, worker: WarmWorker, crashed: bool = False) -> None:
        """Drop *worker* from the fleet (its process already dead or being
        killed)."""
        if worker in self.workers:
            self.workers.remove(worker)
        worker.kill()  # no-op if already dead; reaps the process either way
        self._emit(
            "worker_crashed" if crashed else "worker_retired",
            worker=worker.worker_id,
            exitcode=worker.proc.exitcode,
            jobs=worker.jobs_dispatched,
        )

    def idle(self) -> Optional[WarmWorker]:
        """A daemon free to take a job — preforked into a free slot when
        every live one is busy — or None."""
        for worker in self.workers:
            if not worker.busy and worker.alive:
                return worker
        return self._spawn() if len(self.workers) < self.slots else None

    def replenish(self, outstanding: int) -> None:
        """Prefork replacements for crashed/retired daemons while there is
        work (*outstanding* jobs still needing a daemon) left for them."""
        want = min(self.slots, outstanding + len(self.busy))
        while len(self.workers) < want:
            self._spawn()

    def send(self, worker: WarmWorker, job, started, *message) -> WarmWorker:
        """Write one job message down *worker*'s pipe and mark it busy with
        *job*.  A daemon found dead at the write is retired and nothing else
        changes: the same message goes to the next one (retiring freed a
        slot, so :meth:`idle` always has one).  ``started(worker)`` is called
        once the write succeeded, naming the daemon that took it."""
        while True:
            try:
                worker.dispatch(*message)
                break
            except (BrokenPipeError, OSError):
                self.retire(worker, crashed=True)
                worker = self.idle()
        worker.job = job
        started(worker)
        return worker

    def wait(self, timeout: float) -> None:
        """Block until a busy daemon's pipe has something to read, at most
        *timeout* seconds."""
        conns = [w.conn for w in self.busy if w.alive]
        if conns:
            mp_connection.wait(conns, timeout=timeout)
        else:
            time.sleep(timeout)

    def sweep(self, now: float) -> Iterator[Tuple[object, str, object]]:
        """One pass over the daemons: yield ``(job, verdict, payload)`` for
        every attempt that ended — ``"ok"`` with ``(receivers, meta)``,
        ``"err"`` with the daemon-reported exception, ``"crash"`` / ``"hang"``
        with a :class:`~repro.errors.WorkerCrashError`, ``"timeout"`` with
        None.  A result that raced a kill (or a death) into the pipe still
        counts; the daemon behind a crash, hang or timeout is retired once
        the caller has taken the report."""
        for worker in list(self.workers):
            job = worker.job
            if job is None:
                if not worker.alive:  # spontaneous death of an idle daemon
                    self.retire(worker, crashed=True)
                continue
            verdict = silent = None
            msg = worker.recv_nowait()
            if msg is None and not worker.alive:
                worker.proc.join()
                verdict = "crash"
            elif msg is None and job.over_deadline(now):
                verdict = "timeout"
            elif msg is None and worker.stalled(self.heartbeat_timeout):
                # alive to the OS, wedged in practice
                verdict, silent = "hang", time.monotonic() - worker.last_beat
            elif msg is None:
                continue
            if verdict is not None:
                worker.kill()
                msg = worker.recv_nowait()  # a result may have raced the kill
            worker.job = None
            if verdict == "hang":
                self.hung += 1
                self._emit(
                    "worker_hung", worker=worker.worker_id, job=job.spec.job_id,
                    silent=round(silent, 3),
                )
            if msg is not None and msg[0] == "ok":
                yield job, "ok", (msg[3], msg[4])
            elif msg is not None and verdict in (None, "crash"):
                yield job, "err", msg[3]
            elif verdict == "timeout":
                yield job, "timeout", None
            else:
                what = (
                    f"worker for job {job.spec.job_id} died without reporting "
                    f"(exitcode {worker.proc.exitcode})"
                    if verdict == "crash"
                    else f"worker {worker.worker_id} serving job "
                    f"{job.spec.job_id} went heartbeat-silent for {silent:.2f}s "
                    f"(> {self.heartbeat_timeout}s): livelocked, killed"
                )
                yield job, verdict, WorkerCrashError(
                    what,
                    job_id=job.spec.job_id,
                    exitcode=worker.proc.exitcode,
                    attempt=job.attempts[-1].attempt,
                )
            if verdict is not None:
                self.retire(worker, crashed=verdict == "crash")

    def shutdown(self) -> None:
        """Stop every daemon (idempotent) — never leak a process, however
        the batch ended."""
        for worker in self.workers:
            worker.shutdown()
        self.workers.clear()


class InlineFleet:
    """The fleet surface without processes (``workers=0``): :meth:`send` runs
    the attempt here — the same :func:`~repro.jobs.worker.execute_attempt` a
    daemon calls, one :class:`WarmState` for the batch — and :meth:`sweep`
    reports it, ``ok`` / ``err`` / ``timeout``, as a daemon's pipe would.  One
    attempt at a time; the fleet is its own only slot.

    An in-process attempt cannot be pre-empted (its deadline is judged
    post-hoc, at the sweep), killed, or hang and be detected: chaos kills,
    hangs and poison exits stay daemon-only, and no ``crash`` / ``hang``
    verdict comes from here.  *phase* is the pool's phase accountant: the
    attempt is charged to its ``execute`` bucket.
    """

    #: attempts run on the supervisor's clock and cannot be pre-empted
    in_process = True
    workers = ()  # no daemons to count, gauge or kill
    spawned = hung = 0
    worker_id = None

    def __init__(self, phase: Callable[[str], object]):
        self._phase = phase
        self._warm = WarmState()
        #: ``(job, verdict, payload)`` waiting for the next :meth:`sweep`
        self._report: Optional[tuple] = None

    @property
    def busy(self) -> list:
        return [] if self._report is None else [self]

    def idle(self) -> Optional["InlineFleet"]:
        return self if self._report is None else None

    def send(self, worker, job, started, spec, job_dir, attempt, resume, chaos,
             trace=None):
        from . import worker as worker_mod

        started(self)
        try:
            with self._phase("execute"):
                self._report = job, "ok", worker_mod.execute_attempt(
                    spec, job_dir, attempt=attempt, resume=resume, chaos=chaos,
                    warm=self._warm, trace=trace is not None, ctx=trace,
                )
        except Exception as exc:  # noqa: BLE001 — reported, like a daemon's "err"
            self._report = job, "err", exc
        return self

    def sweep(self, now: float) -> Iterator[Tuple[object, str, object]]:
        report, self._report = self._report, None
        if report is not None:
            job = report[0]
            yield (job, "timeout", None) if job.over_deadline(now) else report

    def wait(self, timeout: float) -> None:
        time.sleep(timeout)

    def replenish(self, outstanding: int) -> None:
        pass

    def shutdown(self) -> None:
        pass
