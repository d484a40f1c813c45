"""The warm-worker batch executor: persistent daemons, streaming admission,
retry-from-checkpoint, deadlines, circuit breaking and chaos kills.

One :class:`JobPool` drives one batch.  Jobs are admitted through a bounded
queue — directly (:meth:`submit` with a spec raises
:class:`~repro.errors.QueueSaturatedError` instead of growing memory without
limit) or as a *stream* (:meth:`submit` with an iterator of specs, pulled
lazily as capacity frees, with per-tenant quotas and priority lanes) — then
:meth:`run` supervises up to ``workers`` **long-lived warm daemons**
(:class:`~repro.jobs.warm.WarmWorker`).  Each daemon is preforked once and
serves many jobs over a private pipe, so the process-wide kernel caches and
the per-family ``(tile, height)`` step plans stay warm from job to job, and
the read-only model arrays are attached zero-copy from
:class:`~repro.jobs.shm.SharedArrayRegistry` segments published once per
batch.  Results return over the same pipe; the atomic-file protocol remains
for what it is good at — checkpoints and crash forensics.

Every fault domain of the process-per-attempt design is preserved:

* **crash recovery** — a daemon that dies without reporting (kill signal,
  hard crash) surfaces as a :class:`~repro.errors.WorkerCrashError` on its
  in-flight job; the job is retried on another daemon, resuming from the
  newest snapshot its
  :class:`~repro.runtime.checkpoint.FileCheckpointStore` persisted —
  bit-identical to an uninterrupted run.  The dead daemon is retired and a
  replacement preforked while work remains; its shared-memory mappings die
  with the process and the supervisor's ``finally`` unlinks every segment,
  so nothing leaks into ``/dev/shm``.
* **retries** — daemon-reported faults are retried with exponential backoff
  and per-job seeded jitter (:class:`~repro.jobs.retry.RetryPolicy`) up to
  ``max_attempts``; the terminal
  :class:`~repro.errors.RetryExhaustedError` carries the full history.
* **deadlines** — a job over its total wall-clock budget has its daemon
  SIGKILLed and reports :class:`~repro.errors.JobTimeoutError` without
  disturbing the rest of the pool (a result that raced the kill into the
  pipe still counts); late retries are *degraded* to the naive schedule.
* **circuit breaking** — an optional
  :class:`~repro.jobs.breaker.CircuitBreaker` watches daemon-reported fused
  compile failures; once open, jobs dispatch straight at the next ladder
  rung.
* **chaos** — a :class:`~repro.jobs.chaos.ChaosConfig` arms per-job fault
  injection inside daemons and lets the supervisor SIGKILL the daemon of an
  attempt-0 job right after its first checkpoint lands — or SIGKILL the
  *supervisor itself* (``kill_supervisor_after``), the crash :meth:`resume`
  exists to survive.
* **silent data corruption** — a daemon whose ABFT guard (or shared-memory
  checksum gate) raises :class:`~repro.errors.SilentCorruptionError` has
  the attempt classified ``sdc``: the retry backs off flat (corruption is
  environmental, not the job's fault), never counts toward poison
  quarantine, and stops trusting the shared model segments — a corrupted
  ``/dev/shm`` block costs one attempt.  Corruption the guard *recovered
  in-run* (tile re-execution from its entry micro-snapshot) completes
  normally but is still journaled as an ``sdc`` audit record and counted
  (``sdc_detections_total``, ``sdc_tiles_reexecuted_total``).
* **storage exhaustion** — ``ENOSPC`` on the journal or checkpoint path
  degrades the batch (best-effort ``storage_degraded`` record, journaling
  off, clean drain) instead of killing the supervisor mid-flight.

And — new in this revision — the *supervisor* is no longer a single point
of failure:

* **write-ahead journal** — every state transition (admission, attempt
  dispatch, outcome, terminal state, published shared-memory segments) is
  appended to ``journal.jsonl`` in the batch workdir *before* it is
  performed, fsynced, with a per-record SHA-256 trailer
  (:mod:`repro.jobs.journal`).
* **crash-safe resume** — :meth:`JobPool.resume` replays the journal of an
  orphaned batch directory: jobs whose ``result.npz`` is durable and
  digest-verified are preloaded as completed, terminal failures are
  reconstructed, everything else is re-admitted (in-flight attempts resume
  from their newest verified checkpoint snapshot), and the leaked
  ``/dev/shm`` segments of the dead supervisor are unlinked.  The resumed
  batch produces receivers bit-identical to an uninterrupted run.
* **graceful drain** — SIGTERM/SIGINT stop dispatch, let in-flight attempts
  finish, journal the drain and report unfinished jobs as ``interrupted``
  (resumable); a second signal is answered the same way (idempotent).
* **heartbeat liveness** — busy daemons beat every ``heartbeat_interval``
  seconds; a busy daemon silent longer than ``heartbeat_timeout`` is
  wedged (native-call livelock), SIGKILLed, replaced, and its job retried
  from checkpoint.
* **poison-job quarantine** — a spec whose attempts *crash* the daemon
  ``poison_threshold`` times consecutively is quarantined
  (:class:`~repro.errors.PoisonJobError` with forensics) instead of burning
  the replacement budget forever.
* **stream isolation** — a user spec iterator that raises mid-pull becomes
  a :class:`~repro.errors.StreamAdmissionError` on the report; already
  admitted jobs drain to terminal states instead of being abandoned.

``workers=0`` runs the same job/retry/chaos state machine serially in the
current process (no kills, post-hoc deadlines) with its own
:class:`~repro.jobs.warm.WarmState` — the baseline the benchmark compares
pool throughput against.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal
import time
from collections import deque
from contextlib import nullcontext
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..errors import (
    JobTimeoutError,
    PoisonJobError,
    QueueSaturatedError,
    RetryExhaustedError,
    SilentCorruptionError,
    StorageExhaustedError,
    StreamAdmissionError,
    WorkerCrashError,
)
from ..runtime.integrity import file_digest, verify_digest, write_digest
from ..telemetry.metrics import MetricsRegistry, PhaseAccountant, write_json_atomic
from .breaker import CircuitBreaker
from .chaos import ChaosConfig, ChaosPlan
from . import journal as _journal_mod
from .journal import JOURNAL_NAME, JOURNAL_VERSION, BatchJournal, load_journal
from .retry import RetryPolicy
from .spec import LANES, AttemptRecord, BatchReport, JobResult, JobSpec
from .warm import WarmState, WarmWorker
from . import worker as worker_mod

__all__ = ["JobPool", "run_batch", "DEFAULT_CAPACITY", "METRICS_NAME", "PROM_NAME"]

DEFAULT_CAPACITY = 256

#: live metrics snapshot, atomically refreshed in the batch workdir on the
#: ``status_interval`` cadence (what ``python -m repro.jobs.status`` reads)
METRICS_NAME = "metrics.json"

#: final Prometheus text exposition, written once at batch end
PROM_NAME = "metrics.prom"


class _Job:
    """Supervisor-side state of one submitted job."""

    def __init__(self, index: int, spec: JobSpec, job_dir: Path, jitter_rng):
        self.index = index
        self.spec = spec
        self.dir = job_dir
        self.jitter_rng = jitter_rng
        #: admission clock reading — the admission-wait histogram's anchor
        self.queued_ts = time.perf_counter()
        self.attempt_no = 0
        self.attempts: List[AttemptRecord] = []
        self.first_started: Optional[float] = None
        self.worker: Optional[WarmWorker] = None
        self.dispatched_engine = ""
        self.result: Optional[JobResult] = None
        self.chaos_killed = False
        #: consecutive daemon-crash outcomes (quarantine trigger; survives
        #: resume via the journal's outcome records)
        self.consecutive_crashes = 0
        #: a journal replay found an attempt in flight at the crash: the
        #: next dispatch must resume from checkpoint even though no failure
        #: outcome was ever journaled
        self.force_resume = False
        #: an attempt ended in silent data corruption: later attempts stop
        #: trusting the shared-memory model segments and recompute locally
        self.distrust_shm = False

    @property
    def terminal(self) -> bool:
        return self.result is not None

    def elapsed(self, now: float) -> float:
        return 0.0 if self.first_started is None else now - self.first_started

    def over_deadline(self, now: float) -> bool:
        return (
            self.spec.deadline is not None
            and self.first_started is not None
            and self.elapsed(now) > self.spec.deadline
        )


class _Stream:
    """One lazily-pulled spec iterator with a single-slot hold buffer (a
    pulled spec whose tenant is at quota parks here; the stream stalls —
    bounded memory — until the quota frees)."""

    def __init__(self, specs: Iterable[JobSpec]):
        self.it = iter(specs)
        self.held: Optional[JobSpec] = None
        self.done = False
        self.admitted = 0  # specs successfully admitted from this stream

    def next_spec(self) -> Optional[JobSpec]:
        if self.held is not None:
            spec, self.held = self.held, None
            return spec
        if self.done:
            return None
        try:
            return next(self.it)
        except StopIteration:
            self.done = True
            return None

    @property
    def exhausted(self) -> bool:
        return self.done and self.held is None


def _degrade(spec: JobSpec) -> JobSpec:
    """Deadline-pressure downgrade: run the rest of the budget on the naive
    schedule — minimal precompute, and per-timestep (not per-tile)
    checkpoint granularity, so any further retry loses the least work.
    Numerics are unchanged: all schedules are bit-identical."""
    from dataclasses import replace

    return spec if spec.schedule == "naive" else replace(spec, schedule="naive")


def _durable_result(job_dir: Path, digest: Optional[str]):
    """The journal-verified durable result of *job_dir*, or None.

    Trusted only when ``result.npz`` exists, matches its ``.sha256``
    sidecar, *and* matches the digest the journal's completion outcome
    recorded — a torn write, on-disk damage, or a file from some other run
    all fail the cross-check and send the job back to execution."""
    path = worker_mod._result_path(job_dir)
    if not path.exists() or not verify_digest(path, require=True):
        return None
    if digest is not None and file_digest(path) != digest:
        return None
    try:
        return worker_mod.read_result(job_dir)
    except Exception:
        return None


def _classify_failure(error: BaseException) -> str:
    """Attempt-outcome label of a daemon-reported failure.

    ``"sdc"`` (a :class:`~repro.errors.SilentCorruptionError` the worker's
    ABFT guard or shm checksum gate raised) is kept distinct from the
    generic ``"fault"``: sdc retries back off flat (corruption is
    environmental, not the job's fault), never count toward poison
    quarantine, and make later attempts distrust the shared-memory model
    segments."""
    return "sdc" if isinstance(error, SilentCorruptionError) else "fault"


def _resume_step(job_dir: Path) -> Optional[int]:
    """Newest persisted snapshot step, parsed from the filename (the store's
    atomic writes mean a visible file is a complete file)."""
    paths = sorted(Path(job_dir).glob("ckpt/ckpt_*.npz"))
    return int(paths[-1].stem[len("ckpt_"):]) if paths else None


class JobPool:
    """Warm-worker batch executor (see module docstring).

    Parameters
    ----------
    workers:
        Warm daemon slots; ``0`` executes serially in-process.
    capacity:
        Bound on admitted-but-unfinished jobs; a direct :meth:`submit`
        raises :class:`~repro.errors.QueueSaturatedError` beyond it, and
        streams stop being pulled until jobs finish.
    retry:
        Backoff policy (default :class:`~repro.jobs.retry.RetryPolicy`).
    breaker:
        Optional :class:`~repro.jobs.breaker.CircuitBreaker` guarding the
        fused engine across the batch.
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
    pressure_fraction:
        Fraction of the deadline a job may burn before retries dispatch
        degraded.
    tenant_quota:
        Optional per-tenant bound on admitted-but-unfinished jobs: a direct
        :meth:`submit` over it raises
        :class:`~repro.errors.QueueSaturatedError`, a stream holding a spec
        of a saturated tenant stalls until the tenant drains.
    journal:
        Write-ahead journal every state transition to
        ``<workdir>/journal.jsonl`` (default on; a pre-existing journal from
        an earlier batch in the same workdir is truncated — use
        :meth:`resume` to continue one instead).
    journal_fsync:
        fsync each journal record (default on — the crash-safety contract;
        turn off only for throughput experiments).
    heartbeat_interval:
        Seconds between liveness beats of a busy daemon.
    heartbeat_timeout:
        A busy daemon silent this long is declared wedged: SIGKILLed,
        replaced, its job retried from checkpoint.  ``None`` disables the
        check.
    poison_threshold:
        Consecutive daemon-crash outcomes before a job is quarantined.
    metrics:
        Service-level instrumentation: ``None`` (default) creates a private
        :class:`~repro.telemetry.metrics.MetricsRegistry`; pass a registry
        to share one across pools; pass ``False`` to disable the metrics
        layer *and* supervisor phase accounting entirely (the overhead
        benchmark's off-path).
    trace:
        Propagate a trace context to every attempt and collect serialized
        span trees back with results (``AttemptRecord.trace``), mergeable
        into one batch-wide Chrome trace by
        :func:`repro.telemetry.merge.merge_batch_trace`.  Implies a
        telemetry buffer (one is created when none was passed).
    status_interval:
        Cadence (seconds) of the atomically-refreshed ``metrics.json``
        live-status snapshot in the batch workdir; ``0`` disables the
        cadence (the final snapshot is still written).
    """

    def __init__(
        self,
        workers: int = 4,
        capacity: int = DEFAULT_CAPACITY,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        chaos: Optional[ChaosConfig] = None,
        batch_seed: int = 0,
        workdir=None,
        telemetry=None,
        poll_interval: float = 0.02,
        pressure_fraction: float = 0.5,
        start_method: Optional[str] = None,
        tenant_quota: Optional[int] = None,
        journal: bool = True,
        journal_fsync: bool = True,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = 60.0,
        poison_threshold: int = 3,
        metrics=None,
        trace: bool = False,
        status_interval: float = 0.5,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = serial in-process)")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError("tenant_quota must be >= 1 (or None)")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive (or None)")
        if poison_threshold < 1:
            raise ValueError("poison_threshold must be >= 1")
        # static schema self-check: the journal kinds this module emits must
        # match the declared table and the resume dispatch (cached per process)
        if not _journal_mod._schema_checked:
            _journal_mod.verify_journal_schema()
        self.workers = int(workers)
        self.capacity = int(capacity)
        self.tenant_quota = tenant_quota
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.chaos_plan = (
            ChaosPlan(chaos, batch_seed) if chaos is not None and chaos.active else None
        )
        self.batch_seed = int(batch_seed)
        self.telemetry = telemetry
        self.trace = bool(trace)
        if self.trace and self.telemetry is None:
            from ..telemetry import Telemetry

            self.telemetry = Telemetry()
        self.poll_interval = float(poll_interval)
        self.pressure_fraction = float(pressure_fraction)
        self._tmp = None
        if workdir is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory(prefix="repro-jobs-")
            workdir = self._tmp.name
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if start_method is None:
            start_method = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._jobs: List[_Job] = []
        self._by_id: Dict[str, _Job] = {}
        self._ready: list = []  # heap of (lane_priority, tiebreak, job)
        self._delayed: list = []  # heap of (ready_time, tiebreak, job)
        self._streams: deque = deque()
        self._tenant_active: Dict[str, int] = {}
        self._seq = 0
        # warm-daemon pool state
        self._pool: List[WarmWorker] = []
        self._worker_seq = 0
        self.workers_spawned = 0
        self._registry = None  # SharedArrayRegistry, created in run()
        self._handles: Dict[str, object] = {}
        self._kills_remaining = (
            self.chaos_plan.config.kill_workers if self.chaos_plan else 0
        )
        self.kills_done = 0
        #: chronological lifecycle events: {"ts", "kind", "job", ...}
        self.events: List[dict] = []
        self._epoch = time.perf_counter()
        # supervisor robustness state
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = (
            None if heartbeat_timeout is None else float(heartbeat_timeout)
        )
        self.poison_threshold = int(poison_threshold)
        self.hung_workers = 0
        self.resumed = False
        self._stream_errors: List[str] = []
        self._draining = False
        self._drain_signal: Optional[int] = None
        self._terminals = 0
        #: the StorageExhaustedError that degraded this batch (None = healthy)
        self.storage_degraded: Optional[StorageExhaustedError] = None
        # -- observability layer: registry + exclusive phase accounting ----
        # (metrics=False turns the whole layer off — the overhead
        # benchmark's baseline path)
        if metrics is False:
            self.metrics: Optional[MetricsRegistry] = None
            self._acct: Optional[PhaseAccountant] = None
        else:
            self.metrics = metrics if metrics is not None else MetricsRegistry()
            self._acct = PhaseAccountant()
        self.status_interval = float(status_interval)
        self._last_status = 0.0
        self._jobs_phase_added = 0.0
        self._attempt_phase_folded = 0.0  # serial: attempt phase seconds folded in
        self._init_metrics()
        if self.breaker is not None and self.metrics is not None:
            self.breaker.bind_metrics(self.metrics)
        self._journal: Optional[BatchJournal] = None
        if journal:
            # a fresh pool owns its journal outright: truncate whatever an
            # earlier batch left in this workdir (resume() reattaches
            # instead, past the verified prefix)
            self._journal = BatchJournal(
                self.workdir / JOURNAL_NAME, fsync=journal_fsync, truncate_to=0,
                metrics=self.metrics,
            )
            self._journal_append(
                "batch",
                version=JOURNAL_VERSION,
                batch_seed=self.batch_seed,
                workers=self.workers,
                capacity=self.capacity,
                tenant_quota=self.tenant_quota,
                retry={
                    "base": self.retry.base,
                    "factor": self.retry.factor,
                    "max_delay": self.retry.max_delay,
                    "jitter": self.retry.jitter,
                },
                heartbeat_interval=self.heartbeat_interval,
                heartbeat_timeout=self.heartbeat_timeout,
                poison_threshold=self.poison_threshold,
                chaos_active=self.chaos_plan is not None,
            )

    def _journal_append(self, kind: str, **payload) -> None:
        """Durably journal one record (no-op when journaling is off).

        ``ENOSPC`` surfaces as :class:`~repro.errors.StorageExhaustedError`
        and must not take the supervisor loop down: the batch degrades —
        one best-effort ``storage_degraded`` record, journaling off, a
        clean drain — instead of dying mid-flight with daemons running."""
        if self._journal is None:
            return
        try:
            with self._phase("journal"):
                self._journal.append(kind, **payload)
        except StorageExhaustedError as exc:
            self._on_storage_exhausted(exc)
            return
        if self.telemetry is not None:
            self.telemetry.counters.add("journal_records")

    def _on_storage_exhausted(self, exc: StorageExhaustedError) -> None:
        """Degrade gracefully when persistent storage fills up: journal a
        best-effort ``storage_degraded`` record (it may well fail too — the
        recursion is cut by the ``storage_degraded`` flag), stop journaling
        entirely, and drain the batch cleanly so in-flight attempts finish
        and everything else reports ``interrupted`` (resumable once space
        frees)."""
        if self.storage_degraded is not None:
            self._journal = None
            return
        self.storage_degraded = exc
        context = getattr(exc, "context", {}) or {}
        self._journal_append(
            "storage_degraded",
            op=context.get("op"),
            path=context.get("path"),
            error=str(exc),
        )
        self._journal = None
        if self.metrics is not None:
            self._m_storage_degraded.inc()
        self._emit_pool("storage_degraded", error=str(exc), op=context.get("op"))
        if not self._draining:
            self.request_drain()

    # -- observability -----------------------------------------------------------------
    @property
    def batch_id(self) -> str:
        """Stable batch identity: the workdir name (survives resume)."""
        return self.workdir.name

    def _phase(self, name: str):
        """Exclusive supervisor wall-time bucket (no-op with metrics off)."""
        return self._acct.phase(name) if self._acct is not None else nullcontext()

    def _init_metrics(self) -> None:
        """Create (get-or-create — registries are shareable) every
        instrument the supervisor records into, once, so the hot paths pay
        a plain attribute access instead of a registry lookup."""
        if self.metrics is None:
            return
        m = self.metrics
        self._m_admitted = m.counter(
            "jobs_admitted_total", "jobs admitted into the batch",
            ("lane", "tenant"),
        )
        self._m_completed = m.counter(
            "jobs_completed_total", "jobs that reached completed"
        )
        self._m_terminal = m.counter(
            "jobs_terminal_total", "jobs per terminal status", ("status",)
        )
        self._m_retried = m.counter("jobs_retried_total", "attempt retries scheduled")
        self._m_queue_depth = m.gauge(
            "queue_depth", "ready-to-dispatch jobs per priority lane", ("lane",)
        )
        self._m_tenant_active = m.gauge(
            "tenant_active_jobs", "admitted-but-unfinished jobs per tenant",
            ("tenant",),
        )
        self._m_tenant_quota = m.gauge(
            "tenant_quota", "per-tenant admission quota (0 = unlimited)"
        )
        self._m_admission_wait = m.histogram(
            "admission_wait_seconds",
            "queue-entry to first dispatch, per lane", ("lane",),
        )
        self._m_attempt = m.histogram(
            "attempt_seconds", "attempt latency per outcome", ("outcome",)
        )
        self._m_workers_alive = m.gauge("workers_alive", "live warm daemons")
        self._m_workers_busy = m.gauge("workers_busy", "daemons with a job in flight")
        self._m_spawned = m.counter(
            "workers_spawned_total", "daemons preforked (initial + replacements)"
        )
        self._m_hb_age = m.gauge(
            "worker_heartbeat_age_seconds",
            "seconds since a busy daemon's last liveness beat", ("worker",),
        )
        self._m_shm_bytes = m.counter(
            "shm_bytes_published_total", "shared-memory bytes published per batch"
        )
        self._m_sup_seconds = m.gauge(
            "supervisor_seconds",
            "exclusive supervisor wall-time per bucket", ("bucket",),
        )
        self._m_sdc = m.counter(
            "sdc_detections_total",
            "silent-data-corruption detections", ("detector",),
        )
        self._m_sdc_recovered = m.counter(
            "sdc_recoveries_total",
            "attempts that recovered in-run from silent corruption",
        )
        self._m_sdc_tiles = m.counter(
            "sdc_tiles_reexecuted_total",
            "containment units re-executed after an ABFT violation",
        )
        self._m_storage_degraded = m.counter(
            "storage_degraded_total",
            "batches degraded by ENOSPC on the journal/checkpoint path",
        )
        self._m_points = m.counter(
            "jobs_points_updated_total", "grid points updated by completed attempts"
        )
        self._m_stencil = m.counter(
            "jobs_stencil_seconds_total", "stencil seconds of completed attempts"
        )
        for lane in LANES:
            self._m_queue_depth.set(0, lane=lane)
        self._m_tenant_quota.set(self.tenant_quota or 0)

    def _refresh_gauges(self) -> None:
        """Recompute every level-style gauge from supervisor state (cheap:
        admitted jobs are bounded by ``capacity``)."""
        if self.metrics is None:
            return
        depth = {lane: 0 for lane in LANES}
        for priority, _, _job in self._ready:
            depth[LANES[priority]] += 1
        for lane, n in depth.items():
            self._m_queue_depth.set(n, lane=lane)
        for tenant, n in self._tenant_active.items():
            self._m_tenant_active.set(n, tenant=tenant)
        self._m_workers_alive.set(sum(1 for w in self._pool if w.alive))
        self._m_workers_busy.set(sum(1 for w in self._pool if w.busy))
        now_mono = time.monotonic()
        for w in self._pool:
            if w.busy:
                self._m_hb_age.set(
                    max(0.0, now_mono - w.last_beat), worker=w.worker_id
                )
        if self._acct is not None:
            for bucket, secs in self._acct.flush().items():
                self._m_sup_seconds.set(secs, bucket=bucket)

    def _status_summary(self) -> dict:
        summary = {
            "jobs": len(self._jobs),
            "terminal": self._terminals,
            "completed": sum(1 for j in self._jobs if j.result and j.result.ok),
            "active": self._active(),
            "ready": len(self._ready),
            "delayed": len(self._delayed),
            "streams_open": sum(1 for s in self._streams if not s.exhausted),
            "workers": {
                "configured": self.workers,
                "alive": sum(1 for w in self._pool if w.alive),
                "busy": sum(1 for w in self._pool if w.busy),
                "spawned": self.workers_spawned,
                "hung": self.hung_workers,
            },
            "draining": self._draining,
            "resumed": self.resumed,
            "storage_degraded": self.storage_degraded is not None,
            "elapsed_seconds": time.perf_counter() - self._epoch,
        }
        if self.breaker is not None:
            summary["breaker"] = {
                "engine": self.breaker.engine,
                "state": self.breaker.state,
                "transitions": len(self.breaker.transitions),
            }
        return summary

    def _write_status(self, final: bool = False) -> None:
        """Atomically refresh ``metrics.json`` in the batch dir (and, at
        batch end, the Prometheus exposition next to it).  Best-effort: a
        full disk must not take the batch down."""
        if self.metrics is None:
            return
        self._refresh_gauges()
        try:
            self.metrics.write_json(
                self.workdir / METRICS_NAME,
                extra={
                    "batch_id": self.batch_id,
                    "final": final,
                    "status": self._status_summary(),
                },
            )
            if final:
                # prom is text, not JSON — same tmp+replace idiom by hand
                tmp = self.workdir / (PROM_NAME + ".tmp")
                tmp.write_text(self.metrics.exposition())
                os.replace(tmp, self.workdir / PROM_NAME)
        except OSError:
            pass

    def _maybe_status(self) -> None:
        """Refresh the live ``metrics.json`` when the cadence is due."""
        if self.metrics is None or self.status_interval <= 0:
            return
        now = time.perf_counter()
        if now - self._last_status >= self.status_interval:
            self._last_status = now
            self._write_status()

    def _trace_epoch(self) -> float:
        """The batch-relative zero every merged span is measured from."""
        if self.telemetry is not None and self.telemetry.epoch is not None:
            return self.telemetry.epoch
        return self._epoch

    def _attach_trace(self, record: AttemptRecord, meta: dict) -> None:
        """Pop the attempt's serialized span payload out of *meta* (it must
        not bloat ``result.npz``), stamp it with the handshake clock
        offset, and hang it on the attempt record for the merger."""
        if not isinstance(meta, dict):
            return
        payload = meta.pop("telemetry", None)
        if payload is None:
            return
        ctx = payload.setdefault("context", {})
        dispatch = ctx.get("dispatch_perf")
        recv = ctx.get("recv_perf")
        if isinstance(dispatch, float) and isinstance(recv, float):
            # equate the pipe-write and pipe-read instants: child time t is
            # batch-relative t + offset, error bounded by the pipe latency
            ctx["clock_offset_s"] = (dispatch - self._trace_epoch()) - recv
        else:
            # serial mode: recorder and supervisor share one clock
            ctx["clock_offset_s"] = -self._trace_epoch()
        record.trace = payload

    # -- admission ---------------------------------------------------------------------
    def _active(self) -> int:
        return sum(1 for j in self._jobs if not j.terminal)

    def _tenant_load(self, tenant: str) -> int:
        return self._tenant_active.get(tenant, 0)

    def submit(self, specs: Union[JobSpec, Iterable[JobSpec]]) -> None:
        """Admit one spec, or register a *stream* of them.

        A single :class:`JobSpec` is admitted immediately —
        :class:`QueueSaturatedError` at capacity (or over the tenant quota)
        is the backpressure signal.  Any other iterable is registered as a
        stream and pulled lazily while :meth:`run` drives the batch: a spec
        is only drawn once there is admission capacity (and tenant quota)
        for it, so an effectively-infinite survey generator runs in bounded
        memory.
        """
        if isinstance(specs, JobSpec):
            self._admit(specs, streamed=False)
            return None
        self._streams.append(_Stream(specs))
        return None

    def _admit(self, spec: JobSpec, streamed: bool) -> None:
        if spec.job_id in self._by_id:
            raise ValueError(f"duplicate job_id {spec.job_id!r}")
        pending = self._active()
        if pending >= self.capacity:
            raise QueueSaturatedError(
                f"admission queue is full ({pending}/{self.capacity}); "
                "drain the pool or shed load",
                capacity=self.capacity,
                pending=pending,
            )
        if (
            self.tenant_quota is not None
            and self._tenant_load(spec.tenant) >= self.tenant_quota
        ):
            raise QueueSaturatedError(
                f"tenant {spec.tenant!r} is at its admission quota "
                f"({self._tenant_load(spec.tenant)}/{self.tenant_quota})",
                capacity=self.tenant_quota,
                pending=self._tenant_load(spec.tenant),
                tenant=spec.tenant,
            )
        job_dir = self.workdir / spec.job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        job = _Job(
            index=len(self._jobs),
            spec=spec,
            job_dir=job_dir,
            jitter_rng=self.retry.rng_for(self.batch_seed, len(self._jobs)),
        )
        self._journal_append(
            "admit", job=spec.job_id, index=job.index, streamed=streamed,
            spec=spec.to_dict(),
        )
        self._jobs.append(job)
        self._by_id[spec.job_id] = job
        self._tenant_active[spec.tenant] = self._tenant_load(spec.tenant) + 1
        self._push_ready(job)
        if self.metrics is not None:
            self._m_admitted.inc(lane=spec.lane, tenant=spec.tenant)
        self._emit(
            "queued", job, lane=spec.lane, tenant=spec.tenant, streamed=streamed
        )

    def _push_ready(self, job: _Job) -> None:
        self._seq += 1
        heapq.heappush(self._ready, (job.spec.lane_priority, self._seq, job))

    def _pump_streams(self) -> bool:
        """Pull specs from registered streams while admission allows;
        True if anything was admitted.

        A stream whose iterator raises is the *caller's* bug, not the
        batch's: the broken stream is dropped and recorded as a
        :class:`~repro.errors.StreamAdmissionError` on the report, while
        every job it already yielded drains to a terminal state — only the
        specs it never produced are lost.
        """
        admitted = False
        with self._phase("admission"):
            while self._streams and self._active() < self.capacity:
                stream: _Stream = self._streams[0]
                try:
                    spec = stream.next_spec()
                except Exception as exc:  # noqa: BLE001 — caller-owned iterator
                    self._stream_failed(stream, exc)
                    self._streams.popleft()
                    continue
                if spec is None:
                    self._streams.popleft()
                    continue
                if (
                    self.tenant_quota is not None
                    and self._tenant_load(spec.tenant) >= self.tenant_quota
                ):
                    stream.held = spec  # park it; the stream stalls until drain
                    break
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
        self._journal_append(
            "stream_failed", admitted=stream.admitted, reason=reason
        )
        self._emit_pool("stream_failed", admitted=stream.admitted, error=reason)

    # -- events ------------------------------------------------------------------------
    def _emit(self, kind: str, job: _Job, **info) -> None:
        self.events.append(
            {
                "ts": time.perf_counter() - self._epoch,
                "kind": kind,
                "job": job.spec.job_id,
                **info,
            }
        )
        if self.telemetry is not None:
            self.telemetry.counters.add(f"jobs_{kind}")
            self.telemetry.event(f"job.{kind}", phase="jobs", job=job.spec.job_id, **info)

    def _emit_pool(self, kind: str, **info) -> None:
        """A batch-scoped event attributable to no single job or worker."""
        self.events.append(
            {
                "ts": time.perf_counter() - self._epoch,
                "kind": kind,
                "job": "",
                **info,
            }
        )
        if self.telemetry is not None:
            self.telemetry.counters.add(f"jobs_{kind}")
            self.telemetry.event(f"job.{kind}", phase="jobs", **info)

    def _emit_worker(self, kind: str, worker_id: int, **info) -> None:
        self.events.append(
            {
                "ts": time.perf_counter() - self._epoch,
                "kind": kind,
                "job": "",
                "worker": worker_id,
                **info,
            }
        )
        if self.telemetry is not None:
            self.telemetry.counters.add(f"jobs_{kind}")
            self.telemetry.event(f"job.{kind}", phase="jobs", worker=worker_id, **info)

    # -- terminal transitions ----------------------------------------------------------
    def _finish(self, job: _Job, result: JobResult, kind: str, **info) -> None:
        result.attempts = job.attempts
        result.elapsed = job.elapsed(time.perf_counter())
        job.result = result
        job.worker = None
        self._tenant_active[job.spec.tenant] = max(
            0, self._tenant_load(job.spec.tenant) - 1
        )
        self._journal_append(
            "terminal",
            job=job.spec.job_id,
            status=result.status,
            attempts=len(job.attempts),
            error=f"{type(result.error).__name__}: {result.error}"
            if result.error
            else "",
        )
        self._emit(kind, job, **info)
        self._terminals += 1
        if self.metrics is not None:
            self._m_terminal.inc(status=result.status)
        self._chaos_kill_supervisor()

    def _chaos_kill_supervisor(self) -> None:
        """Chaos ``kill_supervisor_after``: SIGKILL *this* process once N
        jobs are terminal — the journal records just fsynced are all a
        resume gets, exactly like an OOM-killed parent."""
        if self.chaos_plan is None:
            return
        threshold = self.chaos_plan.config.kill_supervisor_after
        if threshold is not None and self._terminals >= threshold:
            os.kill(os.getpid(), signal.SIGKILL)

    def _complete(self, job: _Job, rec, meta: dict, now: float) -> None:
        record = job.attempts[-1]
        record.ended = now
        record.outcome = "completed"
        record.engine = meta.get("engine", "")
        record.resumed_from = meta.get("resumed_from")
        record.worker = meta.get("worker")
        record.warm = bool(meta.get("warm", False))
        record.phases = dict(meta.get("phases", {}))
        record.caches = dict(meta.get("caches", {}))
        # peel the span payload off *before* the result goes durable: traces
        # are trace-file material, not result.npz material
        self._attach_trace(record, meta)
        if self.metrics is not None:
            self._m_attempt.observe(
                max(0.0, now - record.started), outcome="completed"
            )
            self._m_completed.inc()
            work = meta.get("work") or {}
            if work.get("points_updated"):
                self._m_points.inc(float(work["points_updated"]))
            if work.get("stencil_seconds"):
                self._m_stencil.inc(float(work["stencil_seconds"]))
        if self.workers == 0 and self.telemetry is not None:
            # serial mode: the attempt ran on this process's clock — fold its
            # phase seconds into the pool buffer so batch coverage holds
            for ph_name, secs in (meta.get("phase_seconds") or {}).items():
                self.telemetry.add_phase(ph_name, float(secs))
                self._attempt_phase_folded += float(secs)
        self._count_warmth(record)
        self._breaker_feedback(job, meta)
        # make the result durable *before* journaling the outcome: the
        # outcome record carries the file digest, so a resume trusts
        # result.npz only when both the sidecar and the journal agree
        worker_mod.write_result(job.dir, rec, meta)
        digest = write_digest(worker_mod._result_path(job.dir))
        self._journal_append(
            "outcome",
            job=job.spec.job_id,
            attempt=record.attempt,
            outcome="completed",
            engine=record.engine,
            digest=digest,
        )
        # an ABFT guard that detected corruption *and recovered in-run*
        # leaves the outcome "completed" — the detection must still reach
        # the journal and the metrics, or recovered corruption is invisible
        abft = meta.get("abft") if isinstance(meta, dict) else None
        if isinstance(abft, dict) and abft.get("detections"):
            detections = int(abft["detections"])
            tiles = int(abft.get("tiles_reexecuted", 0))
            self._journal_append(
                "sdc",
                job=job.spec.job_id,
                attempt=record.attempt,
                recovered=True,
                detector="growth",
                detections=detections,
                tiles_reexecuted=tiles,
                micro_snapshot_bytes=int(abft.get("micro_snapshot_bytes", 0)),
            )
            if self.metrics is not None:
                self._m_sdc.inc(detections, detector="growth")
                self._m_sdc_recovered.inc()
                if tiles:
                    self._m_sdc_tiles.inc(tiles)
            self._emit(
                "sdc_recovered", job, attempt=record.attempt,
                detections=detections, tiles_reexecuted=tiles,
            )
        job.consecutive_crashes = 0
        self._finish(
            job,
            JobResult(
                spec=job.spec,
                status="completed",
                receivers=rec,
                engine=meta.get("engine", ""),
                fallbacks=meta.get("fallbacks", []),
            ),
            "completed",
            attempts=len(job.attempts),
        )

    def _count_warmth(self, record: AttemptRecord) -> None:
        """Per-worker warm/cold attempt counters plus aggregated cache
        tallies, into the attached telemetry buffer."""
        if self.telemetry is None:
            return
        counters = self.telemetry.counters
        kind = "warm" if record.warm else "cold"
        counters.add(f"jobs_{kind}_attempts")
        if record.worker is not None:
            counters.add(f"worker{record.worker}.jobs")
            counters.add(f"worker{record.worker}.{kind}_attempts")
        for key, n in record.caches.items():
            counters.add(f"jobs_{key}", n)

    def _timeout(self, job: _Job, now: float) -> None:
        if job.attempts and not job.attempts[-1].outcome:
            job.attempts[-1].ended = now
            job.attempts[-1].outcome = "timeout"
            if self.metrics is not None:
                self._m_attempt.observe(
                    max(0.0, now - job.attempts[-1].started), outcome="timeout"
                )
        self._journal_append(
            "outcome",
            job=job.spec.job_id,
            attempt=job.attempts[-1].attempt if job.attempts else 0,
            outcome="timeout",
        )
        if self.breaker is not None and job.dispatched_engine == self.breaker.engine:
            self.breaker.record_inconclusive(job.dispatched_engine)
        err = JobTimeoutError(
            f"job {job.spec.job_id} exceeded its {job.spec.deadline:.3f}s deadline",
            job_id=job.spec.job_id,
            deadline=job.spec.deadline,
            elapsed=job.elapsed(now),
        )
        self._finish(
            job,
            JobResult(spec=job.spec, status="timeout", error=err),
            "timeout",
            elapsed=job.elapsed(now),
        )

    def _fail_attempt(self, job: _Job, error: BaseException, outcome: str, now: float) -> None:
        record = job.attempts[-1]
        record.ended = now
        record.outcome = outcome
        record.error = f"{type(error).__name__}: {error}"
        if self.metrics is not None:
            self._m_attempt.observe(max(0.0, now - record.started), outcome=outcome)
        self._journal_append(
            "outcome",
            job=job.spec.job_id,
            attempt=record.attempt,
            outcome=outcome,
            error=record.error,
        )
        if outcome == "sdc":
            # unrecovered silent corruption: journal the audit record, count
            # it, and stop trusting the shared model segments for this job —
            # the retry recomputes them locally (bit-identical)
            detector = (getattr(error, "context", {}) or {}).get(
                "detector", "growth"
            )
            job.distrust_shm = True
            self._journal_append(
                "sdc",
                job=job.spec.job_id,
                attempt=record.attempt,
                recovered=False,
                detector=detector,
                error=record.error,
            )
            if self.metrics is not None:
                self._m_sdc.inc(detector=detector)
            self._emit("sdc", job, attempt=record.attempt, detector=detector)
        job.consecutive_crashes = (
            job.consecutive_crashes + 1 if outcome == "crash" else 0
        )
        if (
            outcome == "crash"
            and self.breaker is not None
            and job.dispatched_engine == self.breaker.engine
        ):
            self.breaker.record_inconclusive(job.dispatched_engine)
        if job.consecutive_crashes >= self.poison_threshold:
            err = PoisonJobError(
                f"job {job.spec.job_id} quarantined: it crashed "
                f"{job.consecutive_crashes} consecutive daemon(s); forensics "
                f"under {job.dir}",
                job_id=job.spec.job_id,
                crashes=job.consecutive_crashes,
                attempts=[a.to_dict() for a in job.attempts],
                job_dir=str(job.dir),
            )
            err.__cause__ = error
            self._finish(
                job,
                JobResult(spec=job.spec, status="quarantined", error=err),
                "quarantined",
                crashes=job.consecutive_crashes,
            )
            return
        if job.attempt_no + 1 >= job.spec.max_attempts:
            err = RetryExhaustedError(
                f"job {job.spec.job_id} failed all {job.spec.max_attempts} attempt(s); "
                f"last error: {record.error}",
                job_id=job.spec.job_id,
                attempts=[a.to_dict() for a in job.attempts],
            )
            err.__cause__ = error
            self._finish(job, JobResult(spec=job.spec, status="exhausted", error=err),
                         "exhausted", attempts=len(job.attempts))
            return
        job.attempt_no += 1
        # backoff never sleeps a job past its own deadline: cap the delay at
        # the remaining budget (the jitter draw is consumed regardless, so
        # the per-job backoff stream stays deterministic)
        budget = None
        if job.spec.deadline is not None and job.first_started is not None:
            budget = job.spec.deadline - job.elapsed(now)
        delay = self.retry.delay(
            job.attempt_no, job.jitter_rng, budget=budget, metrics=self.metrics,
            outcome=outcome,
        )
        self._seq += 1
        heapq.heappush(self._delayed, (now + delay, self._seq, job))
        if self.metrics is not None:
            self._m_retried.inc()
        self._emit("retried", job, attempt=job.attempt_no, delay=delay, error=record.error)

    def _breaker_feedback(self, job: _Job, meta: dict) -> None:
        """Feed daemon-reported engine outcomes into the parent's breaker.

        Multiprocess mode only: in serial mode the breaker rides the engine
        ladder in-process and has already recorded the outcome itself.
        """
        br = self.breaker
        if br is None or self.workers == 0 or job.dispatched_engine != br.engine:
            return
        failed = any(f.get("failed") == br.engine for f in meta.get("fallbacks", ()))
        if failed:
            br.record_failure(br.engine)
        else:
            br.record_success(br.engine)

    # -- warm-daemon pool --------------------------------------------------------------
    def _spawn_worker(self) -> WarmWorker:
        self._worker_seq += 1
        self.workers_spawned += 1
        worker = WarmWorker(
            self._ctx,
            self._worker_seq,
            self._handles,
            heartbeat_interval=self.heartbeat_interval,
        )
        self._pool.append(worker)
        if self.metrics is not None:
            self._m_spawned.inc()
        self._emit_worker("worker_spawned", worker.worker_id, pid=worker.proc.pid)
        return worker

    def _retire(self, worker: WarmWorker, crashed: bool = False) -> None:
        """Drop *worker* from the pool (its process already dead or being
        killed); shared segments stay valid — only the mapping died."""
        if worker in self._pool:
            self._pool.remove(worker)
        if self.metrics is not None:
            self._m_hb_age.remove(worker=worker.worker_id)
        worker.kill()  # no-op if already dead; reaps the process either way
        self._emit_worker(
            "worker_crashed" if crashed else "worker_retired",
            worker.worker_id,
            exitcode=worker.exitcode,
            jobs=worker.jobs_dispatched,
        )

    def _idle_worker(self) -> Optional[WarmWorker]:
        for worker in self._pool:
            if not worker.busy and worker.alive:
                return worker
        if len(self._pool) < self.workers:
            return self._spawn_worker()
        return None

    def _outstanding(self) -> int:
        """Jobs that will still need a daemon (ready + backed off + maybe
        more behind the streams)."""
        n = len(self._ready) + len(self._delayed)
        if any(not s.exhausted for s in self._streams):
            n += 1
        return n

    def _replenish(self) -> None:
        """Prefork replacements for crashed/retired daemons while there is
        work left for them to do."""
        if self._draining:
            return  # no new daemons for work that will not dispatch
        want = min(self.workers, self._outstanding() + sum(w.busy for w in self._pool))
        while len(self._pool) < want:
            self._spawn_worker()

    # -- dispatch ----------------------------------------------------------------------
    def _effective_spec(self, job: _Job, now: float, reroute: bool = True) -> JobSpec:
        spec = job.spec
        degraded = False
        if (
            job.attempt_no > 0
            and spec.deadline is not None
            and job.elapsed(now) > self.pressure_fraction * spec.deadline
        ):
            downgraded = _degrade(spec)
            if downgraded is not spec:
                spec, degraded = downgraded, True
                self._emit("degraded", job, schedule=spec.schedule)
        if (
            reroute
            and self.breaker is not None
            and spec.engine == self.breaker.engine == "fused"
            and not self.breaker.allow("fused")
        ):
            from dataclasses import replace

            spec = replace(spec, engine="kernel")
            degraded = True
            self._emit("rerouted", job, engine="kernel")
        job._degraded = degraded
        return spec

    def _dispatch(self, job: _Job, now: float) -> bool:
        """Hand *job* to an idle warm daemon; False when none is available."""
        worker = self._idle_worker()
        if worker is None:
            return False
        if job.first_started is None:
            if self.metrics is not None:
                self._m_admission_wait.observe(
                    max(0.0, time.perf_counter() - job.queued_ts),
                    lane=job.spec.lane,
                )
            job.first_started = now
        spec = self._effective_spec(job, now)
        job.dispatched_engine = spec.engine
        resume = job.attempt_no > 0 or job.force_resume
        entry = (
            self.chaos_plan.entry(job.index, spec.nt) if self.chaos_plan else None
        )
        job.attempts.append(
            AttemptRecord(
                attempt=job.attempt_no,
                started=now,
                degraded=getattr(job, "_degraded", False),
            )
        )
        step = _resume_step(job.dir) if resume else None
        if step is not None:
            self._emit("resumed", job, step=step, attempt=job.attempt_no)
        # write-ahead: the attempt is journaled before it crosses the pipe,
        # so a supervisor crash can never lose track of an in-flight job
        self._journal_append(
            "attempt",
            job=job.spec.job_id,
            attempt=job.attempt_no,
            engine=spec.engine,
            resume=resume,
            step=step,
        )
        ctx = {"batch": self.batch_id, "trace": True} if self.trace else None
        if job.distrust_shm:
            ctx = {**(ctx or {}), "distrust_shm": True}
        try:
            worker.dispatch(spec, str(job.dir), job.attempt_no, resume, entry, ctx)
        except (BrokenPipeError, OSError):
            # the daemon died between polls; retire it and try the next one
            self._retire(worker, crashed=True)
            job.attempts.pop()
            if step is not None:
                self.events.pop()  # withdraw the provisional "resumed"
            return self._dispatch(job, now)
        worker.job = job
        job.worker = worker
        job.force_resume = False
        self._emit(
            "started", job, attempt=job.attempt_no, engine=spec.engine,
            worker=worker.worker_id,
        )
        return True

    # -- supervision -------------------------------------------------------------------
    def _handle_message(self, worker: WarmWorker, msg, now: float) -> None:
        job = worker.job
        worker.job = None
        kind = msg[0]
        if kind == "ok":
            _, _job_id, _attempt, rec, meta = msg
            self._complete(job, rec, meta, now)
        else:
            _, _job_id, _attempt, error = msg
            self._fail_attempt(job, error, _classify_failure(error), now)

    def _crash(self, worker: WarmWorker, now: float) -> None:
        """The daemon died with a job in flight and nothing in the pipe."""
        job = worker.job
        worker.job = None
        crash = WorkerCrashError(
            f"worker for job {job.spec.job_id} died without reporting "
            f"(exitcode {worker.exitcode})",
            job_id=job.spec.job_id,
            exitcode=worker.exitcode,
            attempt=job.attempts[-1].attempt,
        )
        self._fail_attempt(job, crash, "crash", now)

    def _chaos_kill(self, now: float) -> None:
        """Deal out pending chaos kills: SIGKILL the daemon of an attempt-0
        job as soon as its first checkpoint is on disk (guaranteeing a
        mid-run kill and a genuine resume on retry)."""
        if self._kills_remaining <= 0:
            return
        busy = sorted(
            (w for w in self._pool if w.busy), key=lambda w: w.job.index
        )
        for worker in busy:
            if self._kills_remaining <= 0:
                break
            job = worker.job
            if job.chaos_killed or job.attempts[-1].attempt != 0:
                continue
            if _resume_step(job.dir) is None:
                continue
            job.chaos_killed = True
            worker.proc.kill()
            self._kills_remaining -= 1
            self.kills_done += 1
            self._emit("killed", job, signal="SIGKILL", worker=worker.worker_id)

    def _hung(self, worker: WarmWorker, now: float) -> None:
        """A busy daemon went heartbeat-silent past ``heartbeat_timeout``:
        alive to the OS, wedged in practice.  SIGKILL it, honour any result
        that raced into the pipe, otherwise retry the job from checkpoint,
        and let :meth:`_replenish` prefork a replacement."""
        job = worker.job
        silent = time.monotonic() - worker.last_beat
        worker.proc.kill()
        worker.proc.join()
        late = worker.recv_nowait()
        worker.job = None
        self.hung_workers += 1
        self._emit_worker(
            "worker_hung", worker.worker_id, job=job.spec.job_id,
            silent=round(silent, 3),
        )
        if late is not None and late[0] == "ok":
            self._complete(job, late[3], late[4], now)
        else:
            hang = WorkerCrashError(
                f"worker {worker.worker_id} serving job {job.spec.job_id} went "
                f"heartbeat-silent for {silent:.2f}s (> "
                f"{self.heartbeat_timeout}s): livelocked, killed",
                job_id=job.spec.job_id,
                exitcode=worker.exitcode,
                attempt=job.attempts[-1].attempt,
            )
            self._fail_attempt(job, hang, "hang", now)
        self._retire(worker)

    def _poll(self, now: float) -> bool:
        """One supervision sweep; True if any state changed."""
        changed = False
        if not self._draining:
            changed = self._pump_streams()
        self._chaos_kill(now)
        for worker in list(self._pool):
            if not worker.busy:
                if not worker.alive:  # spontaneous death of an idle daemon
                    self._retire(worker, crashed=True)
                    changed = True
                continue
            job = worker.job
            msg = worker.recv_nowait()
            if msg is None and not worker.alive:
                worker.proc.join()
                msg = worker.recv_nowait()  # a result may have raced the death
                if msg is not None:
                    self._handle_message(worker, msg, now)
                else:
                    self._crash(worker, now)
                self._retire(worker, crashed=True)
                changed = True
                continue
            if msg is not None:
                self._handle_message(worker, msg, now)
                changed = True
            elif job.over_deadline(now):
                worker.proc.kill()
                worker.proc.join()
                late = worker.recv_nowait()  # completed in the kill window?
                worker.job = None
                if late is not None and late[0] == "ok":
                    self._complete(job, late[3], late[4], now)
                else:
                    self._timeout(job, now)
                self._retire(worker)
                changed = True
            elif worker.stalled(self.heartbeat_timeout):
                self._hung(worker, now)
                changed = True
        # promote delayed jobs whose backoff expired (or deadline died waiting)
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            if job.over_deadline(now):
                self._timeout(job, now)
            else:
                self._push_ready(job)
            changed = True
        # deadline can also expire while a job waits in backoff
        for _, _, job in list(self._delayed):
            if job.over_deadline(now):
                self._delayed = [(t, s, j) for t, s, j in self._delayed if j is not job]
                heapq.heapify(self._delayed)
                self._timeout(job, now)
                changed = True
        self._replenish()
        while self._ready and not self._draining:
            _, _, job = self._ready[0]
            with self._phase("dispatch"):
                dispatched = self._dispatch(job, now)
            if not dispatched:
                break
            heapq.heappop(self._ready)
            changed = True
        self._maybe_status()
        return changed

    def _busy_conns(self) -> List:
        return [w.conn for w in self._pool if w.busy and w.alive]

    # -- graceful drain ----------------------------------------------------------------
    def request_drain(self, signum: Optional[int] = None) -> None:
        """Begin a graceful shutdown: stop pulling streams and dispatching
        ready jobs, let in-flight attempts finish, then return a partial —
        resumable — report with unfinished jobs marked ``interrupted``.

        Called by the SIGTERM/SIGINT handlers :meth:`run` installs;
        idempotent, safe from signal context (it only flips a flag and
        appends — the drive loop does the actual winding down)."""
        if self._draining:
            return
        self._draining = True
        self._drain_signal = signum
        self._journal_append("drain", signal=signum)
        self._emit_pool("drain", signal=signum)

    def _finish_interrupted(self) -> None:
        """Terminal bookkeeping for every job the drain left unfinished —
        ``interrupted`` is resumable: the journal has the admission, and the
        checkpoints have the progress."""
        for job in self._jobs:
            if not job.terminal:
                self._finish(
                    job,
                    JobResult(spec=job.spec, status="interrupted"),
                    "interrupted",
                    attempts=len(job.attempts),
                )

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
        previous_handlers = self._install_signal_handlers()
        if self._acct is not None:
            self._acct.push("supervise")
        batch_span = (
            self.telemetry.begin("batch", phase="jobs", batch=self.batch_id)
            if self.telemetry is not None
            else None
        )
        try:
            if self.workers == 0:
                self._run_serial()
            else:
                self._publish_shared()
                # prefork the daemon fleet once, before the first dispatch
                self._replenish()
                while True:
                    if self._draining:
                        if not any(w.busy for w in self._pool):
                            break
                    elif not (
                        self._ready
                        or self._delayed
                        or any(w.busy for w in self._pool)
                        or any(not s.exhausted for s in self._streams)
                    ):
                        break
                    if not self._poll(time.perf_counter()):
                        conns = self._busy_conns()
                        with self._phase("idle"):
                            if conns:  # wake on the first daemon report
                                mp_connection.wait(conns, timeout=self.poll_interval)
                            else:
                                time.sleep(self.poll_interval)
            self._finish_interrupted()
            self._journal_append(
                "batch_end",
                drained=self._draining,
                completed=sum(1 for j in self._jobs if j.result and j.result.ok),
                terminals=self._terminals,
            )
        finally:
            for sig, handler in previous_handlers.items():
                signal.signal(sig, handler)
            # the journal stays open: the pool outlives run() (submitting
            # into freed capacity and running again is supported), and every
            # append is already flushed/fsynced — closing is GC's job
            with self._phase("drain"):
                for worker in self._pool:  # never leak daemons
                    worker.shutdown()
                self._pool.clear()
                if self._registry is not None:  # never leak /dev/shm segments
                    self._registry.close()
                    self._registry = None
                self._handles = {}
            if batch_span is not None:
                self.telemetry.end(batch_span)
            if self._acct is not None:
                self._acct.pop()  # close the supervise root
                if self.telemetry is not None:
                    # charge the supervisor's own exclusive time (everything
                    # but the attempts' execute bucket, which the attempt
                    # phases already cover) to the "jobs" cost centre — as a
                    # delta, so repeated run() calls never double-charge
                    total = sum(
                        s for b, s in self._acct.seconds.items() if b != "execute"
                    )
                    if self.workers == 0:
                        # serial attempts run on this clock; what their engine
                        # phases leave of the execute bucket (problem set-up,
                        # result marshalling, failed attempts) is jobs time
                        # too — a fixed cost per job that would otherwise
                        # eat into coverage as the kernels get faster
                        total += max(
                            0.0,
                            self._acct.seconds.get("execute", 0.0)
                            - self._attempt_phase_folded,
                        )
                    self.telemetry.add_phase("jobs", total - self._jobs_phase_added)
                    self._jobs_phase_added = total
            self._write_status(final=True)
            if self._tmp is not None:
                self._tmp.cleanup()
                self._tmp = None
        wall = time.perf_counter() - t0
        return BatchReport(
            results=[j.result for j in self._jobs],
            wall_seconds=wall,
            events=self.events,
            workers=self.workers,
            kills=self.kills_done,
            workers_spawned=self.workers_spawned,
            drained=self._draining,
            resumed=self.resumed,
            hung_workers=self.hung_workers,
            stream_errors=list(self._stream_errors),
            supervisor_seconds=(
                dict(self._acct.seconds) if self._acct is not None else {}
            ),
            batch_id=self.batch_id,
            metrics=self.metrics.snapshot() if self.metrics is not None else None,
        )

    def _publish_shared(self) -> None:
        """Publish the batch's read-only model arrays into shared memory
        once; every daemon attaches them zero-copy at prefork.  The segment
        names are journaled so a resumed supervisor can unlink what a
        SIGKILLed predecessor (whose ``finally`` never ran) leaked."""
        from .shm import SharedArrayRegistry

        if self._registry is not None:
            return
        self._registry = SharedArrayRegistry()
        published = 0
        for key, array in worker_mod.model_arrays().items():
            self._registry.publish(key, array)
            published += int(array.nbytes)
        if self.metrics is not None and published:
            self._m_shm_bytes.inc(published)
        self._handles = self._registry.handles()
        self._journal_append("shm", names=list(self._registry.segment_names()))

    # -- serial (workers=0) ------------------------------------------------------------
    def _run_serial(self) -> None:
        """Same state machine, one job at a time in this process: no kills,
        deadlines enforced post-hoc (an in-process attempt cannot be
        preempted), and the breaker rides the engine ladder directly.  The
        in-process :class:`WarmState` gives the serial executor the same
        cross-job cache warmth a daemon enjoys."""
        warm = WarmState()
        self._pump_streams()
        while self._ready and not self._draining:
            _, _, job = heapq.heappop(self._ready)
            while not job.terminal and not self._draining:
                now = time.perf_counter()
                if job.first_started is None:
                    job.first_started = now
                if job.over_deadline(now):
                    self._timeout(job, now)
                    break
                # no breaker reroute here: the in-process engine ladder
                # consults the breaker itself (Operator._build_sweeps)
                spec = self._effective_spec(job, now, reroute=False)
                job.dispatched_engine = spec.engine
                resume = job.attempt_no > 0 or job.force_resume
                job.force_resume = False
                entry = (
                    self.chaos_plan.entry(job.index, spec.nt)
                    if self.chaos_plan
                    else None
                )
                job.attempts.append(
                    AttemptRecord(
                        attempt=job.attempt_no,
                        started=now,
                        degraded=getattr(job, "_degraded", False),
                    )
                )
                step = _resume_step(job.dir) if resume else None
                if step is not None:
                    self._emit("resumed", job, step=step, attempt=job.attempt_no)
                self._journal_append(
                    "attempt", job=job.spec.job_id, attempt=job.attempt_no,
                    engine=spec.engine, resume=resume, step=step,
                )
                self._emit("started", job, attempt=job.attempt_no, engine=spec.engine)
                try:
                    with self._phase("execute"):
                        rec, meta = worker_mod.execute_attempt(
                            spec,
                            job.dir,
                            attempt=job.attempt_no,
                            resume=resume,
                            chaos=entry,
                            breaker=self.breaker,
                            warm=warm,
                            trace=self.trace,
                            ctx={"batch": self.batch_id} if self.trace else None,
                        )
                except Exception as exc:
                    now = time.perf_counter()
                    if job.over_deadline(now):
                        self._timeout(job, now)
                        break
                    self._fail_attempt(job, exc, _classify_failure(exc), now)
                    if not job.terminal and self._delayed:
                        ready_time, _, delayed_job = heapq.heappop(self._delayed)
                        assert delayed_job is job
                        with self._phase("idle"):
                            time.sleep(max(0.0, ready_time - time.perf_counter()))
                    continue
                now = time.perf_counter()
                if job.over_deadline(now):
                    self._timeout(job, now)
                else:
                    self._complete(job, rec, meta, now)
                self._maybe_status()
            if not self._draining:
                self._pump_streams()

    # -- crash-safe resume -------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        batch_dir,
        workers: Optional[int] = None,
        telemetry=None,
        poll_interval: float = 0.02,
        start_method: Optional[str] = None,
        journal_fsync: bool = True,
        metrics=None,
        trace: bool = False,
        status_interval: float = 0.5,
    ) -> "JobPool":
        """Reconstruct an interrupted batch from its journal; :meth:`run`
        the returned pool to drive it to completion.

        Replays the write-ahead journal of *batch_dir* (tolerating a torn
        tail — the longest verified prefix wins, and the file is truncated
        back to it before new records append), then:

        * unlinks the ``/dev/shm`` segments the dead supervisor journaled
          but — SIGKILLed before its ``finally`` — never unlinked;
        * preloads every job whose ``result.npz`` is durable *and* verified
          (digest sidecar plus the journal's recorded digest) as completed,
          bit-identical to what the dead batch produced;
        * reconstructs durable terminal failures (``timeout``/
          ``exhausted``/``quarantined``) without re-running them;
        * re-admits everything else with its journaled attempt budget and
          consecutive-crash count; a job whose attempt was in flight at the
          crash resumes from its newest verified checkpoint snapshot.

        *workers* (and the other parameters) default to the journaled batch
        header.  Chaos injection is deliberately **not** re-armed: the crash
        the chaos config manufactured already happened — a resume runs
        clean, which is also what keeps ``kill_supervisor_after`` from
        re-killing every successor.
        """
        batch_dir = Path(batch_dir)
        replay = load_journal(batch_dir / JOURNAL_NAME)
        header = replay.header  # raises JournalCorruptError when unusable
        # reclaim what the dead supervisor leaked into /dev/shm
        from .shm import unlink_stale

        reclaimed = []
        for rec in replay.for_kind("shm"):
            for name in rec.get("names", ()):
                if unlink_stale(name):
                    reclaimed.append(name)
        retry_cfg = header.get("retry") or {}
        pool = cls(
            workers=header.get("workers", 4) if workers is None else workers,
            capacity=header.get("capacity", DEFAULT_CAPACITY),
            retry=RetryPolicy(**retry_cfg) if retry_cfg else None,
            batch_seed=header.get("batch_seed", 0),
            workdir=batch_dir,
            telemetry=telemetry,
            poll_interval=poll_interval,
            start_method=start_method,
            tenant_quota=header.get("tenant_quota"),
            journal=False,  # reattached below, past the verified prefix
            heartbeat_interval=header.get("heartbeat_interval", 0.25),
            heartbeat_timeout=header.get("heartbeat_timeout", 60.0),
            poison_threshold=header.get("poison_threshold", 3),
            metrics=metrics,
            trace=trace,
            status_interval=status_interval,
        )
        pool._journal = BatchJournal(
            batch_dir / JOURNAL_NAME,
            fsync=journal_fsync,
            seq_start=len(replay.records),
            truncate_to=replay.good_bytes,
            metrics=pool.metrics,
        )
        pool.resumed = True
        outcomes = replay.by_job("outcome")
        terminals = replay.by_job("terminal")
        attempts = replay.by_job("attempt")
        for rec in replay.for_kind("admit"):
            spec = JobSpec.from_dict(rec["spec"])
            if spec.job_id in pool._by_id:
                continue  # duplicate admit record; first wins
            index = int(rec.get("index", len(pool._jobs)))
            job_dir = batch_dir / spec.job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            job = _Job(
                index=index,
                spec=spec,
                job_dir=job_dir,
                jitter_rng=pool.retry.rng_for(pool.batch_seed, index),
            )
            pool._jobs.append(job)
            pool._by_id[spec.job_id] = job
            jouts = outcomes.get(spec.job_id, [])
            term = terminals.get(spec.job_id, [])
            status = term[-1].get("status") if term else None
            if status in ("timeout", "exhausted", "quarantined"):
                # a durable terminal failure: reconstruct, never re-run
                summary = term[-1].get("error", "")
                job.result = JobResult(
                    spec=spec,
                    status=status,
                    error=RuntimeError(summary) if summary else None,
                )
                continue
            completed = [o for o in jouts if o.get("outcome") == "completed"]
            if completed:
                loaded = _durable_result(job_dir, completed[-1].get("digest"))
                if loaded is not None:
                    rec_arr, meta = loaded
                    job.result = JobResult(
                        spec=spec,
                        status="completed",
                        receivers=rec_arr,
                        engine=meta.get("engine", ""),
                        fallbacks=meta.get("fallbacks", []),
                    )
                    pool._emit("preloaded", job, digest=True)
                    continue
            # re-admit: journaled failures restore the attempt budget, and
            # the jitter stream is advanced past the draws the dead
            # supervisor consumed, keeping later backoffs deterministic
            failures = [o for o in jouts if o.get("outcome") != "completed"]
            job.attempt_no = len(failures)
            for _ in range(job.attempt_no):
                job.jitter_rng.random()
            for out in reversed(jouts):
                if out.get("outcome") == "crash":
                    job.consecutive_crashes += 1
                else:
                    break
            if len(attempts.get(spec.job_id, [])) > len(jouts):
                # an attempt was in flight when the supervisor died: its
                # checkpoints are on disk, so the retry must resume
                job.force_resume = True
            pool._tenant_active[spec.tenant] = pool._tenant_load(spec.tenant) + 1
            pool._push_ready(job)
            pool._emit(
                "readmitted", job, attempt=job.attempt_no,
                resume=job.force_resume or job.attempt_no > 0,
            )
        pool._journal_append(
            "resume",
            jobs=len(pool._jobs),
            pending=sum(1 for j in pool._jobs if not j.terminal),
            reclaimed_shm=reclaimed,
            corruption=str(replay.corruption) if replay.corruption else None,
        )
        return pool


def run_batch(
    specs: Sequence[JobSpec], workers: int = 4, **kwargs
) -> BatchReport:
    """Submit *specs* to a fresh :class:`JobPool` and drive it to completion."""
    pool = JobPool(workers=workers, **kwargs)
    for spec in specs:
        pool.submit(spec)
    return pool.run()
