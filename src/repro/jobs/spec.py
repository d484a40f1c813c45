"""Job model of the batch-execution service.

A :class:`JobSpec` is the *complete, picklable* description of one
propagation experiment — example physics, schedule, engine, timestep count
and a seed that deterministically perturbs the source position (a batch of
specs with distinct seeds is a miniature seismic survey: many independent
shots over one model).  Everything a worker process needs to run the job is
derivable from the spec alone, which is what makes retry-on-a-fresh-process
and the fault-free serial re-run of the chaos gate possible.

:class:`AttemptRecord`, :class:`JobResult` and :class:`BatchReport` are the
result-side mirror: per-attempt history (what ran, what failed, where it
resumed from), the terminal per-job outcome, and the whole-batch summary the
CLI and benchmark serialise.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

import numpy as np

from ..core.scheduler import SCHEDULES
from ..execution.evalbox import ENGINES as JOB_ENGINES
from ..propagators.examples import EXAMPLES

__all__ = [
    "EXAMPLES",
    "SCHEDULES",
    "JOB_ENGINES",
    "STATUSES",
    "PHASE_KEYS",
    "JobSpec",
    "AttemptRecord",
    "JobResult",
    "BatchReport",
]

#: per-attempt cost centres, the fields of ``AttemptRecord.phases`` — a
#: regrouping of the attempt's own telemetry phases
#: (:data:`repro.telemetry.PHASES`): ``spawn``
#: (dispatch-to-receipt latency — fork + queueing on a cold worker, pipe
#: latency on a warm one), ``compile`` (``precompute`` + building the
#: problem), ``compute`` (``stencil`` + ``injection`` + ``receivers`` +
#: ``other``), ``io`` (``checkpoint+guard`` + what follows the run: result
#: marshalling)
PHASE_KEYS = ("spawn", "compile", "compute", "io")

#: terminal job states: ``completed`` (receivers produced), ``timeout``
#: (deadline exceeded, killed), ``exhausted`` (retry budget spent),
#: ``quarantined`` (poison job: repeatedly crashed fresh daemons),
#: ``interrupted`` (batch drained before the job finished — resumable)
STATUSES = ("completed", "timeout", "exhausted", "quarantined", "interrupted")


@dataclass(frozen=True)
class JobSpec:
    """One propagation job: example + schedule + engine + nt + seed.

    Parameters
    ----------
    job_id:
        Unique name within the batch (used for the job's working directory).
    example:
        Which paper propagator to run (``acoustic``/``tti``/``elastic``) on
        the small verification grid.
    nt:
        Number of timesteps.
    schedule:
        Traversal: ``naive``, ``spatial`` or ``wavefront``.
    engine:
        Sweep engine requested, by default the head of the ladder
        (``ENGINES[0]``, ``"c"``); the ladder may degrade it at bind time,
        and each fall is in the result's ``fallbacks``.
    seed:
        Deterministically perturbs the source position inside the model, so
        distinct seeds are distinct shots of a survey.
    deadline:
        Optional total wall-clock budget in seconds, measured from the
        job's first dispatch across all attempts; exceeded ⇒ the running
        worker is killed and the job reports ``timeout``.
    max_attempts:
        Retry budget (total attempts, first one included).
    checkpoint_every:
        Snapshot cadence in timesteps (wavefront runs round up to the next
        time-tile boundary).
    """

    job_id: str
    example: str = "acoustic"
    nt: int = 16
    schedule: str = "wavefront"
    engine: str = JOB_ENGINES[0]
    seed: int = 0
    deadline: Optional[float] = None
    max_attempts: int = 3
    checkpoint_every: int = 4

    def __post_init__(self):
        if self.example not in EXAMPLES:
            raise ValueError(
                f"unknown example {self.example!r}; expected one of {EXAMPLES}"
            )
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}"
            )
        if self.engine not in JOB_ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {JOB_ENGINES}"
            )
        if self.nt < 1:
            raise ValueError("nt must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def to_dict(self) -> dict:
        """JSON-serialisable form, sufficient to reconstruct the spec —
        what the batch journal's ``admit`` records persist."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Inverse of :meth:`to_dict` (unknown keys — a newer journal's, or
        fields an older one still carries — are ignored rather than fatal)."""
        from dataclasses import fields

        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class AttemptRecord:
    """What one attempt of one job did."""

    attempt: int
    started: float
    ended: float = 0.0
    #: "completed" | "fault" (worker reported a structured failure) |
    #: "sdc" (silent data corruption: the worker's ABFT guard raised
    #: SilentCorruptionError — retried at flat backoff, never counted
    #: toward poison quarantine) |
    #: "crash" (worker died without reporting) | "timeout" |
    #: "hang" (daemon went heartbeat-silent and was killed)
    outcome: str = ""
    #: one-line summary of the failure (type + message), "" on success
    error: str = ""
    #: engine the attempt actually executed with ("" when it never reported)
    engine: str = ""
    #: timestep the attempt resumed from (None = started from scratch)
    resumed_from: Optional[int] = None
    #: True when the dispatcher downgraded the schedule under deadline
    #: pressure, or the journal's engine differs from the spec's (journals of
    #: a supervisor that could reroute dispatch)
    degraded: bool = False
    #: warm-worker id the attempt ran on (None = the in-process fleet)
    worker: Optional[int] = None
    #: True when the attempt ran on a worker whose caches were already warm
    #: (it had completed at least one prior job)
    warm: bool = False
    #: per-attempt cost breakdown over :data:`PHASE_KEYS` (empty until the
    #: worker reports)
    phases: dict = dc_field(default_factory=dict)
    #: kernel/step cache activity of the attempt, e.g.
    #: ``{"kernel_hits": 4, "kernel_misses": 0, "step_hits": 16, ...}``
    caches: dict = dc_field(default_factory=dict)
    #: serialized span-tree payload of the attempt (tracing on), already
    #: stamped with its clock offset — consumed by
    #: :func:`repro.telemetry.merge.merge_batch_trace`; deliberately kept
    #: out of :meth:`to_dict` (it is trace-file material, not report JSON)
    trace: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return max(0.0, self.ended - self.started)

    def to_dict(self) -> dict:
        """Every field but :attr:`trace`, the dicts copied."""
        return {k: dict(v) if isinstance(v, dict) else v
                for k, v in vars(self).items() if k != "trace"}


@dataclass
class JobResult:
    """Terminal outcome of one job."""

    spec: JobSpec
    status: str
    #: receiver traces (``None`` unless status == "completed")
    receivers: Optional[np.ndarray] = None
    #: the terminal error (JobTimeoutError / RetryExhaustedError), if any
    error: Optional[BaseException] = None
    attempts: List[AttemptRecord] = dc_field(default_factory=list)
    #: engine the successful attempt ran with
    engine: str = ""
    #: wall-clock seconds from first dispatch to terminal state
    elapsed: float = 0.0
    #: the ladder's falls in the successful attempt: ``{failed, degraded_to,
    #: reason}`` per ``engine.fallback`` event (c→fused, fused→interp); the
    #: reason is why the rung failed to build (``no-compiler``, ...)
    fallbacks: List[dict] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "completed"

    def to_dict(self) -> dict:
        return {
            "job_id": self.spec.job_id,
            "example": self.spec.example,
            "schedule": self.spec.schedule,
            "nt": self.spec.nt,
            "seed": self.spec.seed,
            "status": self.status,
            "engine": self.engine,
            "elapsed": self.elapsed,
            "error": f"{type(self.error).__name__}: {self.error}" if self.error else "",
            "attempts": [a.to_dict() for a in self.attempts],
            "fallbacks": list(self.fallbacks),
        }


@dataclass
class BatchReport:
    """Whole-batch summary: per-job results in submission order + totals."""

    results: List[JobResult]
    wall_seconds: float
    #: chronological pool events: {"ts", "kind", "job", ...}
    events: List[dict] = dc_field(default_factory=list)
    workers: int = 0
    kills: int = 0
    #: worker processes spawned over the batch (initial prefork + crash
    #: replacements); 0 with ``workers=0``
    workers_spawned: int = 0
    #: True when the batch was gracefully drained (SIGTERM/SIGINT) before
    #: every job finished — the journal + checkpoints make it resumable
    drained: bool = False
    #: True when this report came from a journal-resumed supervisor
    resumed: bool = False
    #: daemons killed for heartbeat silence (livelocked/wedged, replaced)
    hung_workers: int = 0
    #: rendered StreamAdmissionErrors — spec streams that raised mid-pull
    #: (their admitted jobs were drained; un-admitted jobs never existed)
    stream_errors: List[str] = dc_field(default_factory=list)
    #: exclusive supervisor wall-time buckets (admission/journal/dispatch/
    #: execute/idle/drain under a ``supervise`` root) from the pool's
    #: :class:`~repro.jobs.observe.PhaseAccountant`
    supervisor_seconds: Dict[str, float] = dc_field(default_factory=dict)
    #: stable batch identity (the workdir name; survives resume)
    batch_id: str = ""

    @property
    def completed(self) -> int:
        return sum(r.ok for r in self.results)

    @property
    def quarantined(self) -> int:
        return sum(r.status == "quarantined" for r in self.results)

    @property
    def interrupted(self) -> int:
        return sum(r.status == "interrupted" for r in self.results)

    @property
    def retries(self) -> int:
        return sum(max(0, len(r.attempts) - 1) for r in self.results)

    @property
    def completion_rate(self) -> float:
        return self.completed / len(self.results) if self.results else 0.0

    @property
    def throughput(self) -> float:
        """Completed jobs per second of batch wall-time."""
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def ok(self) -> bool:
        """Every submitted job reached ``completed`` and no spec stream
        broke mid-pull (the zero-lost-jobs gate)."""
        return (
            bool(self.results)
            and all(r.ok for r in self.results)
            and not self.stream_errors
        )

    def result_for(self, job_id: str) -> JobResult:
        for r in self.results:
            if r.spec.job_id == job_id:
                return r
        raise KeyError(job_id)

    # -- warm/cold accounting -----------------------------------------------------
    def _completed_attempts(self) -> List[AttemptRecord]:
        return [
            a
            for r in self.results
            for a in r.attempts
            if a.outcome == "completed"
        ]

    @property
    def warm_attempts(self) -> int:
        return sum(a.warm for a in self._completed_attempts())

    @property
    def cold_attempts(self) -> int:
        return sum(not a.warm for a in self._completed_attempts())

    def phase_totals(self) -> Dict[str, float]:
        """Summed per-attempt phase seconds over completed attempts, keyed
        by :data:`PHASE_KEYS` (zeros where workers never reported), plus
        the supervisor-side buckets as ``supervisor.<bucket>`` keys.

        The supervisor's ``execute`` bucket (the in-process fleet's attempt
        time) is excluded — it is the same wall-time the attempt phases
        already account for.  With ``workers=0`` the sum reconciles the batch
        wall to ≥95%; with parallel daemons it may legitimately exceed the
        wall (attempt seconds accrue concurrently)."""
        totals = {k: 0.0 for k in PHASE_KEYS}
        for a in self._completed_attempts():
            for k in PHASE_KEYS:
                totals[k] += float(a.phases.get(k, 0.0))
        for bucket, secs in self.supervisor_seconds.items():
            if bucket != "execute":
                totals[f"supervisor.{bucket}"] = float(secs)
        return totals

    def warm_over_cold(self) -> Optional[float]:
        """Mean cold-attempt seconds over mean warm-attempt seconds for
        completed attempts — >1 means cache warmth measurably pays; None
        when either population is empty."""
        warm = [a.seconds for a in self._completed_attempts() if a.warm]
        cold = [a.seconds for a in self._completed_attempts() if not a.warm]
        if not warm or not cold:
            return None
        mean_warm = sum(warm) / len(warm)
        if mean_warm <= 0:
            return None
        return (sum(cold) / len(cold)) / mean_warm

    def to_dict(self) -> dict:
        return {
            "jobs": [r.to_dict() for r in self.results],
            "workers": self.workers,
            "workers_spawned": self.workers_spawned,
            "wall_seconds": self.wall_seconds,
            "completed": self.completed,
            "retries": self.retries,
            "kills": self.kills,
            "drained": self.drained,
            "resumed": self.resumed,
            "hung_workers": self.hung_workers,
            "quarantined": self.quarantined,
            "interrupted": self.interrupted,
            "stream_errors": list(self.stream_errors),
            "supervisor_seconds": dict(self.supervisor_seconds),
            "batch_id": self.batch_id,
            "completion_rate": self.completion_rate,
            "throughput_jobs_per_s": self.throughput,
            "warm_attempts": self.warm_attempts,
            "cold_attempts": self.cold_attempts,
            "warm_over_cold": self.warm_over_cold(),
            "phase_totals": self.phase_totals(),
            "ok": self.ok,
        }
