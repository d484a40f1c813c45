"""Worker side of the batch-execution service.

:func:`build_problem` turns a :class:`~repro.jobs.spec.JobSpec` into a live
propagator — the paper's small verification grid with the spec's seed
perturbing the source position, so a batch is a survey of distinct shots
and every attempt (or fault-free re-run) of the same spec rebuilds the
identical problem.

:func:`execute_attempt` is the one attempt path — a warm daemon calls it per
job message, the in-process fleet (``workers=0``) on ``send``: it wires the
job's private :class:`~repro.runtime.checkpoint.FileCheckpointStore` under the
job directory (resuming from the newest snapshot on retries), arms the chaos
entry's fault injector / broken compiler (of the rung the spec asks for) on
attempt 0, and runs ``Propagator.forward`` under telemetry so the attempt can
report which engine actually executed and what fell back.

The job directory's file protocol lives here too: ``result.npz`` (written
by the supervisor, sealed, trusted on resume only through
:func:`durable_result`) and pickled failure forensics, both published whole
through :func:`repro.runtime.integrity.atomic_write`, and the checkpoint
store's two sealed slots under ``ckpt/`` — so a SIGKILL can never leave a
partial file for anyone to misread.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import signal
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..errors import CheckpointCorruptError
from ..execution.evalbox import ENGINES
from ..propagators.examples import SHAPE, build_example
from ..runtime.abft import ABFTGuard
from ..runtime.checkpoint import CheckpointConfig, FileCheckpointStore
from ..runtime.faults import Fault, FaultInjector, break_engine
from ..runtime.integrity import atomic_write, read_sealed, write_sealed
from .chaos import ChaosEntry
from .spec import JobSpec

__all__ = [
    "build_problem",
    "execute_attempt",
    "run_job_inline",
    "durable_result",
    "newest_checkpoint_step",
    "write_error",
]


def build_problem(spec: JobSpec):
    """(propagator, dt) for *spec* — deterministic in the spec alone: the
    shared example builder, with the seed shifting the shot within the
    middle [0.3, 0.7] of the domain."""
    rng = np.random.default_rng(spec.seed)
    return build_example(
        spec.example, nt=spec.nt, shift=rng.uniform(-0.2, 0.2, size=len(SHAPE))
    )


def _checkpoint_dir(job_dir: Path) -> Path:
    return Path(job_dir) / "ckpt"


def newest_checkpoint_step(job_dir) -> Optional[int]:
    """Step of the snapshot a resumed attempt of the job restores, as the
    job's checkpoint store reads it (None: no usable snapshot)."""
    try:
        snapshot = FileCheckpointStore(_checkpoint_dir(job_dir)).latest()
    except CheckpointCorruptError:
        return None
    return snapshot.step if snapshot is not None else None


class _StopAfterSave(FileCheckpointStore):
    """A chaos kill victim's store: the attempt stops (SIGSTOP) once a
    snapshot is durable, so the supervisor's SIGKILL always lands mid-run."""

    def save(self, snapshot, clock=None):
        mark = super().save(snapshot, clock)
        os.kill(os.getpid(), signal.SIGSTOP)
        return mark


def execute_attempt(
    spec: JobSpec,
    job_dir,
    attempt: int = 0,
    resume: bool = False,
    chaos: Optional[ChaosEntry] = None,
    warm=None,
    trace: bool = False,
    ctx: Optional[dict] = None,
    stop_after_save: bool = False,
) -> Tuple[Optional[np.ndarray], dict]:
    """Run one attempt of *spec* in the current process.

    Returns ``(receivers, meta)``; raises whatever the run raises
    (InjectedFault, NumericalBlowup, ...) — classification is the caller's
    business.  A corrupt checkpoint is *not* fatal: the store is discarded
    and the attempt restarts from scratch, preserving forward progress.

    *warm* is an optional :class:`~repro.jobs.warm.WarmState`: the meta
    gains the warm/cold attribution (worker id, warmth flag, per-phase
    seconds, cache hit/miss tallies) the pool's benchmark and telemetry
    report.

    With *trace* on, the attempt's whole telemetry buffer is serialized
    (:func:`repro.telemetry.merge.telemetry_payload`) into
    ``meta["telemetry"]`` under the identity in *ctx* (job, attempt,
    worker, plus the pipe-handshake clock stamps) so the supervisor can
    stitch it into the batch-wide trace.  *stop_after_save* (a daemon's
    chaos kill victim) stops attempt 0 at its first checkpoint save.
    """
    import time as _time

    t_entry = _time.perf_counter()
    job_dir = Path(job_dir)
    prop, dt = build_problem(spec)
    victim = stop_after_save and attempt == 0
    store = (_StopAfterSave if victim else FileCheckpointStore)(_checkpoint_dir(job_dir))
    checkpoint = CheckpointConfig(every=spec.checkpoint_every, store=store, resume=resume)
    resumed_from = None
    if resume:
        try:
            # the one read of the slots: the run restores this snapshot
            snapshot = checkpoint.resume_snapshot()
            resumed_from = snapshot.step if snapshot is not None else None
        except CheckpointCorruptError:
            store.clear()
            checkpoint.resume = False
    faults = abft = None
    engine_ctx = nullcontext()
    if chaos is not None and attempt == 0:
        if chaos.fault is not None:
            faults = FaultInjector([Fault(**chaos.fault)], seed=chaos.fault_seed)
            if chaos.needs_guard:
                # the guard's verdict sorts the corruption: NaN/Inf is a
                # blow-up, raised before the tile's checkpoint save and
                # retried from the previous one; a finite bit-flip is silent
                # corruption, recovered in-run from the tile's entry snapshot
                abft = ABFTGuard()
        if chaos.break_rung and spec.engine != ENGINES[-1]:
            # the compiler of the rung this attempt asks for (the
            # interpreter compiles nothing and cannot be broken)
            engine_ctx = break_engine(spec.engine)
    from ..telemetry import Telemetry

    telemetry = Telemetry()
    with engine_ctx:
        rec, plan = prop.forward(
            nt=spec.nt,
            dt=dt,
            schedule=spec.schedule,
            engine=spec.engine,
            checkpoint=checkpoint,
            faults=faults,
            abft=abft,
            telemetry=telemetry,
        )
    t_after = _time.perf_counter()
    fallbacks = [
        {k: ev.attrs.get(k) for k in ("failed", "degraded_to", "reason")}
        for ev in telemetry.events
        if ev.name == "engine.fallback"
    ]
    ph = telemetry.phase_seconds
    counters = telemetry.counters
    # attribute the attempt's bookends so the batch wall reconciles:
    # problem construction + store wiring (before the forward's telemetry
    # starts) is compile-class work; anything after the root span closed
    # (result marshalling) is io-class
    setup = max(0.0, (telemetry.epoch or t_after) - t_entry)
    root = telemetry.root_span()
    tail = 0.0
    if root is not None:
        tail = max(0.0, t_after - (root.start + root.dur))
    meta = {
        "engine": plan.sweeps[0].engine,
        "threads": telemetry.meta["threads"],
        "fallbacks": fallbacks,
        "resumed_from": resumed_from,
        "attempt": attempt,
        "checkpoint_saves": int(counters["checkpoint_saves"]),
        "plan": telemetry.meta["plan"],  # the shape that ran, and its origin
        # warm/cold attribution: which daemon ran it, whether its caches
        # were already hot, where the attempt's time went, and what the
        # kernel/step caches did (spawn latency is stamped by the daemon)
        "worker": warm.worker_id if warm else None,
        "warm": bool(warm and warm.jobs_done > 0),
        "phases": {
            "compile": ph.get("precompute", 0.0) + setup,
            "compute": (
                ph.get("stencil", 0.0)
                + ph.get("injection", 0.0)
                + ph.get("receivers", 0.0)
                + ph.get("other", 0.0)
            ),
            "io": ph.get("checkpoint+guard", 0.0) + tail,
        },
        "caches": {
            "kernel_hits": int(counters["kernel_cache_hits"]),
            "kernel_misses": int(counters["kernel_cache_misses"]),
            "step_hits": int(counters["step_cache_hits"]),
            "step_misses": int(counters["step_cache_misses"]),
        },
        # raw per-phase seconds + work counters: the work rides the journal's
        # ``outcome`` record, the GPts/s feed (always cheap — a few floats)
        "phase_seconds": {k: v for k, v in ph.items() if v},
        "work": {
            "points_updated": int(counters["points_updated"]),
            "stencil_seconds": ph.get("stencil", 0.0),
        },
    }
    if abft is not None:
        # detections recovered in-run leave the outcome "completed" but must
        # still surface: the pool journals an "sdc" audit record from these
        meta["abft"] = abft.describe()
    if faults is not None and faults.flips:
        # bit-flip forensics: exactly where the injected corruption landed
        meta["flips"] = [dict(f) for f in faults.flips]
    if trace:
        from ..telemetry.merge import telemetry_payload

        context = dict(ctx or {})
        context.setdefault("job", spec.job_id)
        context.setdefault("attempt", attempt)
        context.setdefault("worker", warm.worker_id if warm else None)
        meta["telemetry"] = telemetry_payload(telemetry, **context)
    if warm is not None:
        warm.jobs_done += 1
    return rec, meta


def run_job_inline(spec: JobSpec):
    """Fault-free, checkpoint-free reference run of *spec* in this process.

    This is the oracle of the chaos gate: whatever the pool survives —
    kills, faults, retries, engine fallbacks — each job's receivers must be
    bit-identical to this run of the same spec.
    """
    prop, dt = build_problem(spec)
    rec, _plan = prop.forward(
        nt=spec.nt, dt=dt, schedule=spec.schedule, engine=spec.engine
    )
    return rec


# -- crash-safe result/error files ----------------------------------------------------

def _result_path(job_dir) -> Path:
    return Path(job_dir) / "result.npz"


def _error_path(job_dir, attempt: int) -> Path:
    return Path(job_dir) / f"error-{attempt:02d}.pkl"


def write_result(job_dir, rec: Optional[np.ndarray], meta: dict) -> str:
    """Make the job's result durable — ``result.npz``, sealed — and return
    the digest the ``outcome`` record journals."""
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    if rec is not None:
        arrays["rec"] = rec
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return write_sealed(_result_path(job_dir), [buf.getbuffer()])


def durable_result(job_dir, digest: Optional[str]):
    """The journal-verified durable ``(receivers, meta)`` of *job_dir*, or None.

    Trusted only when ``result.npz`` exists, its seal holds, *and* the
    sealed digest is the one the journal's completion outcome recorded
    (*digest* None: the seal alone) — a torn write, on-disk damage, an
    unsealed file from older code, or a file from some other job all fail
    and send the job back to execution."""
    payload = read_sealed(_result_path(job_dir))
    if payload is None or (digest is not None and hashlib.sha256(payload).hexdigest() != digest):
        return None
    try:
        with np.load(io.BytesIO(payload)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            rec = data["rec"].copy() if "rec" in data.files else None
    except Exception:
        return None
    return rec, meta


def write_error(job_dir, attempt: int, exc: BaseException) -> None:
    """Pickle *exc* to the attempt's forensics file (atomic, SIGKILL-safe).

    A warm daemon writes this *before* reporting over its pipe: a visible
    file is a complete file, and a daemon that dies between write and report
    still leaves the supervisor the evidence.
    """
    try:
        payload = pickle.dumps(exc)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    atomic_write(_error_path(job_dir, attempt), lambda fh: fh.write(payload))
