"""Structured error taxonomy for the execution stack.

A multi-thousand-timestep run must not die with a bare ``ValueError`` deep
inside a tile loop: every failure the runtime can attribute carries its
execution context — the logical timestep ``t``, the space(-time) ``tile``
(a box of ``(lo, hi)`` pairs per dimension) and the ``field`` involved — so
operators, logs and tests can reason about *where* a run went wrong.

The hierarchy deliberately multiple-inherits from the builtin exception the
pre-resilience code raised (``ValueError`` for validation failures,
``RuntimeError`` for codegen failures), so existing ``except ValueError``
call sites and tests keep working unchanged.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "ReproError",
    "NumericalBlowup",
    "CoordinateOutOfDomain",
    "StabilityViolation",
    "EngineCompilationError",
    "BoundsProofError",
    "ScheduleLegalityError",
    "InvalidTimeRange",
    "PlanValidationError",
    "InjectedFault",
    "SilentCorruptionError",
    "CheckpointCorruptError",
    "StorageExhaustedError",
    "JobError",
    "QueueSaturatedError",
    "JobTimeoutError",
    "WorkerCrashError",
    "RetryExhaustedError",
    "JournalCorruptError",
    "PoisonJobError",
    "StreamAdmissionError",
    "StabilityWarning",
    "EngineFallbackWarning",
]

Box = Tuple[Tuple[int, int], ...]


def _rebuild_error(cls, message, t, tile, field, context):
    """Unpickling trampoline: re-invokes the keyword-only constructor."""
    return cls(message, t=t, tile=tile, field=field, **context)


class ReproError(Exception):
    """Base class of all structured runtime errors.

    Parameters beyond *message* are keyword-only context: ``t`` (logical
    timestep), ``tile`` (the box being executed) and ``field`` (the grid
    function involved).  Any further keyword argument is stored as an
    attribute and kept in ``context`` for structured logging.

    Instances pickle with all structured context intact (``__reduce__``
    replays the original constructor arguments, not the rendered message) —
    the batch-execution workers rely on this to surface failures across the
    process boundary.
    """

    def __init__(
        self,
        message: str,
        *,
        t: Optional[int] = None,
        tile: Optional[Box] = None,
        field: Optional[str] = None,
        **context,
    ):
        self._message = message
        self.t = t
        self.tile = tuple(tuple(b) for b in tile) if tile is not None else None
        self.field = field
        self.context = dict(context)
        for key, value in context.items():
            setattr(self, key, value)
        super().__init__(self._render(message))

    def __reduce__(self):
        return (
            _rebuild_error,
            (type(self), self._message, self.t, self.tile, self.field, self.context),
        )

    def _render(self, message: str) -> str:
        parts = []
        if self.t is not None:
            parts.append(f"t={self.t}")
        if self.tile is not None:
            parts.append(f"tile={self.tile}")
        if self.field is not None:
            parts.append(f"field={self.field!r}")
        return f"{message} [{', '.join(parts)}]" if parts else message


class NumericalBlowup(ReproError):
    """A wavefield buffer holds NaN/Inf at a containment-unit boundary.

    Raised by :class:`repro.runtime.abft.ABFTGuard` with the unit
    ``[t, t1)`` whose exit state is non-finite (one timestep under naive and
    spatial schedules, a time tile under wavefront blocking); ``t1``,
    ``point`` (the first non-finite grid index, interior coordinates) and
    ``count`` (non-finite values in the field's live slots) arrive as extra
    context.  Never contained in-run: re-executing would reproduce it.
    """


class CoordinateOutOfDomain(ReproError, ValueError):
    """Sparse point(s) fall outside the grid's physical domain.

    Carries ``indices`` (offending point indices into the sparse function)
    and ``coordinates`` (their physical positions) so the error names exactly
    which sources/receivers are misplaced.
    """


class StabilityViolation(ReproError, ValueError):
    """The requested ``dt`` exceeds the CFL-critical timestep.

    Carries ``dt``, ``critical`` and the scheme ``kind``.
    """


class EngineCompilationError(ReproError, RuntimeError):
    """An execution engine failed to compile its kernels.

    Carries ``engine`` (the rung that failed) and, from the C rung, ``reason``
    (``no-compiler`` / ``build-failed`` / ``ineligible:<op>`` /
    ``cache-unwritable`` / ``load-failed``).  The engine-selection ladder
    catches this to degrade c -> fused -> interp; in strict mode it
    propagates to the caller.
    """


class BoundsProofError(EngineCompilationError):
    """A stencil access reaches past its field's halo.

    Raised at the top of ``Operator.apply`` — before any engine binds, on
    every engine and schedule, never degrading down the ladder — when
    :func:`repro.verify.absint.prove_bounds` finds an access that escapes its
    field's padded storage.  Carries ``counterexample`` (a concrete
    :class:`repro.verify.certificate.BoundsCounterexample` naming the exact
    ``(t, tile, index)`` instance), ``certificate`` (the full
    :class:`repro.verify.certificate.BoundsCertificate` with every violated
    margin) and ``diagnostics``.
    """


class ScheduleLegalityError(ReproError, ValueError):
    """A schedule fails the dependence-legality proof.

    Carries ``counterexample`` (a :class:`repro.verify.certificate.Counterexample`
    naming two conflicting instances ``(t, tile, point)``) and, when a partial
    proof exists, ``certificate``.  Subclasses ``ValueError`` because the
    pre-prover code raised bare ``ValueError`` for illegal schedule/sparse-mode
    combinations and call sites match on that.
    """


class InvalidTimeRange(ReproError, ValueError):
    """``time_m``/``time_M`` do not describe a valid iteration range."""


class PlanValidationError(ReproError, ValueError):
    """An execution plan or its precomputed sparse structures are inconsistent
    (``nnz``/``Sp_SID`` that no longer describe the affected points, ``src_dcmp``
    shape mismatches, bad block/tile ranks, ...)."""


class InjectedFault(ReproError):
    """Raised by the fault-injection harness at the exit of the containment
    unit holding its programmed timestep ``t`` (before that unit's guard
    verdict and checkpoint save)."""


class SilentCorruptionError(NumericalBlowup):
    """An ABFT invariant caught finite-valued silent data corruption.

    Raised by :class:`repro.runtime.abft.ABFTGuard` when the amplitude at a
    containment-unit boundary (a time tile under wavefront blocking, a
    timestep otherwise) exceeds the certified growth bound — values that are
    perfectly finite, so no NaN/Inf check sees them.  Carries
    ``bound`` (the certified admissible amplitude), ``observed`` (the
    amplitude actually measured) and ``detector`` (``"growth"``, the
    amplitude invariant).  Subclasses :class:`NumericalBlowup` so existing
    blow-up handling (retry classification, forensics) applies; the executors
    additionally catch it for tile-granular re-execution from the entry
    snapshot before letting it escape.
    """


class CheckpointCorruptError(ReproError, RuntimeError):
    """A persisted checkpoint is truncated, unreadable or inconsistent.

    Raised by :class:`repro.runtime.checkpoint.FileCheckpointStore` when the
    newest snapshot on disk fails validation — instead of a raw ``zipfile``
    or numpy exception escaping from deep inside ``np.load``.  Carries
    ``path`` (the offending file) and ``reason``.  The batch-execution
    workers catch this, discard the store and restart the job from scratch
    rather than wedging a retry loop on a poisoned snapshot.
    """


class StorageExhaustedError(ReproError, RuntimeError):
    """Persistent storage ran out of space mid-run (``ENOSPC``).

    Raised instead of a raw ``OSError`` by the write paths that must not
    crash a batch: :meth:`repro.jobs.journal.BatchJournal.append` and
    :meth:`repro.runtime.checkpoint.FileCheckpointStore.save`.  Carries
    ``path`` (the file being written) and ``op`` (``"journal_append"`` or
    ``"checkpoint_save"``).  The runtime monitor reacts by suspending the
    checkpoint cadence (execution continues without snapshots); the pool
    journals a best-effort ``storage_degraded`` record, stops journaling and
    drains the batch cleanly instead of dying in the supervisor loop.
    """


class JobError(ReproError):
    """Base class of batch-execution (``repro.jobs``) failures.

    Carries ``job_id`` when the failure is attributable to one job.
    """


class QueueSaturatedError(JobError):
    """The bounded admission queue refused a new job (backpressure).

    Carries ``capacity`` and ``pending`` so callers can implement their own
    shedding or wait-and-retry policy instead of growing memory unboundedly.
    """


class JobTimeoutError(JobError):
    """A job exceeded its deadline and was terminated.

    Carries ``job_id``, ``deadline`` (seconds) and ``elapsed`` (seconds the
    job had consumed across all attempts when it was killed).
    """


class WorkerCrashError(JobError):
    """A worker process died without reporting a result (SIGKILL, hard crash).

    Carries ``job_id``, ``exitcode`` (negative = killed by that signal) and
    ``attempt``.  Synthesised by the pool supervisor — the dead worker, by
    definition, could not report anything itself.
    """


class RetryExhaustedError(JobError):
    """A job failed on every attempt of its retry budget.

    Carries ``job_id`` and ``attempts`` — the full attempt history as a list
    of dicts (start/end times, outcome, error summary, engine, resume step)
    so the caller can reconstruct exactly what the pool tried.
    """


class JournalCorruptError(JobError, RuntimeError):
    """A write-ahead batch journal record failed its integrity check.

    Raised by :mod:`repro.jobs.journal` when a record's SHA-256 trailer does
    not match its payload, the record sequence is discontinuous, or the file
    cannot be parsed at all.  Carries ``path``, ``line`` (1-based line number
    of the offending record) and ``reason``.  Resume recovers from the
    longest verified prefix instead of trusting a torn tail — this error is
    only *fatal* when no usable prefix exists (e.g. the batch header itself
    is corrupt).
    """


class PoisonJobError(JobError):
    """A job was quarantined: it repeatedly crashed the daemons serving it.

    A spec that kills every fresh worker it lands on (a poison job) would
    otherwise burn the pool's replacement budget — each crash costs a
    prefork — without ever completing.  After ``poison_threshold``
    *consecutive* crash outcomes the supervisor stops retrying and
    quarantines the job with forensics attached: ``job_id``, ``crashes``
    (the consecutive-crash count), ``attempts`` (the full attempt history as
    dicts) and ``job_dir`` (where the per-attempt forensics files live).
    """


class StreamAdmissionError(JobError):
    """A user-supplied spec stream raised while being pulled.

    The streaming admission front-end pulls specs lazily from caller-owned
    iterators; an exception from ``next()`` is the caller's bug, not the
    batch's.  Instead of propagating out of ``JobPool.run()`` and abandoning
    in-flight jobs, the pool drops the broken stream, records this error on
    the report, and drains every already-admitted job to a terminal state —
    only the jobs the stream never yielded are lost.  Carries ``admitted``
    (specs successfully admitted from the stream before it broke) and
    ``reason`` (the underlying exception, rendered).
    """


class StabilityWarning(UserWarning):
    """Non-fatal counterpart of :class:`StabilityViolation` (warn-only CFL
    policy, the default in :meth:`repro.propagators.base.Propagator.forward`)."""


class EngineFallbackWarning(RuntimeWarning):
    """An engine failed to compile and execution degraded to the next rung."""
