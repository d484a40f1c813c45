"""Every structured error must survive a pickle round-trip with its full
context intact — the batch-execution workers report failures to the parent
process as pickles, and an error that loses its ``(t, tile, field, ...)``
context on the way defeats the whole taxonomy."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    CheckpointCorruptError,
    CoordinateOutOfDomain,
    EngineCompilationError,
    InjectedFault,
    InvalidTimeRange,
    JobError,
    JobTimeoutError,
    JournalCorruptError,
    KernelLintError,
    NumericalBlowup,
    PlanValidationError,
    PoisonJobError,
    QueueSaturatedError,
    ReproError,
    RetryExhaustedError,
    ScheduleLegalityError,
    StabilityViolation,
    StreamAdmissionError,
    WorkerCrashError,
)

CASES = [
    (ReproError, dict(t=3, tile=((0, 4), (2, 8)), field="u", extra="x")),
    (NumericalBlowup, dict(t=12, tile=((0, 4), (0, 4)), field="u", point=(1, 2), count=9)),
    (CoordinateOutOfDomain, dict(indices=[0, 3], coordinates=[(1.0, 2.0), (3.0, 4.0)])),
    (StabilityViolation, dict(dt=0.9, critical=0.5, kind="acoustic")),
    (EngineCompilationError, dict(engine="fused")),
    (KernelLintError, dict(engine="fused", diagnostics=[])),
    (ScheduleLegalityError, dict(counterexample=None, schedule="wavefront")),
    (InvalidTimeRange, dict(t=None)),
    (PlanValidationError, dict(field="src")),
    (InjectedFault, dict(t=7, tile=((0, 8),))),
    (CheckpointCorruptError, dict(path="/tmp/ckpt_0000000008.npz", reason="BadZipFile")),
    (JobError, dict(job_id="j1")),
    (QueueSaturatedError, dict(capacity=8, pending=8)),
    (QueueSaturatedError, dict(capacity=4, pending=3)),
    (JobTimeoutError, dict(job_id="j2", deadline=1.5, elapsed=3.2)),
    (WorkerCrashError, dict(job_id="j3", exitcode=-9, attempt=1)),
    (RetryExhaustedError, dict(job_id="j4", attempts=[{"attempt": 0, "outcome": "fault"}])),
    (JournalCorruptError,
     dict(path="/tmp/journal.jsonl", line=7, reason="SHA-256 trailer mismatch")),
    (PoisonJobError,
     dict(job_id="j5", crashes=3, attempts=[{"attempt": 0, "outcome": "crash"}],
          job_dir="/tmp/b/j5")),
    (StreamAdmissionError, dict(admitted=4, reason="ValueError: bad spec")),
]


@pytest.mark.parametrize("cls,context", CASES, ids=[c[0].__name__ for c in CASES])
def test_pickle_roundtrip_preserves_context(cls, context):
    err = cls("something broke", **context)
    clone = pickle.loads(pickle.dumps(err))
    assert type(clone) is cls
    assert str(clone) == str(err)
    assert clone.t == err.t
    assert clone.tile == err.tile
    assert clone.field == err.field
    assert clone.context == err.context
    for key, value in context.items():
        if key in ("t", "tile", "field"):
            continue
        assert getattr(clone, key) == value


def test_builtin_compat_survives_pickle():
    # the ValueError/RuntimeError multiple inheritance must survive too
    err = pickle.loads(pickle.dumps(StabilityViolation("dt too big", dt=1.0, critical=0.5)))
    assert isinstance(err, ValueError)
    err = pickle.loads(pickle.dumps(EngineCompilationError("no compile", engine="fused")))
    assert isinstance(err, RuntimeError)


def test_nested_cause_not_required_for_roundtrip():
    inner = InjectedFault("bang", t=3)
    outer = RetryExhaustedError("spent", job_id="j", attempts=[{"err": str(inner)}])
    clone = pickle.loads(pickle.dumps(outer))
    assert clone.attempts[0]["err"] == str(inner)
