"""JobSpec validation/picklability and the pool's bounded admission queue."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import QueueSaturatedError
from repro.jobs import JobPool, JobSpec


def test_spec_defaults_are_valid():
    spec = JobSpec("j0")
    assert spec.example == "acoustic"
    assert spec.schedule == "wavefront"
    assert spec.engine == "c"  # ENGINES[0], the head of the ladder
    assert spec.max_attempts == 3


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(example="viscoacoustic"), "example"),
        (dict(schedule="diamond"), "schedule"),
        (dict(engine="jit"), "engine"),
        (dict(nt=0), "nt"),
        (dict(max_attempts=0), "max_attempts"),
        (dict(checkpoint_every=0), "checkpoint_every"),
        (dict(deadline=0.0), "deadline"),
        (dict(deadline=-1.0), "deadline"),
        # the removed per-equation rung: an old journal or spec naming it
        # fails validation with the error naming the engine
        (dict(engine="kernel"), "unknown engine 'kernel'"),
    ],
)
def test_spec_rejects_invalid_fields(kwargs, match):
    with pytest.raises(ValueError, match=match):
        JobSpec("bad", **kwargs)


def test_spec_pickles_unchanged():
    # a spec must cross into worker processes losslessly
    spec = JobSpec(
        "j1", example="tti", nt=32, schedule="spatial", engine="interp",
        seed=7, deadline=1.5, max_attempts=4, checkpoint_every=8,
    )
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_submit_rejects_duplicate_job_id(tmp_path):
    pool = JobPool(workers=0, workdir=tmp_path)
    pool.submit(JobSpec("twin"))
    with pytest.raises(ValueError, match="duplicate"):
        pool.submit(JobSpec("twin"))


def test_admission_queue_saturates_with_backpressure(tmp_path):
    pool = JobPool(workers=0, capacity=2, workdir=tmp_path)
    pool.submit(JobSpec("j0", nt=2))
    pool.submit(JobSpec("j1", nt=2))
    with pytest.raises(QueueSaturatedError) as excinfo:
        pool.submit(JobSpec("j2", nt=2))
    err = excinfo.value
    assert err.capacity == 2
    assert err.pending == 2
    clone = pickle.loads(pickle.dumps(err))  # backpressure errors travel too
    assert (clone.capacity, clone.pending) == (2, 2)


def test_finished_jobs_free_admission_capacity(tmp_path):
    pool = JobPool(workers=0, capacity=2, workdir=tmp_path)
    pool.submit(JobSpec("j0", nt=2, schedule="naive", engine="interp"))
    pool.submit(JobSpec("j1", nt=2, schedule="naive", engine="interp"))
    report = pool.run()
    assert report.ok
    pool.submit(JobSpec("j2", nt=2, schedule="naive", engine="interp"))  # no raise


def test_pool_rejects_bad_configuration(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        JobPool(workers=-1, workdir=tmp_path)
    with pytest.raises(ValueError, match="capacity"):
        JobPool(capacity=0, workdir=tmp_path)


def test_queued_event_emitted_on_submit(tmp_path):
    pool = JobPool(workers=0, workdir=tmp_path)
    pool.submit(JobSpec("j0", nt=2))
    assert [e["kind"] for e in pool.events] == ["queued"]
    assert pool.events[0]["job"] == "j0"
