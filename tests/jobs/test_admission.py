"""Streaming admission: lazy iterator pull under the capacity bound, FIFO
dispatch, broken streams and the backpressure contract."""

from __future__ import annotations

import pytest

from repro.errors import QueueSaturatedError
from repro.jobs import JobPool, JobSpec


def _spec(i, **kwargs):
    return JobSpec(f"s-{i:02d}", nt=8, seed=i, checkpoint_every=4, **kwargs)


def test_stream_is_pulled_lazily_within_capacity(tmp_path):
    pulled = []

    def generate():
        for i in range(7):
            pulled.append(i)
            yield _spec(i)

    pool = JobPool(workers=0, capacity=2, workdir=tmp_path)
    pool.submit(generate())
    assert pulled == []  # registration alone draws nothing
    report = pool.run()
    assert report.ok and len(report.results) == 7
    # the generator was never run ahead of admission capacity: at any point
    # at most `capacity` of its specs were admitted-but-unfinished, so the
    # pull count can never exceed completions + capacity
    assert max(pulled) == 6  # ...but the whole stream did eventually run


def test_direct_submit_over_capacity_raises(tmp_path):
    pool = JobPool(workers=0, capacity=2, workdir=tmp_path)
    pool.submit(_spec(0))
    pool.submit(_spec(1))
    with pytest.raises(QueueSaturatedError) as err:
        pool.submit(_spec(2))
    assert err.value.capacity == 2 and err.value.pending == 2


def test_broken_stream_is_isolated_to_unadmitted_jobs(tmp_path):
    """A spec stream that raises mid-pull must not take the batch down:
    every already-admitted job still completes, and the failure surfaces as
    a structured stream error on the report (ok=False — jobs were lost)."""

    def generate():
        yield _spec(0)
        yield _spec(1)
        raise ValueError("upstream survey database went away")

    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    pool.submit(generate())
    report = pool.run()
    assert not report.ok  # un-admitted work was lost — never report clean
    assert len(report.results) == 2
    assert all(r.status == "completed" for r in report.results)
    assert len(report.stream_errors) == 1
    assert "upstream survey database" in report.stream_errors[0]
    assert "2" in report.stream_errors[0]  # admitted count in the forensics
    failed = [e for e in report.events if e["kind"] == "stream_failed"]
    assert len(failed) == 1


def test_broken_stream_does_not_poison_healthy_streams(tmp_path):
    def broken():
        raise ValueError("bad iterator")
        yield  # pragma: no cover

    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    pool.submit(broken())
    pool.submit(_spec(i) for i in range(3))
    report = pool.run()
    assert len(report.results) == 3 and all(r.ok for r in report.results)
    assert len(report.stream_errors) == 1 and not report.ok


def test_stream_yielding_a_duplicate_id_is_dropped_not_fatal(tmp_path):
    """A duplicate ``job_id`` from a stream is the stream's bug: it is
    dropped like an iterator that raised, the jobs it already yielded drain,
    and ``run()`` returns.  A direct submit of the same spec still raises."""
    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    pool.submit(iter([JobSpec("a", nt=4), JobSpec("b", nt=4),
                      JobSpec("a", nt=4), JobSpec("c", nt=4)]))
    report = pool.run()
    assert [(r.spec.job_id, r.status) for r in report.results] == [
        ("a", "completed"), ("b", "completed"),
    ]
    assert len(report.stream_errors) == 1 and not report.ok
    assert "duplicate job_id 'a'" in report.stream_errors[0]
    with pytest.raises(ValueError, match="duplicate"):
        pool.submit(JobSpec("a", nt=4))


def test_mixed_direct_and_streamed_submission(tmp_path):
    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    pool.submit(_spec(3))
    pool.submit(iter([_spec(1), _spec(4)]))
    pool.submit(_spec(0))
    pool.submit(iter([_spec(2)]))
    report = pool.run()
    assert report.ok and len(report.results) == 5
    queued = [e for e in report.events if e["kind"] == "queued"]
    assert [e["streamed"] for e in queued] == [False, False, True, True, True]
    # direct specs are admitted at submit, streams in registration order,
    # and dispatch is first come, first served
    admitted = [e["job"] for e in queued]
    assert admitted == ["s-03", "s-00", "s-01", "s-04", "s-02"]
    assert [e["job"] for e in report.events if e["kind"] == "started"] == admitted
