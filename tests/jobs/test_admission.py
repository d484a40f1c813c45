"""Streaming admission: lazy iterator pull under the capacity bound,
priority lanes, per-tenant quotas and the backpressure contract."""

from __future__ import annotations

import pytest

from repro.errors import QueueSaturatedError
from repro.jobs import JobPool, JobSpec, LANES


def _spec(i, **kwargs):
    return JobSpec(f"s-{i:02d}", nt=8, seed=i, checkpoint_every=4, **kwargs)


def test_lane_and_tenant_are_validated():
    with pytest.raises(ValueError, match="lane"):
        JobSpec("bad", lane="express")
    with pytest.raises(ValueError, match="tenant"):
        JobSpec("bad", tenant="")
    spec = _spec(0)
    assert spec.lane == "batch" and spec.tenant == "default"
    assert [JobSpec(f"l{i}", lane=lane).lane_priority for i, lane in enumerate(LANES)] \
        == [0, 1, 2]


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


def test_streamed_jobs_run_in_lane_priority_order(tmp_path):
    lanes = ["bulk", "batch", "interactive", "bulk", "interactive"]
    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    for i, lane in enumerate(lanes):
        pool.submit(_spec(i, lane=lane))
    report = pool.run()
    assert report.ok
    started = [e for e in report.events if e["kind"] == "started"]
    started_lanes = [report.result_for(e["job"]).spec.lane for e in started]
    assert started_lanes == ["interactive", "interactive", "batch", "bulk", "bulk"]


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


def test_direct_submit_over_tenant_quota_raises(tmp_path):
    pool = JobPool(workers=0, capacity=16, tenant_quota=1, workdir=tmp_path)
    pool.submit(_spec(0, tenant="alice"))
    with pytest.raises(QueueSaturatedError, match="alice"):
        pool.submit(_spec(1, tenant="alice"))
    pool.submit(_spec(2, tenant="bob"))  # another tenant still has room


def test_stream_stalls_at_tenant_quota_but_completes(tmp_path):
    # the stream holds the over-quota spec (bounded memory) and resumes
    # pulling once the tenant drains — nothing is dropped
    specs = [
        _spec(0, tenant="alice"),
        _spec(1, tenant="alice"),
        _spec(2, tenant="bob"),
    ]
    pool = JobPool(workers=0, capacity=16, tenant_quota=1, workdir=tmp_path)
    pool.submit(iter(specs))
    report = pool.run()
    assert report.ok and len(report.results) == 3
    assert {r.spec.job_id for r in report.results} == {"s-00", "s-01", "s-02"}


def test_mixed_direct_and_streamed_submission(tmp_path):
    pool = JobPool(workers=0, capacity=16, workdir=tmp_path)
    pool.submit(_spec(0, lane="bulk"))
    pool.submit(iter([_spec(1, lane="interactive"), _spec(2)]))
    report = pool.run()
    assert report.ok and len(report.results) == 3
    queued = [e for e in report.events if e["kind"] == "queued"]
    assert [e["streamed"] for e in queued] == [False, True, True]


def test_report_carries_lane_and_tenant(tmp_path):
    pool = JobPool(workers=0, workdir=tmp_path)
    pool.submit(_spec(0, lane="interactive", tenant="alice"))
    report = pool.run()
    payload = report.to_dict()
    assert payload["jobs"][0]["lane"] == "interactive"
    assert payload["jobs"][0]["tenant"] == "alice"
