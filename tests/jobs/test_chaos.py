"""The chaos gate: under injected faults AND a SIGKILLed worker, every job
of a batch completes with receivers bit-identical to a fault-free serial
run.  Plus determinism of the chaos plan itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jobs import (
    ChaosConfig,
    ChaosPlan,
    JobSpec,
    load_journal,
    run_batch,
    run_job_inline,
)

from .fleets import FLEETS

pytestmark = pytest.mark.faults


def test_chaos_plan_is_order_and_cache_independent():
    config = ChaosConfig(fault_rate=0.5, break_rate=0.3, kill_workers=1)
    forward = ChaosPlan(config, batch_seed=11)
    backward = ChaosPlan(config, batch_seed=11)
    a = [forward.entry(i, 64) for i in range(10)]
    b = [backward.entry(i, 64) for i in reversed(range(10))][::-1]
    assert a == b


def test_chaos_plan_rates_are_respected_at_the_extremes():
    none = ChaosPlan(ChaosConfig(fault_rate=0.0, break_rate=0.0, kill_workers=1), 3)
    assert all(none.entry(i, 32).fault is None for i in range(8))
    assert not any(none.entry(i, 32).break_rung for i in range(8))
    every = ChaosPlan(ChaosConfig(fault_rate=1.0, break_rate=1.0), 3)
    for i in range(8):
        entry = every.entry(i, 32)
        assert entry.fault is not None
        assert 1 <= entry.fault["t"] < 32
        assert entry.break_rung


def test_kill_victims_are_named_in_advance_by_index():
    # like hangs and poison, kills are a budget over the first jobs: which
    # daemon dies never depends on which one reached a checkpoint first
    plan = ChaosPlan(ChaosConfig(fault_rate=0.5, kill_workers=2), batch_seed=4)
    assert [plan.entry(i, 64).kill for i in range(5)] == [True, True, False, False, False]


def test_corruption_faults_request_a_health_guard():
    # one guard for every corruption kind: it catches NaN/Inf before any
    # snapshot and a finite bit-flip at the next tile boundary
    for kind in ("nan", "inf", "bitflip"):
        plan = ChaosPlan(ChaosConfig(fault_rate=1.0, kinds=(kind,)), 5)
        entry = plan.entry(0, 32)
        assert entry.fault["kind"] == kind
        assert entry.needs_guard
    plan = ChaosPlan(ChaosConfig(fault_rate=1.0, kinds=("raise",)), 5)
    assert not plan.entry(0, 32).needs_guard


@pytest.mark.parametrize("workers", FLEETS)
def test_nan_chaos_is_a_fault_retried_from_its_checkpoint_not_sdc(tmp_path, workers):
    # the guard's verdict end to end: a NaN is a blow-up, so the attempt's
    # outcome is "fault" (exponential backoff, poison-countable), never
    # "sdc", and the retry resumes from a checkpoint the NaN never reached
    config = ChaosConfig(fault_rate=1.0, kinds=("nan",))
    spec = JobSpec("nan-shot", nt=32, seed=5, checkpoint_every=4, max_attempts=3)
    fault_t = ChaosPlan(config, batch_seed=1).entry(0, spec.nt).fault["t"]
    report = run_batch([spec], workers=workers, workdir=tmp_path, chaos=config, batch_seed=1)
    assert report.ok
    result = report.result_for("nan-shot")
    assert [a.outcome for a in result.attempts] == ["fault", "completed"]
    assert result.attempts[0].error.startswith("NumericalBlowup")
    assert 0 < result.attempts[1].resumed_from <= fault_t
    replay = load_journal(tmp_path / "journal.jsonl")
    assert [r["outcome"] for r in replay.for_kind("outcome")] == ["fault", "completed"]
    assert not replay.for_kind("sdc")
    np.testing.assert_array_equal(result.receivers, run_job_inline(spec))


def test_config_validates_rates_and_kinds():
    with pytest.raises(ValueError, match="fault_rate"):
        ChaosConfig(fault_rate=1.5)
    with pytest.raises(ValueError, match="break_rate"):
        ChaosConfig(break_rate=-0.1)
    with pytest.raises(ValueError, match="kill_workers"):
        ChaosConfig(kill_workers=-1)
    with pytest.raises(ValueError, match="kind"):
        ChaosConfig(kinds=("raise", "segfault"))
    assert not ChaosConfig().active
    assert ChaosConfig(kill_workers=1).active


def test_sigkilled_worker_resumes_from_checkpoint_bit_identical(tmp_path):
    # the supervisor SIGKILLs the worker right after its first checkpoint
    # lands; the retry must resume mid-run and still match the oracle exactly
    spec = JobSpec("victim", nt=96, seed=13, checkpoint_every=4, max_attempts=3)
    report = run_batch(
        [spec],
        workers=1,
        workdir=tmp_path,
        chaos=ChaosConfig(kill_workers=1),
        batch_seed=21,
    )
    assert report.ok
    assert report.kills == 1
    result = report.result_for("victim")
    assert len(result.attempts) == 2
    assert result.attempts[0].outcome == "crash"
    assert "WorkerCrashError" in result.attempts[0].error
    assert result.attempts[1].resumed_from is not None
    assert result.attempts[1].resumed_from > 0  # a genuine mid-run resume
    kinds = [e["kind"] for e in report.events if e["job"] == "victim"]
    assert kinds == ["queued", "started", "killed", "retried", "resumed",
                     "started", "completed"]
    np.testing.assert_array_equal(result.receivers, run_job_inline(spec))


def test_chaos_gate_no_job_lost_all_bit_identical(tmp_path):
    # the issue's acceptance gate: 16 jobs, ~20% fault injection, one
    # SIGKILLed worker — zero lost jobs, every receiver block bit-identical
    # to a fault-free serial run of the same spec
    specs = [
        JobSpec(f"shot-{i:02d}", nt=96, seed=100 + i, checkpoint_every=4,
                max_attempts=4)
        for i in range(16)
    ]
    report = run_batch(
        specs,
        workers=4,
        workdir=tmp_path,
        chaos=ChaosConfig(fault_rate=0.2, kill_workers=1),
        batch_seed=123,
    )
    assert report.ok, [r.to_dict() for r in report.results if not r.ok]
    assert report.kills == 1
    assert any(e["kind"] == "resumed" for e in report.events)
    for spec in specs:
        np.testing.assert_array_equal(
            report.result_for(spec.job_id).receivers, run_job_inline(spec)
        )
