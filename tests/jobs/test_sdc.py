"""Silent-data-corruption handling across the job service: the chaos
``sdc_rate`` knob, ``sdc`` attempt classification, flat retry backoff,
graceful ENOSPC degradation, and the
end-to-end gate — a batch under injected finite bit-flips completes 100%
bit-identical with journaled tile-granular recovery."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SilentCorruptionError, StorageExhaustedError
from repro.jobs import (
    ChaosConfig,
    ChaosPlan,
    JobPool,
    JobSpec,
    RetryPolicy,
    load_journal,
    run_batch,
    run_job_inline,
)
from repro.jobs.pool import _classify_failure
from repro.jobs.status import journal_stats

from .fleets import FLEETS

pytestmark = pytest.mark.faults


# -- chaos: the sdc_rate knob --------------------------------------------------------


@given(batch_seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_sdc_draw_is_deterministic_and_order_independent(batch_seed):
    config = ChaosConfig(sdc_rate=0.5)
    forward = ChaosPlan(config, batch_seed=batch_seed)
    backward = ChaosPlan(config, batch_seed=batch_seed)
    a = [forward.entry(i, 64) for i in range(10)]
    b = [backward.entry(i, 64) for i in reversed(range(10))][::-1]
    assert a == b


@given(batch_seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_sdc_draw_does_not_reshuffle_legacy_fault_decisions(batch_seed):
    # the sdc draw is appended *after* the legacy draws: adding sdc_rate to
    # an existing chaos config must not change which jobs get which faults
    legacy = ChaosPlan(ChaosConfig(fault_rate=0.4, break_rate=0.3), batch_seed)
    mixed = ChaosPlan(
        ChaosConfig(fault_rate=0.4, break_rate=0.3, sdc_rate=0.5), batch_seed
    )
    for i in range(10):
        old, new = legacy.entry(i, 32), mixed.entry(i, 32)
        assert old.break_rung == new.break_rung
        if old.fault is not None:  # legacy fault fired: sdc never overrides
            assert new.fault == old.fault


def test_sdc_entries_arm_the_abft_guard_not_the_health_guard():
    plan = ChaosPlan(ChaosConfig(sdc_rate=1.0), batch_seed=7)
    for i in range(8):
        entry = plan.entry(i, 32)
        assert entry.fault is not None
        assert entry.fault["kind"] == "bitflip"
        assert 1 <= entry.fault["t"] < 32
        # the one guard: its verdict, not a choice of guard, tells this
        # finite flip (silent corruption) from a NaN/Inf (blow-up)
        assert entry.needs_guard
    assert ChaosConfig(sdc_rate=0.5).active
    with pytest.raises(ValueError, match="sdc_rate"):
        ChaosConfig(sdc_rate=1.5)


# -- classification and retry discipline ---------------------------------------------


def test_silent_corruption_classifies_as_sdc_even_after_the_pipe():
    err = SilentCorruptionError(
        "amplitude past the certified bound", field="u", detector="growth"
    )
    assert _classify_failure(err) == "sdc"
    clone = pickle.loads(pickle.dumps(err))
    assert _classify_failure(clone) == "sdc"
    assert clone.context["detector"] == "growth"
    assert _classify_failure(ValueError("boom")) == "fault"


def test_sdc_retries_at_flat_base_delay_with_aligned_jitter_stream():
    policy = RetryPolicy(base=0.1, factor=4.0, max_delay=10.0, jitter=0.5)
    sdc_rng = np.random.default_rng(3)
    fault_rng = np.random.default_rng(3)
    sdc = [policy.delay(a, sdc_rng, outcome="sdc") for a in (1, 2, 3)]
    faults = [policy.delay(a, fault_rng) for a in (1, 2, 3)]
    # sdc: flat base (plus jitter), never escalating
    assert all(0.1 <= d <= 0.1 * 1.5 for d in sdc)
    # faults: exponential escalation
    assert faults[2] > faults[1] > faults[0]
    # the jitter draw is consumed either way: streams stay aligned
    assert policy.delay(4, sdc_rng) == policy.delay(4, fault_rng)


# -- pool-level ENOSPC degradation ---------------------------------------------------


def test_pool_degrades_and_drains_on_journal_enospc(tmp_path, monkeypatch):
    from repro.jobs import BatchJournal

    def full_disk(self, kind, **payload):
        raise StorageExhaustedError(
            "disk full", path=str(tmp_path), op="journal_append"
        )

    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        pool = JobPool(workers=workers, workdir=workdir)
        pool.submit(JobSpec("never-runs", nt=8, checkpoint_every=4))
        monkeypatch.setattr(BatchJournal, "append", full_disk)
        pool.request_drain()  # the first append to hit the full disk
        assert isinstance(pool.storage_degraded, StorageExhaustedError)
        kinds = [e["kind"] for e in pool.events]
        assert kinds.count("storage_degraded") == 1 and kinds.count("drain") == 1
        # journaling is off: further transitions are silent no-ops on disk, not
        # crashes or append loops, and the batch winds down cleanly
        report = pool.run()
        assert report.drained and report.interrupted == 1
        assert [e["kind"] for e in report.events].count("storage_degraded") == 1
        monkeypatch.undo()
        # nothing after the failure reached the journal: admit is its last record
        assert load_journal(workdir / "journal.jsonl").records[-1]["kind"] == "admit"
        # so the status shows what the journal holds: one open admission, and
        # no record of the degradation the full disk refused
        stats = journal_stats(workdir)
        assert (stats["jobs"]["admitted"], stats["jobs"]["active"]) == (1, 1)
        assert stats["storage_degraded"] == 0 and not stats["ended"]


# -- the end-to-end gate -------------------------------------------------------------


def _assert_sdc_batch_recovers(workdir, specs, report):
    assert report.ok, [r.to_dict() for r in report.results if not r.ok]
    for spec in specs:
        result = report.result_for(spec.job_id)
        assert result.status == "completed"
        np.testing.assert_array_equal(result.receivers, run_job_inline(spec))
    replay = load_journal(workdir / "journal.jsonl")
    sdc = replay.for_kind("sdc")
    assert len(sdc) >= 1  # detection + recovery is journaled, not silent
    for rec in sdc:
        assert rec["recovered"] is True
        assert rec["detector"] == "growth"
        assert rec["detections"] >= 1
        assert rec["tiles_reexecuted"] >= 1
        assert rec["micro_snapshot_bytes"] > 0
    stats = journal_stats(workdir)
    assert stats["sdc"]["records"] == len(sdc)
    assert stats["sdc"]["recovered"] == len(sdc)
    assert stats["sdc"]["tiles_reexecuted"] >= len(sdc)


def test_serial_sdc_batch_completes_bit_identical_with_journaled_recovery(
    tmp_path,
):
    specs = [
        JobSpec(f"sdc-{i}", nt=16, seed=40 + i, checkpoint_every=4,
                max_attempts=3)
        for i in range(3)
    ]
    report = run_batch(
        specs,
        workers=0,
        workdir=tmp_path,
        chaos=ChaosConfig(sdc_rate=1.0),
        batch_seed=9,
    )
    _assert_sdc_batch_recovers(tmp_path, specs, report)
    # recovery happened *in-run* (tile re-execution), not via job retries
    for spec in specs:
        assert len(report.result_for(spec.job_id).attempts) == 1
    sdc = journal_stats(tmp_path)["sdc"]
    assert sdc["detections"] >= 3 and sdc["recovered"] >= 3


def test_warm_pool_sdc_batch_completes_bit_identical(tmp_path):
    specs = [
        JobSpec(f"warm-sdc-{i}", nt=16, seed=60 + i, checkpoint_every=4,
                max_attempts=3)
        for i in range(2)
    ]
    report = run_batch(
        specs,
        workers=1,
        workdir=tmp_path,
        chaos=ChaosConfig(sdc_rate=1.0),
        batch_seed=11,
    )
    _assert_sdc_batch_recovers(tmp_path, specs, report)
