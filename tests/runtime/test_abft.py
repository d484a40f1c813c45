"""ABFT silent-corruption detection and tile-granular recovery.

A finite exponent-rewrite bit flip is invisible to any NaN/Inf check; the
ABFT amplitude invariant catches it at the next containment-unit boundary,
the monitor restores the unit's entry snapshot, and re-executing just that
unit yields a run bit-identical to a fault-free one — under every schedule,
since the containment unit is the schedule's own tile.  A non-finite exit is
the guard's other verdict, a plain blow-up that is never re-executed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import Grid
from repro.errors import NumericalBlowup, SilentCorruptionError
from repro.runtime import (
    ABFTGuard,
    Fault,
    FaultInjector,
    Snapshot,
    abft,
    capture_snapshot,
    flip_finite,
    restore_snapshot,
)

from ..conftest import make_acoustic_operator

pytestmark = pytest.mark.faults

NT = 8
DT = 0.5

SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(5, 4)),
    "wavefront": WavefrontSchedule(tile=(6, 6), height=2),
}


def _schedule_param():
    return pytest.mark.parametrize(
        "schedule", list(SCHEDULES.values()), ids=list(SCHEDULES)
    )


def _run(op, u, rec, schedule, **kw):
    """Zero state, run with resilience kwargs, return (wavefield, receivers)."""
    u.data_with_halo[...] = 0.0
    if rec is not None:
        rec.data[...] = 0.0
    _apply(op, schedule, **kw)
    return u.interior(NT).copy(), (rec.data.copy() if rec is not None else None)


def _apply(op, schedule, **kw):
    mode = "precomputed" if isinstance(schedule, WavefrontSchedule) else "auto"
    return op.apply(time_M=NT, dt=DT, schedule=schedule, sparse_mode=mode, **kw)


# -- flip_finite: the injected corruption model --------------------------------------


@given(
    value=st.floats(allow_nan=False, allow_infinity=False, width=64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_flip_finite_float64_stays_finite_and_huge(value, seed):
    corrupted, mask = flip_finite(value, np.float64, np.random.default_rng(seed))
    again, mask2 = flip_finite(value, np.float64, np.random.default_rng(seed))
    assert (corrupted, mask) == (again, mask2)  # seeded: fully deterministic
    assert math.isfinite(corrupted)  # invisible to the NaN/Inf scan
    # exponent is drawn from the top octaves: many orders of magnitude
    # above any certified amplitude bound, so ABFT is guaranteed to see it
    assert abs(corrupted) >= 1e250
    assert math.copysign(1.0, corrupted) == math.copysign(1.0, value)


@given(
    value=st.floats(allow_nan=False, allow_infinity=False, width=32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_flip_finite_float32_stays_finite_and_huge(value, seed):
    corrupted, _ = flip_finite(value, np.float32, np.random.default_rng(seed))
    assert math.isfinite(float(corrupted))
    assert abs(float(corrupted)) >= 1e19
    assert corrupted.dtype == np.float32


def test_flip_finite_rejects_non_float_dtypes():
    with pytest.raises(ValueError, match="float32/float64"):
        flip_finite(1.0, np.int32, np.random.default_rng(0))


# -- detection + tile-granular recovery ----------------------------------------------


@_schedule_param()
def test_bitflip_is_detected_and_recovered_bit_identically(grid2d, schedule):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    clean_u, clean_rec = _run(op, u, rec, schedule)

    guard = ABFTGuard()
    faults = FaultInjector([Fault(t=4, kind="bitflip")], seed=11)
    dirty_u, dirty_rec = _run(op, u, rec, schedule, abft=guard, faults=faults)

    assert len(faults.flips) == 1  # the flip fired and was logged
    assert math.isfinite(faults.flips[0]["after"])
    assert guard.stats["detections"] >= 1
    assert guard.stats["tiles_reexecuted"] >= 1
    kinds = [e["kind"] for e in guard.events]
    assert "detection" in kinds and "reexecute" in kinds
    det = next(e for e in guard.events if e["kind"] == "detection")
    assert det["detector"] == "growth"
    assert det["observed"] is None or det["observed"] > det["bound"]
    # re-execution from the entry snapshot: bit-identical recovery
    np.testing.assert_array_equal(dirty_u, clean_u)
    np.testing.assert_array_equal(dirty_rec, clean_rec)


@given(fault_t=st.integers(1, NT - 1), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_recovery_is_bit_identical_for_any_fault_site(fault_t, seed):
    # property form of the gate, over the wavefront (time-tiled) schedule:
    # wherever the flip lands and whatever value it rewrites, the recovered
    # run equals the clean run bit for bit
    grid = Grid(shape=(14, 12), extent=(130.0, 110.0))
    schedule = WavefrontSchedule(tile=(6, 6), height=2)
    op, u, m, src, rec = make_acoustic_operator(grid, nt=NT)
    clean_u, clean_rec = _run(op, u, rec, schedule)
    guard = ABFTGuard()
    faults = FaultInjector([Fault(t=fault_t, kind="bitflip")], seed=seed)
    dirty_u, dirty_rec = _run(op, u, rec, schedule, abft=guard, faults=faults)
    assert guard.stats["detections"] >= 1
    np.testing.assert_array_equal(dirty_u, clean_u)
    np.testing.assert_array_equal(dirty_rec, clean_rec)


def test_without_abft_the_flip_corrupts_the_run_silently(grid2d):
    # the motivating failure mode: an unguarded run completes "green" with
    # wrong receivers, and no NaN/Inf check could have told
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    clean_u, clean_rec = _run(op, u, rec, NaiveSchedule())
    faults = FaultInjector([Fault(t=4, kind="bitflip")], seed=11)
    dirty_u, dirty_rec = _run(op, u, rec, NaiveSchedule(), faults=faults)
    assert len(faults.flips) == 1
    assert np.isfinite(dirty_u).all()  # nothing for a NaN/Inf scan to see
    assert not np.array_equal(dirty_rec, clean_rec)


def test_exhausted_reexecution_budget_escalates(grid2d, monkeypatch):
    # a zero budget: detection still fires but containment refuses, so the
    # error escalates to the checkpoint-restart / job-retry layer
    monkeypatch.setattr(abft, "MAX_REEXECUTIONS", 0)
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    guard = ABFTGuard()
    faults = FaultInjector([Fault(t=4, kind="bitflip")], seed=11)
    with pytest.raises(SilentCorruptionError) as excinfo:
        _run(op, u, rec, NaiveSchedule(), abft=guard, faults=faults)
    assert excinfo.value.context["detector"] == "growth"
    assert guard.stats["detections"] == 1
    assert guard.stats["tiles_reexecuted"] == 0


def test_restore_without_entry_snapshot_reports_fallback(grid2d):
    guard = ABFTGuard()
    assert guard.restore(None, 3) is False
    assert guard.events == [{"kind": "fallback", "t0": 3}]
    # after a run the guard holds the last unit's entry only: an earlier
    # unit's is gone, and a restore of it falls back too
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    plan = _apply(op, NaiveSchedule(), abft=guard)
    assert guard.restore(plan, 0) is False
    assert guard.events[-1] == {"kind": "fallback", "t0": 0}
    assert guard.stats["tiles_reexecuted"] == 0


def test_guard_validates_slack_and_reports_flat_describe(grid2d):
    # below 1 the slack would tighten the certified bound and flag clean runs
    assert abft.SLACK >= 1.0 and abft.FLOOR > 0.0
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    guard = ABFTGuard()
    _run(op, u, rec, NaiveSchedule(), abft=guard)
    assert guard.amplitude_active
    meta = guard.describe()
    # the pool harvests these keys at the top level — keep them flat
    for key in ("checks", "detections", "tiles_reexecuted", "micro_snapshots",
                "micro_snapshot_bytes", "events",
                "amplitude_active", "step_gain"):
        assert key in meta
    assert meta["detections"] == 0
    assert meta["checks"] >= NT  # one check per field per unit boundary
    assert meta["step_gain"] is not None and meta["step_gain"] >= 1.0


def test_amplitude_propagates_nan_instead_of_dropping_it():
    # Python's max() silently drops NaN; _amplitude must not, or a NaN that
    # appears inside a tile would pass the boundary check unnoticed
    class Stub:
        time_order = 2
        buffers = 3

        def __init__(self, slots):
            self._data = slots

    clean = Stub([np.ones((4, 4)), 2 * np.ones((4, 4)), -3 * np.ones((4, 4))])
    assert ABFTGuard._amplitude(clean, 2) == 3.0
    poisoned = [np.ones((4, 4)), np.ones((4, 4)), np.ones((4, 4))]
    poisoned[1][2, 2] = np.nan
    assert math.isnan(ABFTGuard._amplitude(Stub(poisoned), 2))


# -- the guard's entry snapshot ------------------------------------------------------


def test_snapshot_roundtrip_and_recycled_capture(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    plan = _apply(op, NaiveSchedule())
    snap = capture_snapshot(plan, NT)
    assert snap.step == NT
    assert snap.nbytes() > 0
    saved = {n: {i: a.copy() for i, a in keep.items()}
             for n, keep in snap.slots.items()}

    u.data_with_halo[...] = -1.0
    rec.data[...] = -1.0
    assert restore_snapshot(plan, snap) == NT
    for idx, arr in saved["u"].items():
        np.testing.assert_array_equal(u._data[idx], arr)

    # a retired snapshot donates its buffers: the recycled capture reuses
    # the same arrays (pure memcpy, no fresh allocation) yet equals a
    # fresh capture value-for-value
    recycled = capture_snapshot(plan, NT, recycle=snap)
    donated = {id(a) for keep in snap.slots.values() for a in keep.values()}
    reused = {id(a) for keep in recycled.slots.values() for a in keep.values()}
    assert reused == donated
    for name, keep in recycled.slots.items():
        for idx, arr in keep.items():
            np.testing.assert_array_equal(arr, plan_slot(plan, name, idx))


def plan_slot(plan, name, idx):
    from repro.runtime.checkpoint import _wavefields

    return _wavefields(plan)[name]._data[idx]


def test_guard_keeps_one_entry_snapshot_across_tiles(grid2d, monkeypatch):
    # restore only ever reads the re-executed unit's entry, so the guard
    # holds that one snapshot and overwrites its arrays at every entry
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    schedule = SCHEDULES["wavefront"]
    units = NT // schedule.height
    assert units >= 3
    guard = ABFTGuard()
    held = []
    entry = guard.tile_entry

    def recording_entry(plan, t0, t1):
        entry(plan, t0, t1)
        snaps = [v for v in vars(guard).values() if isinstance(v, Snapshot)]
        assert len(snaps) == 1 and snaps[0].step == t0
        held.append([id(a) for keep in snaps[0].slots.values() for a in keep.values()])

    monkeypatch.setattr(guard, "tile_entry", recording_entry)
    _run(op, u, rec, schedule, abft=guard)
    assert guard.stats["micro_snapshots"] == len(held) == units
    assert all(sorted(ids) == sorted(held[1]) for ids in held[1:])


# -- the verdict: blow-up or silent corruption ----------------------------------------


def test_deterministic_overflow_is_a_blowup_not_silent_corruption():
    # an unstable dt overflows to Inf/NaN for real: re-executing the tile
    # would only reproduce it, so the guard's verdict is a plain blow-up —
    # classified "fault" by the job service, not "sdc" — with no re-execution
    grid = Grid(shape=(14, 12), extent=(130.0, 110.0))
    op, u, m, src, rec = make_acoustic_operator(grid, nt=400)
    guard = ABFTGuard()
    with pytest.raises(NumericalBlowup) as excinfo:
        op.apply(time_M=400, dt=40.0, schedule=NaiveSchedule(), abft=guard)
    assert type(excinfo.value) is NumericalBlowup
    assert excinfo.value.t1 == excinfo.value.t + 1
    assert guard.stats["detections"] == 0
    assert guard.stats["tiles_reexecuted"] == 0


def test_growth_certificate_follows_in_place_model_update(grid2d):
    # one guard across two applies: the second must check against the
    # growth proof of the model as it is now, not as it was on first use
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    guard = ABFTGuard()
    _run(op, u, rec, NaiveSchedule(), abft=guard)
    first = guard.certificate.step_gain
    m.data_with_halo[...] /= 4
    u.data_with_halo[...] = 0.0
    plan = _apply(op, NaiveSchedule(), abft=guard)
    fresh = op.growth_certificate_for(plan, DT).step_gain
    assert fresh > first
    assert guard.certificate.step_gain == fresh
    assert guard.describe()["step_gain"] == fresh


@pytest.mark.slow
@pytest.mark.parametrize("guard", ["abft"])
def test_guard_cost_is_under_budget_from_the_runs_own_telemetry(guard):
    """The guard budget (DESIGN.md §2, "The guard"): under the wavefront
    schedule the guard's ``checkpoint+guard`` phase stays below 5% of the
    run it guards — read from that run's own telemetry, no unguarded partner
    run.  The share falls as 1/height (one snapshot and one amplitude scan of
    the grid per time tile): ≈ 2% at the height-16 tiles used here, ≈ 6% at
    height 4; EXPERIMENTS.md has the readings, the C rung's too."""
    from repro.propagators import (
        AcousticPropagator, SeismicModel, layered_velocity, point_source,
        receiver_line,
    )
    from repro.telemetry import Telemetry

    nt, shape = 16, (64, 64, 64)
    model = SeismicModel(
        shape, (10.0,) * 3, layered_velocity(shape, 1.5, 3.0, 3), nbl=4, space_order=8
    )
    dt = model.critical_dt("acoustic")
    prop = AcousticPropagator(
        model, space_order=8,
        source=point_source("src", model.grid, nt + 2, [model.domain_center], f0=0.02, dt=dt),
        receivers=receiver_line("rec", model.grid, nt + 2, npoint=8, depth=40.0),
    )
    schedule = WavefrontSchedule(tile=(32, 32), height=16)
    shares = []
    for _ in range(6):  # the first run binds the kernels; it is dropped
        tel = Telemetry()
        prop.forward(nt=nt, dt=dt, schedule=schedule, engine="fused", telemetry=tel,
                     abft=ABFTGuard())
        shares.append(tel.phase_seconds["checkpoint+guard"] / tel.total_seconds())
    assert 0.0 < float(np.median(shares[1:])) < 0.05, shares
