"""The observability layer must observe, not perturb: telemetry-on runs are
bit-identical to telemetry-off runs, and a disabled layer records nothing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, run_and_capture

NT = 8
SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(6, 6)),
    "wavefront": WavefrontSchedule(tile=(6, 6), height=2),
}


@pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
def test_bit_identical_with_and_without_telemetry(grid3d, sched_name):
    schedule = SCHEDULES[sched_name]
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=NT)
    u_off, rec_off = run_and_capture(op, u, rec, NT, 0.4, schedule)

    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    tel = Telemetry(detail="trace")
    op.apply(time_M=NT, dt=0.4, schedule=schedule, telemetry=tel)
    assert np.array_equal(u.interior(NT), u_off)
    assert np.array_equal(rec.data, rec_off)
    assert tel.spans  # it did instrument the run


def test_fresh_telemetry_records_nothing():
    tel = Telemetry()
    assert tel.spans == [] and tel.events == []
    assert dict(tel.counters) == {}
    assert all(v == 0.0 for v in tel.phase_seconds.values())
    assert tel.total_seconds() == 0.0
    assert tel.root_span() is None


def test_apply_without_telemetry_is_silent(grid3d):
    """The no-telemetry path never constructs a Telemetry behind the
    caller's back — apply() returns a plan and nothing else is recorded."""
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=NT)
    plan = op.apply(time_M=NT, dt=0.4, schedule=NaiveSchedule())
    assert plan is not None


def test_monitor_composes_with_telemetry(grid3d):
    from repro.runtime import ABFTGuard
    from repro.runtime.checkpoint import CheckpointConfig

    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=NT)
    tel = Telemetry()
    op.apply(
        time_M=NT, dt=0.4, schedule=NaiveSchedule(), telemetry=tel,
        abft=ABFTGuard(),
        checkpoint=CheckpointConfig(every=4),
    )
    assert tel.counters["abft_checks"] >= NT  # one per field per timestep
    assert tel.counters["abft_micro_snapshots"] == NT
    assert tel.counters["checkpoint_saves"] > 0
    saves = [e for e in tel.events if "checkpoint" in e.name]
    assert len(saves) == tel.counters["checkpoint_saves"]
    assert tel.phase_seconds["checkpoint+guard"] > 0


def test_aborted_run_still_flushes_guard_counters(grid3d):
    """A run killed by NumericalBlowup must leave its guard tallies in the
    telemetry buffer — partial telemetry of a crashed run is the postmortem."""
    from repro.errors import NumericalBlowup
    from repro.runtime import ABFTGuard
    from repro.runtime.faults import Fault, FaultInjector

    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=NT)
    tel = Telemetry()
    with pytest.raises(NumericalBlowup):
        op.apply(
            time_M=NT, dt=0.4, schedule=NaiveSchedule(), telemetry=tel,
            abft=ABFTGuard(),
            faults=FaultInjector([Fault(t=3, kind="nan", point=(5, 5, 5))]),
        )
    # units [0, 1) .. [3, 4) entered and checked; the last check is the verdict
    assert tel.counters["abft_checks"] == 4
    assert tel.counters["abft_micro_snapshots"] == 4
    assert tel.counters["abft_micro_snapshot_bytes"] > 0
    assert tel.counters["abft_detections"] == 0  # a blow-up, not corruption
    # the fired fault is recorded even though firing it killed the run
    assert tel.counters["faults_fired"] == 1
    (ev,) = [e for e in tel.events if e.name == "fault.fired"]
    assert ev.attrs["kind"] == "nan" and ev.attrs["t"] == 3
