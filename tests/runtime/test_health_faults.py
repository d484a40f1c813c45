"""Fault injection and blow-up attribution by the tile-boundary guard.

Every schedule runs with a programmed corruption; the guard must judge a
NaN/Inf a :class:`NumericalBlowup` (never silent corruption) and attribute it
to the containment unit it fired in — the exact timestep under naive and
spatial schedules, the time tile under wavefront blocking — and to its exact
field and point, before any checkpoint captures it.  Faults fire into the
exit slot the guard scans, so nothing inside the unit spreads them.
"""

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.errors import InjectedFault, NumericalBlowup
from repro.runtime import ABFTGuard, CheckpointConfig, Fault, FaultInjector

from ..conftest import make_acoustic_operator

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


def _run(op, schedule, **kw):
    mode = "precomputed" if isinstance(schedule, WavefrontSchedule) else "auto"
    return op.apply(time_M=NT, dt=DT, schedule=schedule, sparse_mode=mode, **kw)


def _assert_blowup_attributed(grid, schedule, kind):
    op, u, m, src, rec = make_acoustic_operator(grid, nt=NT)
    point = (7, 6)
    fault_t = 4
    faults = FaultInjector([Fault(t=fault_t, kind=kind, point=point)])
    guard = ABFTGuard()
    checkpoint = CheckpointConfig(every=1)
    with pytest.raises(NumericalBlowup) as excinfo:
        _run(op, schedule, abft=guard, faults=faults, checkpoint=checkpoint)
    err = excinfo.value
    # the verdict, not the class hierarchy: a blow-up, never contained
    assert type(err) is NumericalBlowup
    assert guard.stats["detections"] == 0 and guard.stats["tiles_reexecuted"] == 0
    assert err.field == "u"
    assert err.t <= fault_t < err.t1
    if not isinstance(schedule, WavefrontSchedule):
        assert err.t == fault_t  # one timestep per unit
    # the corruption lands in the exit slot: exact on every schedule
    assert err.point == point
    assert err.count == 1
    # raised before the unit's checkpoint save: no snapshot holds the fault
    assert checkpoint.store.latest().step == err.t
    assert len(faults.log) == 1
    assert faults.log[0][0] == fault_t


@pytest.mark.faults
@_schedule_param()
def test_nan_fault_is_caught_and_attributed(grid2d, schedule):
    _assert_blowup_attributed(grid2d, schedule, "nan")


@pytest.mark.faults
@_schedule_param()
def test_inf_fault_is_a_blowup_not_silent_corruption(grid2d, schedule):
    _assert_blowup_attributed(grid2d, schedule, "inf")


@pytest.mark.faults
@_schedule_param()
def test_raise_fault_aborts_at_programmed_instance(grid2d, schedule):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    faults = FaultInjector([Fault(t=5, kind="raise", message="pulled the plug")])
    with pytest.raises(InjectedFault, match="pulled the plug") as excinfo:
        _run(op, schedule, faults=faults)
    assert excinfo.value.t == 5


@pytest.mark.faults
def test_inf_fault_without_point_is_seed_deterministic(grid2d):
    results = []
    for _ in range(2):
        op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
        faults = FaultInjector([Fault(t=3, kind="inf")], seed=42)
        with pytest.raises(NumericalBlowup) as excinfo:
            _run(op, NaiveSchedule(), abft=ABFTGuard(), faults=faults)
        assert type(excinfo.value) is NumericalBlowup
        results.append((excinfo.value.t, excinfo.value.point))
    assert results[0] == results[1]


@pytest.mark.faults
def test_injector_reset_replays_exactly(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    faults = FaultInjector([Fault(t=3, kind="nan")], seed=9)
    guard = ABFTGuard()
    with pytest.raises(NumericalBlowup) as first:
        _run(op, NaiveSchedule(), abft=guard, faults=faults)
    assert not faults.faults[0].armed
    faults.reset()
    assert faults.faults[0].armed and not faults.log
    u.data_with_halo[...] = 0.0
    with pytest.raises(NumericalBlowup) as second:
        _run(op, NaiveSchedule(), abft=guard, faults=faults)
    assert first.value.point == second.value.point


@pytest.mark.faults
def test_unarmed_and_mismatched_faults_never_fire(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    faults = FaultInjector(
        [
            Fault(t=3, kind="nan", armed=False),
            Fault(t=NT + 5, kind="raise"),  # beyond the run
        ]
    )
    _run(op, NaiveSchedule(), abft=ABFTGuard(), faults=faults)
    assert not faults.log
    assert np.isfinite(u.interior(NT)).all()


@pytest.mark.faults
def test_named_field_is_the_field_corrupted():
    """A fault on TTI's ``p`` corrupts ``p`` itself — not the first field
    of whichever sweep happens to be running — at exactly its point."""
    from repro.propagators.examples import build_example

    prop, dt = build_example("tti", nt=8)
    faults = FaultInjector([Fault(t=3, kind="nan", field="p", point=(6, 6, 6))])
    with pytest.raises(NumericalBlowup) as excinfo:
        prop.forward(nt=8, dt=dt, schedule=NaiveSchedule(), abft=ABFTGuard(),
                     faults=faults)
    err = excinfo.value
    assert (err.field, err.point, err.count, err.t) == ("p", (6, 6, 6), 1, 3)
    assert faults.log == [(3, "nan", "p")]


@pytest.mark.parametrize(
    "fault, match",
    [
        (Fault(t=2, kind="nan", field="v"), "not a time function"),
        (Fault(t=2, kind="nan", point=(7, 99)), "outside the grid"),
        (Fault(t=2, kind="nan", point=(7, -1)), "outside the grid"),
        (Fault(t=2, kind="nan", point=(7, 6, 1)), "outside the grid"),
    ],
    ids=["unknown-field", "past-the-end", "negative", "wrong-rank"],
)
def test_bad_fault_is_rejected_before_timestep_0(grid2d, fault, match):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with pytest.raises(ValueError, match=match):
        _run(op, NaiveSchedule(), faults=FaultInjector([fault]))
    assert fault.armed
    assert not u.data_with_halo.any()  # nothing ran


def test_fault_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Fault(t=0, kind="gamma-ray")
