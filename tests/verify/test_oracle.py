"""Shadow-memory race oracle: certified schedules race-free, counterexamples real."""

import pytest

from repro.core.scheduler import (
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
)
from repro.errors import ScheduleLegalityError
from repro.verify import prove_schedule, run_oracle
from ..conftest import make_acoustic_operator

WF = WavefrontSchedule(tile=(8, 8), height=2)


@pytest.mark.parametrize(
    "schedule",
    [NaiveSchedule(), SpatialBlockSchedule(block=(6, 5)), WF],
    ids=["naive", "spatial", "wavefront"],
)
def test_certified_schedules_are_race_free(grid3d, schedule):
    # every static "legal" verdict must be confirmed by the dynamic oracle
    op, *_ = make_acoustic_operator(grid3d)
    assert prove_schedule(op, schedule).check()
    report = run_oracle(op, schedule, time_M=6)
    assert report.ok, report.describe()
    assert report.reads_checked > 0 and report.writes_checked > 0
    assert report.races == [] and report.nraces == 0


def test_oracle_exercises_sparse_paths(grid3d):
    # under the naive schedule the raw off-grid operators run (and are legal):
    # the oracle must check their point accesses too
    op, *_ = make_acoustic_operator(grid3d)
    plain = run_oracle(
        make_acoustic_operator(
            grid3d, src_coords=False, rec_coords=False
        )[0],
        NaiveSchedule(),
        time_M=6,
    )
    full = run_oracle(op, NaiveSchedule(), time_M=6)
    assert full.ok and plain.ok
    assert full.writes_checked > plain.writes_checked  # injections counted
    assert full.reads_checked > plain.reads_checked  # gathers counted


def test_unsafe_offgrid_wavefront_manifests_race(grid3d):
    # the prover's counterexample must be demonstrable: re-enable the
    # deliberately wrong off-grid-injection-in-tiles path and watch it race
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ScheduleLegalityError) as ei:
        prove_schedule(op, WF, sparse_mode="offgrid")
    ce = ei.value.counterexample
    assert ce.manifest

    report = run_oracle(op, WF, time_M=6, unsafe_offgrid=True)
    assert not report.ok and report.nraces > 0
    # the dynamic races land on the very field the static counterexample names
    assert report.races_on(ce.field)
    kinds = {r.kind for r in report.races}
    # an injection add destroyed by (or landing after) the tiled stencil
    # assignment is a lost update — the Fig. 4b failure mode
    assert kinds == {"lost-update"}
    assert all(r.field == "u" for r in report.races)


def test_unsafe_offgrid_sequential_is_still_race_free(grid3d):
    # the unsafe path is only unsafe *inside tiles*: sequential schedules run
    # the same scatter legally, so the oracle must stay quiet (no false alarms)
    op, *_ = make_acoustic_operator(grid3d)
    report = run_oracle(op, NaiveSchedule(), time_M=6, unsafe_offgrid=True)
    assert report.ok, report.describe()


def test_dodging_placement_unsafe_run_is_clean(grid3d):
    # a source whose support never straddles a tile window (the prover's
    # manifest=False case) produces no dynamic race either — the rejection of
    # the schedule *class* is static, not dynamic
    coords = [[20.0, 20.0, 45.0]]
    op, *_ = make_acoustic_operator(grid3d, src_coords=coords, rec_coords=False)
    from repro.verify import offgrid_counterexample

    ce = offgrid_counterexample(op, WF, op.injections()[0])
    assert not ce.manifest
    report = run_oracle(op, WF, time_M=6, unsafe_offgrid=True)
    assert report.ok, report.describe()


def test_max_records_caps_log_not_count(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    report = run_oracle(op, WF, time_M=6, unsafe_offgrid=True, max_records=1)
    assert len(report.races) == 1
    assert report.nraces > 1  # the total keeps counting past the cap


def test_report_to_dict(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    report = run_oracle(op, WF, time_M=6)
    d = report.to_dict()
    assert d["ok"] is True and d["races"] == 0
    assert d["schedule"]["kind"] == "wavefront"
    assert d["sparse_mode"] == "precomputed"

    bad = run_oracle(op, WF, time_M=6, unsafe_offgrid=True)
    db = bad.to_dict()
    assert db["ok"] is False and db["races"] == bad.nraces
    assert db["examples"][0]["kind"] == "lost-update"
    assert "lost-update" in bad.races[0].describe()
