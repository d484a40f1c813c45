"""Schedule kinds: ``apply``/``forward`` take ``"naive" | "spatial" |
"wavefront"`` as well as a ``Schedule``, and run a kind as its one shape
(``schedule_for``), no taller than the run nor than its checkpoint cadence."""

from __future__ import annotations

import warnings

import pytest

from repro.core.scheduler import (
    SCHEDULES,
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    schedule_for,
)
from repro.errors import EngineFallbackWarning, InjectedFault, ScheduleLegalityError
from repro.jobs import JobSpec, execute_attempt
from repro.jobs.worker import build_problem
from repro.propagators.examples import build_example
from repro.runtime.checkpoint import CheckpointConfig, MemoryCheckpointStore
from repro.runtime.faults import Fault, FaultInjector
from repro.telemetry import Telemetry

SURVEY = JobSpec("survey-shot", example="acoustic", nt=128, schedule="wavefront",
                 engine="fused", checkpoint_every=8, seed=3)


def _run(prop, dt, schedule, **kwargs):
    tel = Telemetry()
    rec, _ = prop.forward(dt=dt, schedule=schedule, telemetry=tel, **kwargs)
    return rec, tel.meta["plan"]


def test_each_kind_has_one_shape_capped_by_the_run():
    assert schedule_for("naive", 3, 128) == NaiveSchedule()
    assert schedule_for("spatial", 3, 1) == SpatialBlockSchedule(block=(64, 64))
    assert schedule_for("wavefront", 3, 128) == WavefrontSchedule(tile=(96, 96), height=8)
    assert [schedule_for("wavefront", 3, cap).height for cap in (8, 5, 1)] == [8, 5, 1]
    assert schedule_for("wavefront", 2, 16).tile == (96,)  # the innermost dimension streams
    with pytest.raises(ValueError, match="unknown schedule kind"):
        schedule_for("diamond", 3, 4)


@pytest.mark.parametrize("engine", ["fused", "c"])
@pytest.mark.parametrize("example", ["acoustic", "tti", "elastic"])
def test_every_kind_gives_naive_receivers(example, engine):
    prop, dt = build_example(example)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineFallbackWarning)  # no compiler: fused
        for kind, mode in (("spatial", "offgrid"), ("wavefront", "precomputed")):
            ref, _ = prop.forward(nt=16, dt=dt, schedule=NaiveSchedule(), sparse_mode=mode,
                                  engine=engine)
            ref = ref.tobytes()
            rec, plan = _run(prop, dt, kind, nt=16, engine=engine)
            assert rec.tobytes() == ref and plan["origin"] == "default", (kind, plan)
            if kind == "wavefront":  # a checkpoint cadence of 5 lowers the height to 5
                rec, plan = _run(prop, dt, kind, nt=16, engine=engine,
                                 checkpoint=CheckpointConfig(every=5))
                assert rec.tobytes() == ref and plan["schedule"]["height"] == 5


def test_the_survey_kind_saves_16_times_and_resumes_at_the_same_step():
    prop, dt = build_problem(SURVEY)
    every = SURVEY.checkpoint_every
    tel = Telemetry()
    prop.forward(nt=SURVEY.nt, dt=dt, schedule="wavefront", engine=SURVEY.engine,
                 checkpoint=CheckpointConfig(every=every), telemetry=tel)
    assert tel.counters["checkpoint_saves"] == 16
    assert tel.meta["plan"]["schedule"]["height"] == every
    store = MemoryCheckpointStore()
    with pytest.raises(InjectedFault):
        prop.forward(nt=SURVEY.nt, dt=dt, schedule="wavefront", engine=SURVEY.engine,
                     checkpoint=CheckpointConfig(every=every, store=store),
                     faults=FaultInjector([Fault(t=53)]))
    assert store.latest().step == 48


def test_a_survey_attempt_records_the_shape_that_ran(tmp_path):
    _, meta = execute_attempt(SURVEY, tmp_path / "a")
    assert meta["checkpoint_saves"] == 16
    assert meta["plan"] == {"schedule": schedule_for("wavefront", 3, 8).describe(),
                            "origin": "default"}


def test_a_given_schedule_runs_as_given():
    prop, dt = build_example("acoustic")
    given = WavefrontSchedule(tile=(8, 8), height=4)
    tel = Telemetry()
    prop.forward(nt=16, dt=dt, schedule=given, telemetry=tel)
    assert tel.meta["plan"] == {"schedule": given.describe(), "origin": "given"}
    assert tel.meta["schedule"] == given.describe()


def test_an_illegal_kind_raises_before_timestep_0():
    prop, dt = build_example("acoustic")
    with pytest.raises(ScheduleLegalityError, match="grid-aligned"):
        prop.forward(nt=16, dt=dt, schedule="wavefront", sparse_mode="offgrid")
    assert not prop.receivers.data.any()


@pytest.mark.parametrize("kind", SCHEDULES)
def test_profile_title_names_the_shape_that_ran(kind, capsys):
    from repro.profile import main

    assert main(["acoustic", "--schedule", kind, "--nt", "8"]) == 0
    title = capsys.readouterr().out.splitlines()[0]
    assert f"acoustic ({kind}, nt=8) — ran " in title and title.endswith("(default)")
