"""Span nesting, phase accounting and attribute integrity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.telemetry import PHASES, Telemetry

from ..conftest import ENGINE_PARAMS, make_acoustic_operator


class FakeClock:
    """Deterministic clock: each reading advances by a fixed tick."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def test_begin_end_nesting_and_depth():
    tel = Telemetry(clock=FakeClock())
    outer = tel.begin("outer", schedule="naive")
    inner = tel.begin("inner")
    assert outer.depth == 0 and inner.depth == 1
    tel.end(inner)
    tel.end(outer)
    assert [s.name for s in tel.spans] == ["inner", "outer"]
    assert outer.start <= inner.start
    assert inner.end <= outer.end
    assert outer.attrs == {"schedule": "naive"}


def test_end_out_of_order_raises():
    tel = Telemetry(clock=FakeClock())
    outer = tel.begin("outer")
    tel.begin("inner")
    with pytest.raises(ValueError, match="nesting violated"):
        tel.end(outer)


def test_span_contextmanager_closes_on_error():
    tel = Telemetry(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tel.span("work"):
            raise RuntimeError("boom")
    assert len(tel.spans) == 1
    assert not tel._stack


def test_phase_accounting_with_fake_clock():
    tel = Telemetry(clock=FakeClock(tick=0.5))
    tel.add_phase("stencil", 2.0)
    tel.add_phase("stencil", 1.0)
    tel.add_phase("custom", 0.25)
    totals = tel.phase_totals()
    assert totals["stencil"] == 3.0
    assert totals["custom"] == 0.25
    assert list(totals)[: len(PHASES)] == list(PHASES)
    assert tel.phase_sum() == pytest.approx(3.25)


def test_events_and_epoch():
    tel = Telemetry(clock=FakeClock())
    ev = tel.event("checkpoint.save", phase="checkpoint+guard", step=4)
    assert tel.epoch == ev.start
    assert ev.dur == 0.0
    assert tel.events == [ev]
    assert ev.attrs["step"] == 4


def test_detail_validation():
    with pytest.raises(ValueError, match="unknown detail"):
        Telemetry(detail="verbose")


SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(6, 6)),
    "wavefront": WavefrontSchedule(tile=(6, 6), height=2),
}


@pytest.mark.parametrize("sched_name", sorted(SCHEDULES))
def test_run_span_structure(grid3d, sched_name):
    """Every schedule produces a consistent apply > run > (tile|step) tree
    with per-instance spans at detail="trace"."""
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=8)
    tel = Telemetry(detail="trace")
    op.apply(time_M=8, dt=0.4, schedule=SCHEDULES[sched_name], telemetry=tel)

    root = tel.root_span()
    assert root is not None and root.name == "apply"
    assert root.attrs["schedule"] == sched_name
    (run,) = tel.find("run")
    assert run.attrs["schedule"] == sched_name
    assert run.start >= root.start and run.end <= root.end + 1e-9

    groups = tel.find("tile" if sched_name == "wavefront" else "step")
    assert groups, "no per-tile/per-step spans recorded"
    for g in groups:
        assert run.start <= g.start and g.end <= run.end + 1e-9

    instances = [s for s in tel.spans if s.name.startswith("sweep")]
    assert instances, "trace detail must record per-instance spans"
    for inst in instances:
        assert inst.phase == "stencil"
        assert "t" in inst.attrs and "sweep" in inst.attrs
        if sched_name == "wavefront":
            assert "tile" in inst.attrs and "box" in inst.attrs
    # instance count matches the executed-instances counter
    assert len(instances) == tel.counters["instances"]

    # every phase second is attributed to a known phase, and the phase sum
    # explains (almost) all of the run wall-time
    assert all(v >= 0 for v in tel.phase_seconds.values())
    assert tel.coverage() > 0.90
    assert tel.total_seconds() > 0


def test_phase_detail_suppresses_instance_spans(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=6)
    tel = Telemetry(detail="phase")
    op.apply(time_M=6, dt=0.4, schedule=NaiveSchedule(), telemetry=tel)
    assert not [s for s in tel.spans if s.name.startswith("sweep")]
    assert tel.find("run")  # structural spans still present
    assert tel.counters["instances"] > 0  # counters unaffected by detail


def test_meta_static_costs_registered(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=6)
    tel = Telemetry()
    op.apply(time_M=6, dt=0.4, schedule=NaiveSchedule(), telemetry=tel)
    assert tel.meta["operator"] == op.name
    assert len(tel.meta["sweep_flops"]) == len(op.sweeps)
    assert all(f > 0 for f in tel.meta["sweep_flops"])
    assert all(a > 0 for a in tel.meta["sweep_accesses"])
    assert tel.meta["dtype_bytes"] in (4, 8)
    assert tel.meta["grid_shape"] == list(grid3d.shape)


#: (sweep_flops, sweep_accesses) of each example's bound sweeps, per
#: compiled rung: C hoists only what it cannot express, fused every model term
STATIC_COSTS = {
    ("acoustic", "c"): ([28.0], [17]),
    ("acoustic", "fused"): ([22.0], [18]),
    ("tti", "c"): ([22.0, 107.0], [20, 68]),
    ("tti", "fused"): ([16.0, 83.0], [20, 70]),
    ("elastic", "c"): ([54.0, 117.0], [48, 87]),
    ("elastic", "fused"): ([48.0, 105.0], [48, 87]),
}


@pytest.mark.parametrize("bind", ["cold", "served"])
@pytest.mark.parametrize("engine", [e for e in ENGINE_PARAMS if e != "interp"])
@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
def test_static_flops_count_the_bound_kernel(kind, engine, bind):
    """sweep_flops and sweep_accesses are counted once, when the sweep
    compiles, on the factorised, hoisted expressions the rung runs; a bind
    the table serves registers the same numbers.  For acoustic so=4 the
    flops are exactly the arithmetic instructions of the program, one ufunc
    pass each."""
    from repro.ir.pycodegen import clear_kernel_caches
    from repro.propagators.examples import build_example

    clear_kernel_caches()
    for shift in [None] + [(0.1, -0.1, 0.05)] * (bind == "served"):
        prop, dt = build_example(kind, shift=shift)
        tel = Telemetry()
        plan = prop.op.apply(time_M=2, dt=dt, engine=engine, telemetry=tel)
    assert tel.counters["kernel_cache_hits"] == (len(plan.sweeps) if bind == "served" else 0)
    assert (tel.meta["sweep_flops"], tel.meta["sweep_accesses"]) == STATIC_COSTS[kind, engine]
    if kind == "acoustic":
        (program,) = [sw.compiled.program for sw in plan.sweeps]
        arithmetic = [i for i in program.instrs if i.op != "store"]
        assert tel.meta["sweep_flops"] == [float(len(arithmetic))]
        assert tel.meta["sweep_accesses"] == [len(program.views) + len(program.outs)]
