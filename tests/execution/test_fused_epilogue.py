"""The grid-aligned operators inside the C sweep (Listing 4): on the C rung
each pencil ends with its Listing-5 injection and gather, and the executor
dispatches no aligned operator per instance.  Bit-identity against the
interpreter (the oracle: sweep, then the Python bodies per instance) on every
physics and schedule kind — spatial blocks with precomputed operators and a
wavefront that tiles ``z`` (the epilogue's checked loop) included — on one
thread and on the team, with the same exact counters; and the receivers'
staging ring through a checkpoint restore and an ABFT re-execution."""

import contextlib

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import SparseTimeFunction
from repro.propagators import (
    AcousticPropagator,
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
    point_source,
)
from repro.runtime import ABFTGuard, CheckpointConfig, Fault, FaultInjector, MemoryCheckpointStore
from repro.errors import InjectedFault
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, needs_cc, omp_team

NT = 8
SHAPE, NBL = (12, 12, 12), 2
SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(5, 7)),
    "wavefront": WavefrontSchedule(tile=(6, 6), height=3),
    "wavefront-z": WavefrontSchedule(tile=(6, 6, 5), height=2),
}
COUNTERS = ("instances", "points_updated", "src_points_injected", "rec_points_gathered")
_PROPAGATORS = {"acoustic": AcousticPropagator, "tti": TTIPropagator, "elastic": ElasticPropagator}


def _example(kind: str):
    """A 12^3 (nbl 2) propagator with five off-grid sources, one exactly on
    the grid's far corner, and six off-grid receivers."""
    vp = layered_velocity(SHAPE, 1.5, 3.0, 3)
    kwargs = {"tti": dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4),
              "elastic": dict(rho=1.8, vs=vp / 1.8)}.get(kind, {})
    model = SeismicModel(SHAPE, (10.0,) * 3, vp, nbl=NBL, space_order=4, **kwargs)
    dt = model.critical_dt(kind)
    grid = model.grid
    origin, extent = np.asarray(grid.origin, float), np.asarray(grid.extent, float)
    rng = np.random.default_rng(3)
    src_xyz = origin + extent * rng.uniform(0.1, 0.9, (5, 3))
    src_xyz[0] = origin + extent  # on the boundary
    src = point_source("src", grid, NT, src_xyz, f0=0.015, dt=dt)
    rec = SparseTimeFunction("rec", grid, npoint=6, nt=NT,
                             coordinates=origin + extent * rng.uniform(0.05, 0.95, (6, 3)))
    return _PROPAGATORS[kind](model, space_order=4, source=src, receivers=rec), dt


def _team(threads):
    return omp_team(threads) if threads else contextlib.nullcontext()


def _run(kind, schedule, engine, threads=None):
    prop, dt = _example(kind)
    tel = Telemetry()
    with _team(threads):
        rec, plan = prop.forward(nt=NT, dt=dt, schedule=schedule, sparse_mode="precomputed",
                                 engine=engine, telemetry=tel)
    assert tel.meta["engine"] == engine
    fields = b"".join(f.data_with_halo.tobytes() for f in prop.fields)
    return rec.tobytes() + fields, {k: tel.counters[k] for k in COUNTERS}, tel, plan


@needs_cc
@pytest.mark.parametrize("threads", [1, None], ids=["one-thread", "team"])
@pytest.mark.parametrize("schedule", list(SCHEDULES.values()), ids=list(SCHEDULES))
@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
def test_c_epilogue_is_the_interpreter_at_0_ulp(kind, schedule, threads):
    ref, ref_counts, _, _ = _run(kind, schedule, "interp")
    out, counts, tel, plan = _run(kind, schedule, "c", threads)
    assert out == ref
    assert counts == ref_counts and counts["src_points_injected"] > 0
    # the operators rode the sweeps: the executor timed no injection
    assert tel.phase_seconds.get("injection", 0.0) == 0.0
    attached = [j for j in range(plan.nsweeps) if plan.injections.get(j) or plan.receivers.get(j)]
    assert attached and all(
        plan.sweeps[j].sparse_table(plan.injections.get(j, []), plan.receivers.get(j, []))
        is not None for j in attached
    )


@needs_cc
@pytest.mark.parametrize("threads", [1, None], ids=["one-thread", "team"])
@pytest.mark.parametrize("schedule", list(SCHEDULES.values())[:3], ids=list(SCHEDULES)[:3])
def test_two_dimensional_grid_with_a_boundary_source(grid2d, schedule, threads):
    lo, hi = np.asarray(grid2d.origin, float), np.asarray(grid2d.origin) + grid2d.extent
    coords = np.array([lo + 0.37 * (hi - lo), hi, lo])  # two corners of the grid
    runs = []
    for engine in ("interp", "fused", "c"):
        op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT, src_coords=coords)
        tel = Telemetry()
        with _team(threads if engine == "c" else None):
            op.apply(time_M=NT, dt=0.5, schedule=schedule, sparse_mode="precomputed",
                     engine=engine, telemetry=tel)
        runs.append((u.data_with_halo.tobytes() + rec.data.tobytes(),
                     {k: tel.counters[k] for k in COUNTERS}))
    assert runs[0] == runs[1] == runs[2]


@needs_cc
def test_abft_reexecution_on_the_c_rung_restages_the_ring():
    """A bit flip inside a height-4 tile: the guard restores the entry
    snapshot and the tile re-runs, its four staging rows rewritten in the
    ring by the epilogue, and the traces equal the clean run's; the finished
    run keeps a ring of one row."""
    schedule = WavefrontSchedule(tile=(6, 6), height=4)
    clean, _, _, _ = _run("acoustic", schedule, "c")
    prop, dt = _example("acoustic")
    guard = ABFTGuard()
    rec, plan = prop.forward(nt=NT, dt=dt, schedule=schedule, sparse_mode="precomputed",
                             engine="c", abft=guard,
                             faults=FaultInjector([Fault(t=5, kind="bitflip")], seed=11))
    assert guard.stats["tiles_reexecuted"] >= 1
    (receiver,) = plan.all_receivers()
    assert receiver._ring.shape[0] == 1  # the run gave the tile's rows back
    assert rec.tobytes() + b"".join(f.data_with_halo.tobytes() for f in prop.fields) == clean


@needs_cc
def test_checkpoint_resume_on_the_c_rung_reopens_the_ring():
    """Crash inside a run of height-4 tiles, resume from the newest snapshot
    on a fresh bind: traces and wavefields equal the uninterrupted run's."""
    schedule = WavefrontSchedule(tile=(6, 6), height=4)
    clean, _, _, _ = _run("tti", schedule, "c")
    prop, dt = _example("tti")
    store = MemoryCheckpointStore()
    run = dict(nt=NT, dt=dt, schedule=schedule, sparse_mode="precomputed", engine="c")
    with pytest.raises(InjectedFault):
        prop.forward(**run, checkpoint=CheckpointConfig(every=4, store=store),
                     faults=FaultInjector([Fault(t=6, kind="raise")]))
    assert store.latest().step == 4
    prop._op = None  # a fresh operator: new receivers, new rings
    rec, plan = prop.forward(**run, checkpoint=CheckpointConfig(every=4, store=store, resume=True))
    assert plan.all_receivers()[0]._ring.shape[0] == 1
    assert rec.tobytes() + b"".join(f.data_with_halo.tobytes() for f in prop.fields) == clean


@needs_cc
def test_an_epilogue_that_disagrees_with_its_operators_raises():
    """The plan's per-sweep lists and the sweep's epilogue come from one
    attachment list; operators that do not match the epilogue are an error,
    not a silent fall back to per-instance bodies."""
    _, _, _, plan = _run("acoustic", SCHEDULES["naive"], "c")
    sweep, injections = plan.sweeps[0], plan.injections[0]
    assert [k for k, _ in sweep.sparse] == ["inject", "gather"]
    assert sweep.sparse_table(injections, plan.receivers[0]) is not None
    with pytest.raises(ValueError, match="does not run the operators"):
        sweep.sparse_table(injections, [])


@needs_cc
def test_a_warm_forward_loads_no_shared_object():
    """The receivers' reconstruction is bound once a process: a warm
    ``forward`` (bind served from the operator) touches no shared object."""
    prop, dt = _example("tti")
    run = dict(nt=NT, dt=dt, schedule=SCHEDULES["naive"], sparse_mode="precomputed", engine="c")
    prop.forward(**run)
    tel = Telemetry()
    prop.forward(**run, telemetry=tel)
    assert tel.counters["c_cache_hits"] == tel.counters["c_cache_misses"] == 0
