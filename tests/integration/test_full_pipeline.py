"""End-to-end integration: all three physics under every schedule, and the
negative demonstration that motivates the whole paper."""

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.propagators import (
    AcousticPropagator,
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
    point_source,
    receiver_line,
)

SHAPE = (20, 18, 16)


def build(kind, so=4, nt=14, src_offset=(3.3, -2.1, 1.7)):
    vp = layered_velocity(SHAPE, 1.5, 3.0, 3)
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    if kind == "elastic":
        kwargs = dict(rho=1.8, vs=vp / 1.8)
    model = SeismicModel(SHAPE, (10.0,) * 3, vp, nbl=4, space_order=so, **kwargs)
    dt = model.critical_dt(kind)
    centre = model.domain_center
    coords = [tuple(c + o for c, o in zip(centre, src_offset))]
    src = point_source("src", model.grid, nt + 2, coords, f0=0.02, dt=dt)
    rec = receiver_line("rec", model.grid, nt + 2, npoint=6, depth=25.0)
    cls = {"acoustic": AcousticPropagator, "tti": TTIPropagator, "elastic": ElasticPropagator}[kind]
    return cls(model, space_order=so, source=src, receivers=rec), dt, nt


def state_of(prop, nt):
    return np.concatenate([f.interior(nt).ravel() for f in prop.fields])


@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
@pytest.mark.parametrize("so", [4, 8])
def test_all_physics_all_schedules(kind, so):
    prop, dt, nt = build(kind, so=so)
    rec_ref, _ = prop.forward(nt=nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    ref = state_of(prop, nt)
    assert np.abs(ref).max() > 0, "simulation must produce a wavefield"

    for sched in (
        SpatialBlockSchedule(block=(6, 5)),
        WavefrontSchedule(tile=(7, 8), height=3),
        WavefrontSchedule(tile=(10, 10), height=nt),
    ):
        rec_got, _ = prop.forward(nt=nt, dt=dt, schedule=sched)
        got = state_of(prop, nt)
        np.testing.assert_array_equal(got, ref, err_msg=f"{kind}/so{so}/{sched}")
        np.testing.assert_array_equal(rec_got, rec_ref)


@pytest.mark.parametrize("kind", ["tti", "elastic"])
def test_space_order_12_multiphysics(kind):
    """The paper's hardest order: angle 9 (TTI) / 12 (elastic) per step."""
    prop, dt, nt = build(kind, so=12, nt=8)
    prop.forward(nt=nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    ref = state_of(prop, nt)
    prop.forward(nt=nt, dt=dt, schedule=WavefrontSchedule(tile=(8, 8), height=4))
    np.testing.assert_array_equal(state_of(prop, nt), ref)


def test_unsafe_offgrid_injection_is_wrong():
    """The negative result motivating the scheme (Fig. 4b): raw off-the-grid
    injection inside space-time tiles violates flow dependencies and corrupts
    the wavefield."""
    from repro.core.scheduler import WavefrontSchedule
    from repro.execution.executors import run_schedule
    from repro.execution.sparse import UnsafeOffGridInjection

    prop, dt, nt = build("acoustic", so=4)
    # reference
    prop.forward(nt=nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    ref = prop.u.interior(nt).copy()

    # rebuild a plan but swap the aligned injection for the unsafe one
    op = prop.op
    sched = WavefrontSchedule(tile=(6, 6), height=4)
    plan = op._bind(dt, sched, "precomputed")
    inj = op.injections()[0]
    unsafe = UnsafeOffGridInjection(inj, dt)
    for j in plan.injections:
        plan.injections[j] = [unsafe]
    prop.zero_fields()
    run_schedule(plan, 0, nt, sched)
    got = prop.u.interior(nt).copy()

    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() > 1e-3 * scale, (
        "expected a dependence violation: the source support straddles tile "
        "boundaries, so un-decomposed injection must corrupt the result"
    )


def test_wavefront_faster_tile_counts():
    """Plan introspection: the wavefront executor really tiles time."""
    prop, dt, nt = build("acoustic")
    plan = prop.forward(nt=nt, dt=dt,
                        schedule=WavefrontSchedule(tile=(6, 6), height=5))[1]
    assert plan.angle == 2


def test_two_shots_reuse_operator():
    """Running twice (new wavelet) reuses the cached precomputation."""
    prop, dt, nt = build("acoustic")
    sched = WavefrontSchedule(tile=(6, 6), height=3)
    rec1, _ = prop.forward(nt=nt, dt=dt, schedule=sched)
    prop.source.data[:] *= 2.0
    # decomposition is cached per (injection, dt): rescale requires rebuild,
    # which the operator exposes by clearing the cache
    prop.op._decomp_cache.clear()
    rec2, _ = prop.forward(nt=nt, dt=dt, schedule=sched)
    np.testing.assert_allclose(rec2, 2.0 * rec1, rtol=1e-4, atol=1e-6)
