"""Bit-identical equivalence of the three execution engines.

The fused three-address engine, the per-equation compiled kernels and the
tree-walking interpreter must produce *exactly* the same wavefields and
receiver traces — same bits, same dtype — for every physics under every
schedule, with off-the-grid sources and receivers attached.
"""

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

SHAPE = (16, 14, 12)
NT = 10


def build(kind, so=4):
    vp = layered_velocity(SHAPE, 1.5, 3.0, 3)
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    if kind == "elastic":
        kwargs = dict(rho=1.8, vs=vp / 1.8)
    model = SeismicModel(SHAPE, (10.0,) * 3, vp, nbl=4, space_order=so, **kwargs)
    dt = model.critical_dt(kind)
    centre = model.domain_center
    coords = [tuple(c + o for c, o in zip(centre, (3.3, -2.1, 1.7)))]
    src = point_source("src", model.grid, NT + 2, coords, f0=0.02, dt=dt)
    rec = receiver_line("rec", model.grid, NT + 2, npoint=5, depth=25.0)
    cls = {
        "acoustic": AcousticPropagator,
        "tti": TTIPropagator,
        "elastic": ElasticPropagator,
    }[kind]
    return cls(model, space_order=so, source=src, receivers=rec), dt


def state_of(prop):
    return [f.interior(NT).copy() for f in prop.fields]


SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(6, 5)),
    "wavefront": WavefrontSchedule(tile=(7, 8), block=(7, 4), height=3),
}


@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
@pytest.mark.parametrize("sched_name", list(SCHEDULES))
def test_engines_bit_identical(kind, sched_name):
    sched = SCHEDULES[sched_name]
    prop, dt = build(kind)
    rec_ref, plan = prop.forward(nt=NT, dt=dt, schedule=sched, engine="interp")
    assert all(s.engine == "interp" for s in plan.sweeps)
    ref = state_of(prop)
    assert max(np.abs(f).max() for f in ref) > 0, "must produce a wavefield"

    rec_got, plan = prop.forward(nt=NT, dt=dt, schedule=sched, engine="fused")
    assert all(s.engine == "fused" for s in plan.sweeps)
    got = state_of(prop)
    for f_got, f_ref in zip(got, ref):
        assert f_got.dtype == f_ref.dtype
        np.testing.assert_array_equal(f_got, f_ref, err_msg=f"{kind}/{sched_name}")
    assert rec_got.dtype == rec_ref.dtype
    np.testing.assert_array_equal(rec_got, rec_ref)


def test_engines_bit_identical_precomputed_sparse_naive():
    """Grid-aligned (precomputed) sparse operators under an untiled schedule,
    so the aligned injection/receiver path is compared across engines too."""
    prop, dt = build("acoustic")
    rec_ref, _ = prop.forward(
        nt=NT, dt=dt, schedule=NaiveSchedule(), sparse_mode="precomputed", engine="interp"
    )
    ref = state_of(prop)
    rec_got, _ = prop.forward(
        nt=NT, dt=dt, schedule=NaiveSchedule(), sparse_mode="precomputed", engine="fused"
    )
    for f_got, f_ref in zip(state_of(prop), ref):
        np.testing.assert_array_equal(f_got, f_ref)
    np.testing.assert_array_equal(rec_got, rec_ref)


def test_elastic_sweep_shares_divergence_terms():
    """The stress sweep's shared strain combinations are CSE'd: the fused
    elastic kernel evaluates fewer instructions than the sum of its
    per-equation renderings would."""
    prop, dt = build("elastic")
    plan = prop.op.apply(time_M=1, dt=dt)
    assert all(s.engine == "fused" for s in plan.sweeps)  # the default engine
    stress = max(plan.sweeps, key=len)
    assert len(stress) > 1
    assert stress._kernel.__ntemps__ > 0
