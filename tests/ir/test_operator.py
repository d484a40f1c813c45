"""Unit tests for the Operator front-end."""

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import Eq, Function, Grid, SparseTimeFunction, TimeFunction, solve
from repro.ir import Operator

from ..conftest import make_acoustic_operator, run_and_capture


def test_operator_requires_equations():
    with pytest.raises(ValueError):
        Operator([])


def test_operator_requires_single_grid():
    g1, g2 = Grid(shape=(6, 6, 6)), Grid(shape=(8, 8, 8))
    a = TimeFunction("a", g1, time_order=1, space_order=2)
    b = TimeFunction("b", g2, time_order=1, space_order=2)
    with pytest.raises(ValueError, match="one grid"):
        Operator([Eq(a.forward, a.dx), Eq(b.forward, b.dx)])


def test_wavefront_angle_property(grid3d):
    op, *_ = make_acoustic_operator(grid3d, so=8)
    assert op.wavefront_angle == 4
    assert op.sweep_radii == [4]


def test_sparse_op_lists(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d)
    assert len(op.injections()) == 1
    assert len(op.interpolations()) == 1


def test_sweep_attachment_error(grid3d):
    u = TimeFunction("u", grid3d, time_order=2, space_order=4)
    m = Function("m", grid3d, space_order=4)
    m.data = 1.0
    upd = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    other = TimeFunction("w", grid3d, time_order=2, space_order=4)
    src = SparseTimeFunction("s", grid3d, npoint=1, nt=4)
    op = Operator([upd], sparse=[src.inject(other)])  # nothing writes w
    with pytest.raises(ValueError, match="no equation writes"):
        op.apply(time_M=2, dt=0.5)


def test_apply_time_range_validation(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ValueError):
        op.apply(time_M=0, dt=0.5)


def test_wavefront_rejects_offgrid_mode(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ValueError, match="precompute"):
        op.apply(time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(4, 4)),
                 sparse_mode="offgrid")


def test_unknown_sparse_mode(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ValueError, match="sparse mode"):
        op.apply(time_M=4, dt=0.5, sparse_mode="bogus")


def test_auto_mode_selects_by_schedule(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=6)
    plan = op.apply(time_M=4, dt=0.5, schedule=NaiveSchedule())
    from repro.execution.sparse import RawInjection

    assert any(isinstance(i, RawInjection) for lst in plan.injections.values() for i in lst)
    plan2 = op.apply(time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(4, 4), height=2))
    from repro.core.aligned import AlignedInjection

    assert any(isinstance(i, AlignedInjection) for lst in plan2.injections.values() for i in lst)


def test_precompute_cache_reused(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=6)
    op.apply(time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(4, 4), height=2))
    n_masks = len(op._mask_cache)
    op.apply(time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(6, 6), height=3))
    assert len(op._mask_cache) == n_masks  # same sparse functions, no rebuild


def test_unbound_symbol_detection(grid3d):
    u = TimeFunction("u", grid3d, time_order=2, space_order=4)
    from repro.dsl.symbols import Symbol

    eq = Eq(u.forward, u.indexify() * Symbol("mystery"))
    op = Operator([eq])
    with pytest.raises(ValueError, match="mystery"):
        op.apply(time_M=2, dt=0.5)


def test_plan_exposes_angle(grid3d):
    op, *_ = make_acoustic_operator(grid3d, so=4)
    plan = op.apply(time_M=2, dt=0.5)
    assert plan.angle == 2


def test_repr(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    assert "sweeps=1" in repr(op)
