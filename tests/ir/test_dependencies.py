"""Unit tests for dependence analysis: sweeps, radii, wavefront lags."""

import pytest

from repro.core.scheduler import instance_lags
from repro.dsl import Eq, Function, Grid, TimeFunction, solve
from repro.ir.dependencies import (
    build_sweeps,
    read_accesses,
    wavefront_angle,
    written_access,
)


def wavefront_lags(sweeps, nsteps):
    """The executor's lag table for *sweeps*' read radii."""
    return instance_lags(tuple(s.read_radius() for s in sweeps), nsteps)


@pytest.fixture
def grid():
    return Grid(shape=(10, 10, 10))


def _forward_in_time(expr, grid):
    """Shift every access of *expr* one step forward in time."""
    from repro.dsl.symbols import Indexed

    return expr.subs({ix: ix.shift(grid.stepping_dim, 1) for ix in expr.atoms(Indexed)})


def acoustic_eq(grid, so=4):
    u = TimeFunction("u", grid, time_order=2, space_order=so)
    m = Function("m", grid, space_order=so)
    return Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward)), u, m


# -- access classification ----------------------------------------------------------
def test_written_access(grid):
    eq, u, m = acoustic_eq(grid)
    w = written_access(eq)
    assert w.function is u and w.time_offset == 1 and w.radius == 0


def test_read_accesses_radii(grid):
    eq, u, m = acoustic_eq(grid, so=8)
    radii = {a.radius for a in read_accesses(eq) if a.function is u}
    assert max(radii) == 4


def test_radius_along(grid):
    eq, u, m = acoustic_eq(grid, so=4)
    xs = [a.radius_along("x") for a in read_accesses(eq)]
    assert max(xs) == 2


# -- sweep construction -----------------------------------------------------------------
def test_single_eq_single_sweep(grid):
    eq, u, m = acoustic_eq(grid)
    sweeps = build_sweeps([eq])
    assert len(sweeps) == 1
    assert sweeps[0].read_radius() == 2


def test_independent_eqs_merge(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, b.dy)]
    sweeps = build_sweeps(eqs)
    assert len(sweeps) == 1


def test_flow_dependent_eqs_split(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    # b reads a.forward with nonzero radius -> must be a second sweep
    da = _forward_in_time(a.dx, grid)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, da)]
    sweeps = build_sweeps(eqs)
    assert len(sweeps) == 2
    assert sweeps[1].read_radius() == 2


def test_pointwise_intrasweep_read_allowed(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, a.forward * 2)]  # radius-0 read
    assert len(build_sweeps(eqs)) == 1


def test_double_write_splits(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, a.dx), Eq(a.forward, a.dy)]
    assert len(build_sweeps(eqs)) == 2


# -- wavefront geometry -----------------------------------------------------------------
def test_wavefront_angle_single_sweep(grid):
    eq, u, m = acoustic_eq(grid, so=8)
    assert wavefront_angle(build_sweeps([eq])) == 4


def test_lags_single_sweep(grid):
    eq, u, m = acoustic_eq(grid, so=4)
    sweeps = build_sweeps([eq])
    assert wavefront_lags(sweeps, 4) == [0, 2, 4, 6]


def test_lags_multi_sweep(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=8)
    da = _forward_in_time(a.dx, grid)  # radius 2 read of a@+1
    eqs = [Eq(a.forward, b.dx2), Eq(b.forward, da)]
    sweeps = build_sweeps(eqs)
    assert [s.read_radius() for s in sweeps] == [4, 2]
    # instance order (t0,s0),(t0,s1),(t1,s0),(t1,s1): +2, +4, +2
    assert wavefront_lags(sweeps, 2) == [0, 2, 6, 8]


def test_lags_invalid_height(grid):
    eq, u, m = acoustic_eq(grid)
    with pytest.raises(ValueError):
        wavefront_lags(build_sweeps([eq]), 0)


def test_sweep_time_reads_exclude_own_writes(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, a.forward * 2)]
    (sweep,) = build_sweeps(eqs)
    names = {(x.function.name, x.time_offset) for x in sweep.time_reads()}
    assert ("a", 1) not in names  # produced in-sweep, pointwise
    assert ("a", 0) in names


def test_model_fields_do_not_add_lag(grid):
    u = TimeFunction("u", grid, time_order=2, space_order=4)
    m = Function("m", grid, space_order=4)
    # reading the model field with a wide stencil must not steepen the front
    eq = Eq(u.forward, m.laplace + u.indexify())
    (sweep,) = build_sweeps([eq])
    assert sweep.read_radius() == 0


# -- Sweep.read_radius ---------------------------------------------------------------
def test_sweep_read_radius_matches_method(grid):
    eq, u, m = acoustic_eq(grid, so=8)
    (sweep,) = build_sweeps([eq])
    assert sweep.read_radius() == max(a.radius for a in sweep.time_reads()) == 4


def test_sweep_read_radius_zero_radius_sweep(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=4)
    # pointwise damping update: no spatial reach, no wavefront lag
    (sweep,) = build_sweeps([Eq(u.forward, 0.9 * u.indexify())])
    assert sweep.read_radius() == 0
    assert wavefront_angle([sweep]) == 0


def test_sweep_read_radius_multi_field_sweep(grid):
    # one sweep reading several time fields at different radii (the elastic
    # pattern): the lag is the maximum over all external time-field reads
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=8)
    c = TimeFunction("c", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, b.dx2 + c.dy)]
    (sweep,) = build_sweeps(eqs)
    assert sweep.read_radius() == 4  # b.dx2 at so=8 dominates c.dy


def test_sweep_read_radius_ignores_in_sweep_pointwise_products(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, a.forward * 2)]
    (sweep,) = build_sweeps(eqs)
    # the in-sweep pointwise consumption of a.forward adds no radius
    assert sweep.read_radius() == 2
