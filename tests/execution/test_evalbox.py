"""Tests for vectorised box evaluation of bound equations."""

import numpy as np
import pytest

from repro.dsl import Eq, Function, Grid, TimeFunction
from repro.dsl.symbols import Number, Symbol
from repro.execution.evalbox import (
    BoundEq,
    BoundSweep,
    box_is_empty,
    clip_box,
    full_box,
)


@pytest.fixture
def grid():
    return Grid(shape=(10, 9, 8))


def test_full_box(grid):
    assert full_box(grid) == ((0, 10), (0, 9), (0, 8))


def test_clip_box(grid):
    assert clip_box(((-3, 20), (2, 5), (0, 8)), grid) == ((0, 10), (2, 5), (0, 8))


def test_box_is_empty():
    assert box_is_empty(((3, 3), (0, 5)))
    assert box_is_empty(((5, 3), (0, 5)))
    assert not box_is_empty(((0, 1), (0, 1)))


def test_bound_eq_rejects_unbound_symbols(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    eq = Eq(u.forward, u.indexify() * Symbol("dt"))
    with pytest.raises(ValueError, match="dt"):
        BoundEq(eq, grid)


def test_copy_equation_on_box(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    rng = np.random.default_rng(0)
    u.interior(0)[...] = rng.normal(size=grid.shape).astype(np.float32)
    beq = BoundEq(Eq(u.forward, u.indexify() * 2), grid)
    box = ((2, 5), (1, 4), (0, 8))
    beq.evaluate(0, box)
    got = u.interior(1)
    ref = np.zeros(grid.shape, dtype=np.float32)
    ref[2:5, 1:4, :] = 2 * u.interior(0)[2:5, 1:4, :]
    np.testing.assert_array_equal(got, ref)


def test_shifted_access_reads_halo(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    x = grid.dimension("x")
    eq = Eq(u.forward, u.indexify().shift(x, 1))
    beq = BoundEq(eq, grid)
    u.interior(0)[...] = np.arange(10, dtype=np.float32)[:, None, None]
    beq.evaluate(0, full_box(grid))
    # last row reads the zero halo
    assert (u.interior(1)[-1] == 0).all()
    assert (u.interior(1)[0] == 1).all()


def test_empty_box_is_noop(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    beq = BoundEq(Eq(u.forward, u.indexify() + 1), grid)
    beq.evaluate(0, ((3, 3), (0, 9), (0, 8)))
    assert not u.interior(1).any()


def test_model_field_access(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    f = Function("f", grid, space_order=2)
    f.data = 3.0
    beq = BoundEq(Eq(u.forward, f.indexify()), grid)
    beq.evaluate(5, full_box(grid))
    assert (u.interior(6) == 3.0).all()


def test_circular_time_indexing(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    beq = BoundEq(Eq(u.forward, u.indexify() + 1), grid)
    for t in range(5):
        beq.evaluate(t, full_box(grid))
    assert (u.interior(5) == 5).all()


def test_scalar_rhs_broadcasts(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    beq = BoundEq(Eq(u.forward, Number(7)), grid)
    beq.evaluate(0, full_box(grid))
    assert (u.interior(1) == 7).all()


def test_bind_equations_list(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    sweep = BoundSweep([Eq(u.forward, u.indexify())], grid, engine="interp")
    assert len(sweep) == 1 and all(isinstance(beq, BoundEq) for beq in sweep)


def test_float32_preserved(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    beq = BoundEq(Eq(u.forward, u.indexify() * 0.3333333), grid)
    beq.evaluate(0, full_box(grid))
    assert u.interior(1).dtype == np.float32
