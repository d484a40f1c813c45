"""Numerical convergence of the generated solvers against exact solutions.

Validates the whole DSL -> lowering -> executor chain *quantitatively*: the
acoustic update integrated under wave-front temporal blocking must track the
analytic standing-wave solution, improve with resolution and space order
(down to the single-precision floor), and accumulate exactly the same error
as the naive schedule — temporal blocking reorders execution, never the
numerics.
"""

import numpy as np
import pytest

from repro.core import NaiveSchedule, Schedule, WavefrontSchedule
from repro.dsl import Eq, Function, Grid, TimeFunction, solve
from repro.ir import Operator


def standing_wave_error(n: int, so: int, schedule: Schedule, steps: int) -> float:
    """Max error vs ``u = cos(w t) sin(k x)`` on a 1-D grid.

    Initial conditions (two slices) come from the exact solution; the
    comparison window is the central 20% so zero-halo boundary effects cannot
    reach it within ``steps`` (information travels <= radius cells/step).
    """
    c = 1.5
    length = 1000.0
    grid = Grid(shape=(n,), extent=(length,))
    h = grid.spacing[0]
    k = 2 * np.pi * 3 / length
    omega = c * k
    dt = 0.2 * h / c
    assert steps * (so // 2) < 0.35 * n, "boundary contamination would reach the window"

    u = TimeFunction("u", grid, time_order=2, space_order=so)
    m = Function("m", grid, space_order=so)
    m.data = 1.0 / c**2
    op = Operator([Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))])

    xs = np.arange(-u.halo, n + u.halo) * h
    for tstep, t_phys in ((0, 0.0), (1, dt)):
        u.buffer(tstep)[...] = np.cos(omega * t_phys) * np.sin(k * xs)

    op.apply(time_M=steps, time_m=1, dt=dt, schedule=schedule)
    got = u.interior(steps).astype(np.float64)
    x = np.arange(n) * h
    ref = np.cos(omega * steps * dt) * np.sin(k * x)
    lo, hi = int(0.4 * n), int(0.6 * n)
    return float(np.abs(got[lo:hi] - ref[lo:hi]).max())


@pytest.mark.parametrize("schedule", [
    NaiveSchedule(),
    WavefrontSchedule(tile=(16,), height=4),
], ids=["naive", "wavefront"])
def test_second_order_convergence_rate(schedule):
    """so=2: halving h (and dt) shrinks the error ~4x (O(h^2) + O(dt^2))."""
    e_coarse = standing_wave_error(100, 2, schedule, steps=8)
    e_fine = standing_wave_error(200, 2, schedule, steps=16)
    assert e_fine < e_coarse / 2.5, (e_coarse, e_fine)


def test_higher_order_is_more_accurate():
    e2 = standing_wave_error(100, 2, NaiveSchedule(), steps=8)
    e4 = standing_wave_error(100, 4, NaiveSchedule(), steps=8)
    assert e4 < e2 / 5.0, (e2, e4)


def test_error_hits_single_precision_floor():
    """At so=8 the discretisation error sits below the float32 round-off
    floor; the computed error must be tiny in absolute terms."""
    e8 = standing_wave_error(100, 8, NaiveSchedule(), steps=8)
    assert e8 < 5e-5


def test_wavefront_error_equals_naive_error():
    """Temporal blocking changes the execution order, not the numerics."""
    e_naive = standing_wave_error(120, 4, NaiveSchedule(), steps=10)
    e_wf = standing_wave_error(
        120, 4, WavefrontSchedule(tile=(13,), height=5), steps=10
    )
    assert e_wf == e_naive
