"""Tests for metrics (flop counting) and report rendering."""

import numpy as np
import pytest

from repro.analysis import (
    access_count,
    arithmetic_intensity,
    eq_flops,
    flop_count,
    gpoints_per_s,
    render_series,
    render_speedup_bars,
    render_table,
)
from repro.dsl import Eq, Function, Grid, TimeFunction, solve
from repro.dsl.symbols import Add, Call, Mul, Number, Pow, Symbol

X, Y = Symbol("x"), Symbol("y")


# -- flop counting ------------------------------------------------------------------
def test_add_mul_costs():
    assert flop_count(Add(X, Y, Number(1))) == 2
    assert flop_count(Mul(X, Y)) == 1
    assert flop_count(X) == 0
    assert flop_count(Number(5)) == 0


def test_nested_cost():
    e = Mul(Add(X, Y), Add(X, Number(2)))  # 1 mul + 2 adds
    assert flop_count(e) == 3


def test_pow_costs():
    assert flop_count(Pow(X, Number(2))) == 1  # x*x
    assert flop_count(Pow(X, Number(3))) == 2
    assert flop_count(Pow(X, Number(-1))) == 1  # one division
    assert flop_count(Pow(X, Number(-2))) == 2  # square + divide


def test_call_cost():
    assert flop_count(Call("cos", X)) == 4.0


def test_eq_flops_acoustic_scales_with_order():
    g = Grid(shape=(8, 8, 8))
    m = Function("m", g, space_order=4)

    def build(so):
        u = TimeFunction("u", g, time_order=2, space_order=so)
        return Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))

    assert eq_flops(build(8)) > eq_flops(build(4)) > 10


def test_access_count():
    g = Grid(shape=(8, 8, 8))
    u = TimeFunction("u", g, time_order=2, space_order=4)
    eq = Eq(u.forward, u.laplace)
    assert access_count(eq) == 13 + 1  # 13-pt star + the write


# -- throughput helpers ------------------------------------------------------------------
def test_gpoints():
    assert gpoints_per_s(1e9, 10, 10.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gpoints_per_s(1, 1, 0)


def test_ai():
    assert arithmetic_intensity(100, 50) == 2.0
    with pytest.raises(ValueError):
        arithmetic_intensity(1, 0)


# -- report rendering ------------------------------------------------------------------------
def test_render_table_alignment():
    t = render_table(["a", "bb"], [[1, 2.5], ["xx", 3]], title="T")
    lines = t.splitlines()
    assert lines[0] == "T"
    assert "---" in lines[2]
    assert len({len(l) for l in lines[1:3]}) == 1


def test_render_series():
    t = render_series([1, 2], {"s1": [0.5, 0.6], "s2": [1.0, 1.1]}, x_label="n")
    assert "n" in t and "s1" in t and "0.6" in t


def test_render_speedup_bars():
    t = render_speedup_bars(["a", "b"], [1.5, 0.9], title="Fig")
    assert "1.50x" in t and "0.90x" in t
    assert "#" in t


# -- legality-certificate rendering -------------------------------------------------
def test_render_certificate():
    from repro.analysis import render_certificate
    from repro.core.scheduler import WavefrontSchedule
    from repro.verify import prove_schedule

    from ..conftest import make_acoustic_operator
    from repro.dsl import Grid

    op, *_ = make_acoustic_operator(Grid(shape=(12, 11, 10)))
    cert = prove_schedule(op, WavefrontSchedule(tile=(8, 8), height=2))
    out = render_certificate(cert, title="demo certificate")
    assert "demo certificate" in out
    assert "wavefront angle" in out and "tile skew" in out
    assert "True" in out  # legal verdict
    assert "in-tile" in out
