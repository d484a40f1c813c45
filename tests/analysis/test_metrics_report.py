"""Tests for metrics (flop counting) and report rendering."""

import numpy as np

from repro.analysis import (
    eq_flops,
    flop_count,
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
