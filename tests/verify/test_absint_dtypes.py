"""Dtype lattice: NEP 50 promotion vs NumPy ground truth, chains, slot audit."""

import numpy as np
import pytest

from repro.dsl import Eq, Grid, TimeFunction
from repro.verify import lint_equations
from repro.verify.absint import audit_slot_dtypes, expr_dtype, promote, ufunc_result
from repro.verify.absint.dtypes import (
    WEAK_FLOAT,
    WEAK_INT,
    concretise,
    is_weak,
    weak_of,
)

CONCRETE = ["int16", "int32", "int64", "float16", "float32", "float64", "complex64"]


# -- promote: the lattice must agree with NumPy exactly --------------------------


@pytest.mark.parametrize("a", CONCRETE)
@pytest.mark.parametrize("b", CONCRETE)
def test_promote_matches_numpy_for_concrete_pairs(a, b):
    assert promote(a, b) == np.promote_types(a, b).name


@pytest.mark.parametrize("dt", CONCRETE)
def test_weak_scalars_adapt_like_nep50(dt):
    """Ground truth is an actual NumPy op: a Python scalar must not promote
    an array operand (NEP 50), except float-scalar-forces-int-inexact."""
    arr = np.ones(1, dtype=dt)
    assert promote(dt, WEAK_INT) == (arr + 2).dtype.name
    assert promote(dt, WEAK_FLOAT) == (arr + 2.5).dtype.name


def test_weak_lattice_elements():
    assert weak_of(2) == WEAK_INT and weak_of(2.5) == WEAK_FLOAT
    assert is_weak(WEAK_INT) and is_weak(WEAK_FLOAT) and not is_weak("float32")
    assert promote(WEAK_INT, WEAK_INT) == WEAK_INT
    assert promote(WEAK_INT, WEAK_FLOAT) == WEAK_FLOAT
    assert concretise(WEAK_FLOAT) == "float64"
    assert concretise("float32") == "float32"


# -- ufunc result rules vs executed ground truth ---------------------------------


@pytest.mark.parametrize("dt", ["int16", "int32", "float16", "float32", "float64"])
@pytest.mark.parametrize("op", ["sin", "cos", "sqrt", "exp"])
def test_transcendentals_match_numpy(dt, op):
    got = ufunc_result(op, [dt])
    truth = getattr(np, op)(np.ones(1, dtype=dt)).dtype.name
    assert got == truth


@pytest.mark.parametrize("a", ["int32", "int64", "float32", "float64"])
@pytest.mark.parametrize("b", ["int32", "float32"])
def test_true_divide_always_inexact(a, b):
    got = ufunc_result("true_divide", [a, b])
    truth = (np.ones(1, dtype=a) / np.ones(1, dtype=b)).dtype.name
    assert got == truth


def test_weak_transcendental_resolves_to_default_float():
    assert ufunc_result("sin", [WEAK_INT]) == np.sin(2).dtype.name == "float64"


def test_chained_ops_match_numpy():
    # float32 * python-float + float64: the float64 leaf wins, nothing else
    x32 = np.ones(1, np.float32)
    x64 = np.ones(1, np.float64)
    acc = ufunc_result("add", [ufunc_result("multiply", ["float32", WEAK_FLOAT]), "float64"])
    assert acc == (x32 * 0.5 + x64).dtype.name == "float64"


# -- expr_dtype: symbolic propagation + promotion chain --------------------------


@pytest.fixture
def grid():
    return Grid(shape=(8, 8))


def test_expr_dtype_names_the_promoting_subexpression(grid):
    u64 = TimeFunction("u", grid, time_order=1, space_order=2, dtype=np.float64)
    v32 = TimeFunction("v", grid, time_order=1, space_order=2, dtype=np.float32)
    expr = 0.5 * v32.indexify() + u64.indexify()
    elem, chain = expr_dtype(expr, lambda a: a.function.dtype)
    assert elem == "float64"
    # the chain records the seed and the step where float64 entered
    assert chain and "float64" in " ".join(chain)
    assert any("u[" in step for step in chain)


def test_expr_dtype_homogeneous_has_no_promotions(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    x = grid.dimensions[0]
    expr = 0.5 * u.indexify() + u.indexify().shift(x, 1)
    elem, chain = expr_dtype(expr, lambda a: a.function.dtype)
    assert elem == "float32"
    # the weak 0.5 adapts to float32; nothing ever promotes past float32
    assert not any("float64" in step for step in chain)


def test_w201_message_names_statement_and_chain(grid):
    u64 = TimeFunction("u", grid, time_order=1, space_order=2, dtype=np.float64)
    v32 = TimeFunction("v", grid, time_order=1, space_order=2, dtype=np.float32)
    diags = lint_equations([Eq(v32.forward, 2.0 * u64.indexify())])
    d = next(d for d in diags if d.code == "W201")
    assert "evaluates to float64" in d.message
    assert "'v' holds float32" in d.message
    assert "promotion chain" in d.message


def test_w201_no_arrays_materialised(grid, monkeypatch):
    """The lattice decides W201 without executing anything: creating any
    ndarray during the check would reintroduce specimen evaluation."""
    u64 = TimeFunction("u", grid, time_order=1, space_order=2, dtype=np.float64)
    v32 = TimeFunction("v", grid, time_order=1, space_order=2, dtype=np.float32)
    eqs = [Eq(v32.forward, u64.indexify())]

    def banned(*a, **k):
        raise AssertionError("W201 must not materialise arrays")

    monkeypatch.setattr(np, "zeros", banned)
    monkeypatch.setattr(np, "empty", banned)
    diags = lint_equations(eqs)
    assert any(d.code == "W201" for d in diags)


# -- audit_slot_dtypes: the lattice and the emitter must agree -------------------


def test_dtype_pass_consistent_on_real_kernel():
    """E203 (lattice vs emitter slotspec disagreement) never fires on a
    shipped fused kernel (acoustic / TTI / elastic x so 4 / 8 / 12), and the
    slot table the audit reads is the one the bound sweep checks its scratch
    slabs out by."""
    from repro.propagators.examples import EXAMPLES, build_example

    for kind in EXAMPLES:
        for so in (4, 8, 12):
            prop, dt = build_example(kind, so=so)
            eng, bound = prop.op._build_sweeps(dt, "fused", True)
            assert eng == "fused"
            for j, sw in enumerate(bound):
                program = sw.compiled.program
                assert program.slots, "a real fused kernel uses scratch slots"
                findings = audit_slot_dtypes(program, sweep=j)
                assert not findings, (kind, so, [f.message for f in findings])
                assert [d for _, d in program.slots] == [
                    np.dtype(d).name for d, _ in sw._slotspec
                ]


def test_dtype_audit_flags_a_slot_the_lattice_types_differently():
    from repro.ir.nodes import TAInstr, TAOperand, TAProgram

    v64 = TAOperand("view", "v0", "float64")
    narrow = TAOperand("slot", "s0", "float32")
    program = TAProgram(
        instrs=(TAInstr("add", (v64, v64), narrow),),
        slots=(("s0", "float32"),),
        views=(("v0", "float64"),),
        outs=(),
    )
    (finding,) = audit_slot_dtypes(program, sweep=3)
    assert (finding.code, finding.severity, finding.sweep) == ("E203", "error", 3)
    assert "float64" in finding.message and "float32" in finding.message
