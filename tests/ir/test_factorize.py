"""The coefficient-collecting factorisation pass (``ir/passes.factorize``).

Property tests over random linear combinations -- numeric and field
coefficients, nested scales, repeated terms, +- pairs -- plus the committed
passes-per-point budget of every shipped propagator sweep.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import Eq, Function, Grid, TimeFunction
from repro.dsl.symbols import Add, Indexed, Mul, Number
from repro.execution.evalbox import BoundSweep
from repro.ir.passes import factorize, factorize_sweep
from repro.propagators.examples import build_example

GRID = Grid(shape=(6, 5), extent=(50.0, 40.0))
U = TimeFunction("u", GRID, time_order=2, space_order=4)
V = TimeFunction("v", GRID, time_order=2, space_order=4)
M = Function("m", GRID, space_order=4)
D = Function("d", GRID, space_order=4)
OUT = TimeFunction("w", GRID, time_order=1, space_order=4)

#: time-varying reads (a stencil's neighbours) and time-invariant model reads
WAVE = [U.indexify().shift("x", s) for s in (-2, -1, 0, 1, 2)] + [
    V.indexify(),
    V.indexify().shift("y", 1),
    U.backward,
]
MODEL = [M.indexify(), D.indexify()]
#: weights as the FD tables give them: few distinct magnitudes, both signs
COEFS = [-2.5, -2, -1, -0.5, 0.5, 1, 1.5, 2, 4 / 3, -4 / 3, 1 / 12, -1 / 12, 0.01]


def _scaled(term):
    return st.builds(Mul, st.sampled_from(COEFS).map(Number), term)


def _pair(term):
    """``c*a - c*b``: the antisymmetric half of a first-derivative stencil."""
    return st.builds(
        lambda c, a, b: Add(Mul(Number(c), a), Mul(Number(-c), b)),
        st.sampled_from(COEFS),
        term,
        term,
    )


def _grow(term):
    return st.one_of(
        _scaled(term),
        st.builds(Mul, st.sampled_from(MODEL + WAVE), term),  # field coefficient
        st.builds(Mul, term, st.sampled_from(MODEL + WAVE)),  # ... trailing
        st.lists(term, min_size=2, max_size=5).map(lambda ts: Add(*ts)),
        _pair(term),
    )


EXPRS = st.recursive(st.sampled_from(WAVE), _grow, max_leaves=24).filter(
    lambda e: bool(e.atoms(Indexed))
)


def _env(expr, seed):
    rng = np.random.default_rng(seed)
    return {
        a: rng.uniform(0.5, 2.0, size=16) * rng.choice([-1.0, 1.0], size=16)
        for a in sorted(expr.atoms(Indexed), key=str)
    }


def _magnitude(expr, env):
    """``expr`` with every weight and operand replaced by its absolute value:
    the scale against which reassociation error is measured."""
    if isinstance(expr, Number):
        return abs(expr.value)
    if isinstance(expr, Indexed):
        return np.abs(env[expr])
    op = operator.add if isinstance(expr, Add) else operator.mul
    return functools.reduce(op, [_magnitude(a, env) for a in expr.args])


def _ninstr(expr):
    sweep = BoundSweep([Eq(OUT.forward, expr)], GRID, engine="fused")
    return len(sweep.compiled.program.instrs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=EXPRS)
def test_idempotent_and_preserves_reads(expr):
    once = factorize(expr)
    assert factorize(once) == once
    assert once.atoms(Indexed) == expr.atoms(Indexed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expr=EXPRS, seed=st.integers(0, 2**16))
def test_float64_agreement(expr, seed):
    env = _env(expr, seed)
    nterms = sum(isinstance(n, Indexed) for n in expr.preorder())
    got = factorize(expr).evaluate(env)
    want = expr.evaluate(env)
    bound = 8 * nterms * np.finfo(np.float64).eps * _magnitude(expr, env)
    assert np.all(np.abs(got - want) <= bound)


def _repeats_a_subtree(expr):
    seen = set()
    for node in expr.preorder():
        if node.children():
            if node in seen:
                return True
            seen.add(node)
    return False


@settings(max_examples=150, deadline=None, derandomize=True)
@given(expr=EXPRS.filter(lambda e: not _repeats_a_subtree(e)))
def test_never_adds_a_kernel_pass(expr):
    """Per tree: an expression that repeats a whole subtree is excluded,
    since CSE evaluates the repeat once and distributing a scale into one
    copy forfeits that sharing.  No shipped sweep loses a pass to this --
    ``test_pass_budget`` holds every one of them to its count."""
    assert _ninstr(factorize(expr)) <= _ninstr(expr)


def test_laplacian_collects_to_three_weights():
    """The motivating case: three 1-D second derivatives sharing ``1/h**2``
    become one centre weight and one multiply per neighbour ring."""
    w = {0: -2.5, 1: 4 / 3, 2: -1 / 12}
    u = U.indexify()
    lap = Add(*[
        Mul(Number(0.01), Add(*[Mul(Number(w[abs(s)]), u.shift(d, s)) for s in range(-2, 3)]))
        for d in ("x", "y")
    ])
    out = factorize(Mul(Number(-1), lap))
    assert isinstance(out, Add) and len(out.args) == 3
    weights = sorted(abs(a.args[0].value) for a in out.args)
    assert weights == pytest.approx([0.01 / 12, 0.01 * 4 / 3, 0.05])
    # the sign went into the constants: no term is a bare negation
    assert all(a.args[0].value != -1 for a in out.args)
    assert _ninstr(out) == 11  # 2 rings x (3 adds + 1 multiply) + centre + 2 adds


def test_scale_rides_on_a_hoisted_factor():
    """``c*m*(a - b)``: the scale stays on the invariant ``m`` (precomputed
    as ``c*m``), and a negative one flips the difference instead, so ``+-c``
    share one hoisted field."""
    a, b = WAVE[0], WAVE[1]
    m = M.indexify()
    pos = factorize(Mul(Number(0.05), m, Add(Mul(Number(0.5), b), Mul(Number(-0.5), a))))
    neg = factorize(Mul(Number(-0.05), m, Add(Mul(Number(0.5), b), Mul(Number(-0.5), a))))
    assert pos == Mul(Number(0.025), m, Add(b, Mul(Number(-1), a)))
    assert neg == Mul(Number(0.025), m, Add(a, Mul(Number(-1), b)))


def test_exact_cancellation_keeps_the_read():
    a, b = WAVE[0], WAVE[1]
    out = factorize(Add(Mul(Number(2), a), b, Mul(Number(-2), a)))
    assert out.atoms(Indexed) == {a, b}


def test_sweep_rewrite_keeps_lhs():
    eq = Eq(OUT.forward, Add(Mul(Number(2), WAVE[0]), Mul(Number(2), WAVE[1])))
    (out,) = factorize_sweep([eq])
    assert out.lhs == eq.lhs
    assert out.rhs == Mul(Number(2), Add(WAVE[0], WAVE[1]))


#: fused-kernel ufunc passes per grid point and sweep: (budget, before the
#: pass).  A kernel change that exceeds a budget is a performance regression
#: of the pass-bound engine (benchmarks/stack/README.md).
PASS_BUDGET = {
    ("acoustic", 4): ([22], [37]),
    ("acoustic", 8): ([36], [61]),
    ("acoustic", 12): ([50], [85]),
    ("tti", 4): ([16, 53], [28, 81]),
    ("tti", 8): ([40, 91], [52, 129]),
    ("tti", 12): ([58, 123], [76, 177]),
    ("elastic", 4): ([48, 77], [84, 99]),
    ("elastic", 8): ([90, 139], [156, 171]),
    ("elastic", 12): ([132, 201], [228, 243]),
}


def _peak_live_scratch(program):
    """Per dtype, the peak number of scratch values alive at once: a value
    lives from the instruction that writes its slot up to (not including)
    its last reader, whose own output may take over the slot in place."""
    values = []  # [dtype, def index, last-use index]
    current = {}  # slot name -> its live value
    for i, instr in enumerate(program.instrs):
        for arg in instr.args:
            if arg.kind == "slot":
                current[arg.name][2] = i
        if instr.out.kind == "slot":
            current[instr.out.name] = [instr.out.dtype, i, i + 1]
            values.append(current[instr.out.name])
    peak = {}
    for k in range(len(program.instrs)):
        live = [dtype for dtype, born, last in values if born <= k < last]
        for dtype in set(live):
            peak[dtype] = max(peak.get(dtype, 0), live.count(dtype))
    return peak


@pytest.mark.parametrize("kind,so", sorted(PASS_BUDGET))
def test_pass_budget(kind, so):
    budget, before = PASS_BUDGET[(kind, so)]
    prop, dt = build_example(kind, so=so)
    _, bound = prop.op._build_sweeps(dt, "fused", True)
    passes = [len(sw.compiled.program.instrs) for sw in bound]
    assert all(p <= b for p, b in zip(passes, budget)), (passes, budget)
    assert all(b <= old for b, old in zip(budget, before))
    # the emitter's refcounting allocator is already minimal: as many slots
    # per dtype as scratch values are ever alive at once, so no liveness
    # re-colouring of its assignment could shrink the pool
    for sw in bound:
        program = sw.compiled.program
        declared = [dtype for _name, dtype in program.slots]
        assert _peak_live_scratch(program) == {d: declared.count(d) for d in set(declared)}
    # the rewrite touches arithmetic only: same reads, same sweep radii
    for raw, eqs in zip(prop.op.sweeps, prop.op.bound_equations(dt)):
        for e0, e1 in zip(raw.eqs, eqs):
            assert e1.rhs.atoms(Indexed) == e0.rhs.atoms(Indexed)
