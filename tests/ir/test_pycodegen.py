"""Tests for the generated-NumPy-kernel fast path."""

import weakref

import numpy as np
import pytest

from repro.core import NaiveSchedule, WavefrontSchedule
from repro.dsl import Eq, Function, Grid, TimeFunction, solve
from repro.dsl.symbols import Call, Indexed, Number, Pow, Symbol
from repro.execution.evalbox import BoundEq, BoundSweep, full_box
from repro.ir.pycodegen import ScratchPool, compile_sweep

from ..conftest import AVAILABLE_ENGINES, make_acoustic_operator, run_and_capture


class DummyFunc:
    def __init__(self, name):
        self.name = name


def _access(name, shift=0):
    return Indexed(DummyFunc(name), {Symbol("x"): shift})


def _compile(expr, reads):
    """One-equation fused kernel ``o[x] = expr`` over float64 operands."""
    dtypes = [np.float64] * len(reads)
    return compile_sweep([_access("o")], [expr], reads, dtypes, [np.float64])


def _run(kernel, *views):
    out = np.zeros_like(views[0])
    slots = tuple(np.empty_like(out, dtype=dt) for dt, _ in kernel.__slotspec__)
    kernel(slots, (out,), views)
    return out


def test_render_basic():
    a, b = _access("a"), _access("b", 1)
    kernel = _compile(a * 2 + b, [a, b])
    assert "def _kernel" in kernel.__source__
    np.testing.assert_array_equal(
        _run(kernel, np.full(4, 3.0), np.full(4, 4.0)), np.full(4, 10.0)
    )


def test_render_pow_and_div():
    a = _access("a")
    assert "np.divide(_c0, v0" in _compile(Pow(a, Number(-1)), [a]).__source__
    cube = _compile(Pow(a, Number(3)), [a])
    assert cube.__source__.count("np.multiply(") == 2 and "power" not in cube.__source__
    np.testing.assert_array_equal(_run(cube, np.arange(4.0)), [0, 1, 8, 27])


def test_render_calls():
    a = _access("a")
    assert "np.cos(v0, " in _compile(Call("cos", a), [a]).__source__
    with pytest.raises(ValueError, match="unsupported call"):
        _compile(Call("erf", a), [a])


def test_render_rejects_unbound_symbol():
    with pytest.raises(ValueError, match="unbound"):
        _compile(Symbol("dt") * _access("a"), [_access("a")])


def test_compiled_matches_interpreted_boundeq(grid3d):
    u = TimeFunction("u", grid3d, time_order=2, space_order=8)
    m = Function("m", grid3d, space_order=8)
    rng = np.random.default_rng(0)
    m.data = 0.4 + 0.1 * rng.random(grid3d.shape)
    eq = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    from repro.dsl.symbols import Number as N

    subs = {Symbol("dt"): N(0.5)}
    subs.update({d.spacing: N(h) for d, h in zip(grid3d.dimensions, grid3d.spacing)})
    eq = eq.subs(subs)

    init = rng.normal(size=grid3d.shape).astype(np.float32)
    u.interior(0)[...] = init
    BoundSweep([eq], grid3d, engine="fused").evaluate(0, full_box(grid3d))
    compiled = u.interior(1).copy()

    u.data_with_halo[...] = 0
    u.interior(0)[...] = init
    BoundEq(eq, grid3d).evaluate(0, full_box(grid3d))
    np.testing.assert_array_equal(u.interior(1), compiled)


def test_operator_compiled_flag_end_to_end(grid3d):
    """The compiled (fused, default) engine against ``engine="interp"``."""
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=8)
    sched = WavefrontSchedule(tile=(5, 5), height=4)
    a = run_and_capture(op, u, rec, 8, 1.0, sched)
    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid3d, nt=8)

    def run_interp():
        u2.data_with_halo[...] = 0
        rec2.data[...] = 0
        op2.apply(time_M=8, dt=1.0, schedule=sched, engine="interp")
        return u2.interior(8).copy(), rec2.data.copy()

    b = run_interp()
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_float32_output_preserved(grid3d):
    u = TimeFunction("u", grid3d, time_order=1, space_order=2)
    eq = Eq(u.forward, u.indexify() * 0.123456789)
    for engine in ("fused", "interp"):
        u.interior(0)[...] = 1.0
        BoundSweep([eq], grid3d, engine=engine).evaluate(0, full_box(grid3d))
        assert u.interior(1).dtype == np.float32


# -- caches / the fused sweep engine ---------------------------------------------


def _bound_acoustic_eq(grid, dt=0.5, so=2):
    u = TimeFunction("u", grid, time_order=2, space_order=so)
    m = Function("m", grid, space_order=so)
    eq = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    subs = {Symbol("dt"): Number(dt)}
    subs.update({d.spacing: Number(h) for d, h in zip(grid.dimensions, grid.spacing)})
    return eq.subs(subs), u, m


def test_compile_sweep_golden_source(grid1d):
    """The exact source of a representative (1-D acoustic so=2) update:
    prebound constants, in-place slot reuse, the last instruction stored
    straight into the output view."""
    eq, _, _ = _bound_acoustic_eq(grid1d)
    sweep = BoundSweep([eq], grid1d, engine="fused")
    assert sweep._kernel.__source__ == (
        "def _kernel(slots, outs, views):\n"
        "    (s0, s1,) = slots\n"
        "    (o0,) = outs\n"
        "    (v0, v1, v2, v3, v4, v5,) = views\n"
        "    np.multiply(_c0, v4, s0)\n"
        "    np.add(s0, v5, s1)\n"
        "    np.multiply(v0, s1, s1)\n"
        "    np.add(v3, s0, s0)\n"
        "    np.add(s0, v2, s0)\n"
        "    np.multiply(_c1, s0, s0)\n"
        "    np.add(s1, s0, s0)\n"
        "    np.multiply(_c2, s0, s0)\n"
        "    np.multiply(s0, v1, o0)\n"
    )
    assert [str(r) for r in sweep.reads] == [
        "__inv0[x]", "__inv1[x]", "u[t, x+1]", "u[t, x-1]", "u[t, x]", "u[t-1, x]",
    ]
    assert [str(hf.expr) for hf in sweep.hoisted_fields] == ["4*m[x]", "(4*m[x])**(-1)"]
    # the compile() filename is the plain string, not an f-string artefact
    assert sweep._kernel.__code__.co_filename == "<repro-fused-kernel>"


def test_rhs_cache_hit_rebinds_fresh_reads(grid1d):
    """A kernel-cache hit must bind the caller's accesses, not the cached ones.

    Indexed equality is structural, so a hit can come from an equation over
    different (same-named) Function objects; binding the cached accesses
    would silently point the views at the stale arrays.
    """
    eq, u, _ = _bound_acoustic_eq(grid1d)
    first = BoundSweep([eq], grid1d, engine="fused")
    eq2, u2, m2 = _bound_acoustic_eq(grid1d)
    second = BoundSweep([eq2], grid1d, engine="fused")
    assert second._kernel is first._kernel  # same structure: one compiled kernel
    funcs = {a.function.name: a.function for a in (*second.reads, *second.writes)}
    assert funcs["u"] is u2 and funcs["u"] is not u
    m2.data = 0.5
    u2.interior(0)[...] = 1.0
    second.evaluate(0, full_box(grid1d))
    assert u2.interior(1).any() and not u.interior(1).any()


@pytest.mark.parametrize("engine", [e for e in AVAILABLE_ENGINES if e != "interp"])
def test_kernel_cache_does_not_pin_a_dropped_propagators_fields(engine):
    """The process-wide kernel cache outlives every operator; its keys hold
    names and offsets, so a dropped propagator's arrays are freed as soon as
    it is dropped: no ``clear_kernel_caches()``, and no cycle left for
    ``gc.collect()``."""
    from repro.ir.pycodegen import clear_kernel_caches, kernel_cache_stats
    from repro.propagators.examples import build_example

    def shot():
        prop, dt = build_example("acoustic")
        prop.forward(nt=4, dt=dt, engine=engine)
        return weakref.ref(prop.u._data), weakref.ref(prop.model.m._data)

    clear_kernel_caches()  # a cold bind: this propagator's sweeps make the keys
    refs = shot()
    assert kernel_cache_stats()["sweep_entries"] > 0
    assert all(ref() is None for ref in refs)


def test_scratch_pool_reuse_and_identity():
    pool = ScratchPool()
    f32 = np.dtype(np.float32)
    a = pool.slab_view((4, 3), f32, 0)
    b = pool.slab_view((4, 3), f32, 1)
    assert a.shape == (4, 3) and a.dtype == np.float32
    assert not np.shares_memory(a, b)  # distinct slots never alias
    # stable across calls, and every smaller shape is a prefix of the same slab
    assert np.shares_memory(pool.slab_view((4, 3), f32, 0), a)
    assert np.shares_memory(pool.slab_view((2, 5), f32, 0), a)
    assert not np.shares_memory(pool.slab_view((4, 3), np.dtype(np.float64), 0), a)
    assert len(pool) == 3 and pool.nbytes() == 2 * 48 + 96
    # a larger box grows the slab geometrically; no new slab appears
    assert pool.slab_view((5, 3), f32, 0).shape == (5, 3)
    assert len(pool) == 3 and pool.nbytes() == 24 * 4 + 48 + 96
    pool.clear()
    assert len(pool) == 0


def test_fused_sweep_kernel_structure(grid3d):
    """The fused kernel is three-address: every op writes into out= and the
    final instruction stores directly into the output view."""
    eq, u, m = _bound_acoustic_eq(grid3d, so=4)
    sweep = BoundSweep([eq], grid3d, engine="fused")
    src = sweep._kernel.__source__
    assert src.startswith("def _kernel(slots, outs, views):")
    body = [l.strip() for l in src.splitlines()[1:] if l.strip()]
    computes = [l for l in body if l.startswith("np.")]
    # three-address form: every instruction's final (positional out) argument
    # is a scratch slot or an output view
    assert computes and all(
        l.rsplit(", ", 1)[1].rstrip(")").startswith(("s", "o")) for l in computes
    )
    # the last compute writes straight into the output view (no copy store)
    assert computes[-1].endswith(", o0)")
    assert not any(l.startswith("o0[...] = ") for l in body)
    # scratch checkout happens once per (t, box) binding, driven by the spec
    spec = sweep._kernel.__slotspec__
    assert len(spec) == sweep._kernel.__nslots__
    assert all(isinstance(dt, np.dtype) for dt, _ in spec)
    # no full-size temporaries: slot count stays far below instruction count
    assert 0 < sweep._kernel.__nslots__ <= 8 < len(computes)


def test_fused_sweep_cache_and_view_cache(grid3d):
    from repro.ir.pycodegen import kernel_cache_stats

    eq, u, m = _bound_acoustic_eq(grid3d)
    s1 = BoundSweep([eq], grid3d, engine="fused")
    before = kernel_cache_stats()
    s2 = BoundSweep([eq], grid3d, engine="fused")
    assert s2._kernel is s1._kernel
    assert kernel_cache_stats()["sweep_hits"] == before["sweep_hits"] + 1

    rng = np.random.default_rng(5)
    u.interior(0)[...] = rng.normal(size=grid3d.shape).astype(np.float32)
    m.data = 0.5
    box = full_box(grid3d)
    s1.evaluate(0, box)
    got = u.interior(1).copy()
    # time-congruent revisit hits the view cache (period = 3 buffers)
    assert (0 % s1._period, box) in s1._view_cache
    s1.evaluate(3, box)
    np.testing.assert_array_equal(u.interior(4), got)
    assert len(s1._view_cache) == 1


def test_fused_sweep_intra_sweep_dependency(grid1d):
    """Equation 2 of a sweep reads what equation 1 just wrote (radius 0)."""
    u = TimeFunction("u", grid1d, time_order=1, space_order=2)
    w = TimeFunction("w", grid1d, time_order=1, space_order=2)
    e1 = Eq(u.forward, u.indexify() * 2.0)
    e2 = Eq(w.forward, u.forward * 3.0)  # reads u[t+1], written by e1
    for engine in ("fused", "interp"):
        u.data_with_halo[...] = 0
        w.data_with_halo[...] = 0
        u.interior(0)[...] = 1.5
        BoundSweep([e1, e2], grid1d, engine=engine).evaluate(0, full_box(grid1d))
        np.testing.assert_array_equal(u.interior(1), np.full(grid1d.shape, 3.0, np.float32))
        np.testing.assert_array_equal(w.interior(1), np.full(grid1d.shape, 9.0, np.float32))


def test_engine_rejects_unknown(grid1d):
    u = TimeFunction("u", grid1d, time_order=1, space_order=2)
    with pytest.raises(ValueError, match="unknown engine"):
        BoundSweep([Eq(u.forward, u.indexify())], grid1d, engine="jit")


def test_fused_kernel_hoists_model_division(grid3d):
    """dt^2/m is precomputed once per bind: the hot kernel has no divide."""
    eq, u, m = _bound_acoustic_eq(grid3d, so=4)
    sweep = BoundSweep([eq], grid3d, engine="fused")
    src = sweep._kernel.__source__
    assert "divide" not in src and "power" not in src
    assert len(sweep.hoisted_fields) >= 1
    assert all(hf.name.startswith("__inv") for hf in sweep.hoisted_fields)
    assert any(a.function.name.startswith("__inv") for a in sweep.reads)


def test_negation_folds_into_subtract(grid1d):
    """a + (-1)*b compiles to np.subtract (bit-identical, one op cheaper)."""
    u = TimeFunction("u", grid1d, time_order=1, space_order=2)
    w = TimeFunction("w", grid1d, time_order=1, space_order=2)
    eq = Eq(u.forward, w.indexify() + Number(-1) * u.indexify())
    sweep = BoundSweep([eq], grid1d, engine="fused")
    src = sweep._kernel.__source__
    assert "np.subtract(" in src
    assert "np.multiply(-1" not in src
    rng = np.random.default_rng(3)
    u.interior(0)[...] = rng.normal(size=grid1d.shape).astype(np.float32)
    w.interior(0)[...] = rng.normal(size=grid1d.shape).astype(np.float32)
    sweep.evaluate(0, full_box(grid1d))
    np.testing.assert_array_equal(
        u.interior(1), w.interior(0) + np.float32(-1) * u.interior(0)
    )


def test_model_mutation_between_applies_is_observed(grid3d):
    """Cached bound sweeps see a model mutated between applies: ``fused``
    re-materialises its hoisted model terms, ``c`` reads the model live."""
    from repro.ir.operator import Operator

    u = TimeFunction("u", grid3d, time_order=2, space_order=4)
    m = Function("m", grid3d, space_order=4)
    eq = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    rng = np.random.default_rng(9)
    init = rng.normal(size=grid3d.shape).astype(np.float32)

    def run(op, mval, engine):
        u.data_with_halo[...] = 0
        u.interior(0)[...] = init
        m.data = mval
        op.apply(time_M=2, dt=0.5, engine=engine)
        return u.interior(2).copy()

    ref = run(Operator([eq]), 3.0, "interp")
    for engine in AVAILABLE_ENGINES[:-1]:
        op = Operator([eq])
        first = run(op, 1.5, engine)
        second = run(op, 3.0, engine)  # same cached sweeps, mutated model
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(second, ref, err_msg=engine)
