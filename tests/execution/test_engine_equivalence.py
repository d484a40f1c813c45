"""Bit-identical equivalence of the execution engines (``ENGINES``).

The compiled C loop nest, the fused three-address NumPy kernel and the
tree-walking interpreter must produce *exactly* the same wavefields and
receiver traces — same bits, same dtype — for every physics under every
schedule, with off-the-grid sources and receivers attached.  It is the
invariant everything else hangs from: every schedule is bit-identical to
naive *within* a rung, and the rungs are bit-identical to each other.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import Eq, Grid, TimeFunction
from repro.dsl.symbols import Add, Call, Mul, Number, Pow
from repro.execution.evalbox import ENGINES, BoundSweep, full_box
from repro.propagators import (
    AcousticPropagator,
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
    point_source,
    receiver_line,
)

from repro.ir import cgen

from ..conftest import AVAILABLE_ENGINES, make_acoustic_operator, needs_cc, omp_team, run_sweep

SHAPE = (16, 14, 12)
NT = 10
KINDS = ("acoustic", "tti", "elastic")
ORDERS = (4, 8, 12)

#: every compiled rung that can bind here, each compared against the interpreter
COMPILED = AVAILABLE_ENGINES[:-1]


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


def buffers_of(prop):
    return [f.data_with_halo.copy() for f in prop.fields]


def assert_same_bits(got, ref, what=""):
    assert got.dtype == ref.dtype, what
    assert got.shape == ref.shape, what
    np.testing.assert_array_equal(
        got.view(f"u{got.itemsize}"), ref.view(f"u{ref.itemsize}"), err_msg=what
    )


SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(6, 5)),
    "wavefront": WavefrontSchedule(tile=(7, 8), height=3),
}


def test_ladder_is_spelled_once():
    assert ENGINES == ("c", "fused", "interp")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("sched_name", list(SCHEDULES))
def test_engines_bit_identical(kind, sched_name):
    sched = SCHEDULES[sched_name]
    prop, dt = build(kind)
    rec_ref, plan = prop.forward(nt=NT, dt=dt, schedule=sched, engine="interp")
    assert all(s.engine == "interp" for s in plan.sweeps)
    ref = state_of(prop)
    assert max(np.abs(f).max() for f in ref) > 0, "must produce a wavefield"

    for engine in COMPILED:
        rec_got, plan = prop.forward(nt=NT, dt=dt, schedule=sched, engine=engine)
        assert all(s.engine == engine for s in plan.sweeps)
        got = state_of(prop)
        for f_got, f_ref in zip(got, ref):
            assert f_got.dtype == f_ref.dtype
            np.testing.assert_array_equal(f_got, f_ref, err_msg=f"{kind}/{sched_name}/{engine}")
        assert rec_got.dtype == rec_ref.dtype
        np.testing.assert_array_equal(rec_got, rec_ref, err_msg=engine)


def test_engines_bit_identical_precomputed_sparse_naive():
    """Grid-aligned (precomputed) sparse operators under an untiled schedule,
    so the aligned injection/receiver path is compared across engines too."""
    prop, dt = build("acoustic")
    rec_ref, _ = prop.forward(
        nt=NT, dt=dt, schedule=NaiveSchedule(), sparse_mode="precomputed", engine="interp"
    )
    ref = state_of(prop)
    for engine in COMPILED:
        rec_got, _ = prop.forward(
            nt=NT, dt=dt, schedule=NaiveSchedule(), sparse_mode="precomputed", engine=engine
        )
        for f_got, f_ref in zip(state_of(prop), ref):
            np.testing.assert_array_equal(f_got, f_ref, err_msg=engine)
        np.testing.assert_array_equal(rec_got, rec_ref, err_msg=engine)


def test_elastic_sweep_shares_divergence_terms():
    """The stress sweep's shared strain combinations are CSE'd: the fused
    elastic kernel evaluates fewer instructions than the sum of its
    per-equation renderings would."""
    prop, dt = build("elastic")
    plan = prop.op.apply(time_M=1, dt=dt, engine="fused")
    assert all(s.engine == "fused" for s in plan.sweeps)
    stress = max(plan.sweeps, key=len)
    assert len(stress) > 1
    assert stress.compiled.ntemps > 0


# -- the nine shipped operators on the C rung -----------------------------------------


@needs_cc
@pytest.mark.parametrize("so", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_c_schedules_bit_identical_to_naive(kind, so):
    """Within the C rung every schedule equals naive in the same sparse mode
    (same statement order per point => same IEEE results whatever the box):
    wavefields, halos included, and off-the-grid receiver traces."""
    prop, dt = build(kind, so)
    for mode, names in (("precomputed", ("spatial", "wavefront")), ("offgrid", ("spatial",))):
        rec_ref, plan = prop.forward(
            nt=NT, dt=dt, schedule=SCHEDULES["naive"], sparse_mode=mode, engine="c"
        )
        assert all(s.engine == "c" for s in plan.sweeps)
        ref = buffers_of(prop)
        assert max(np.abs(f).max() for f in ref) > 0
        for name in names:
            rec_got, plan = prop.forward(
                nt=NT, dt=dt, schedule=SCHEDULES[name], sparse_mode=mode, engine="c"
            )
            assert all(s.engine == "c" for s in plan.sweeps)
            for f_got, f_ref in zip(buffers_of(prop), ref):
                assert_same_bits(f_got, f_ref, f"{kind} so={so} {name}/{mode}")
            assert_same_bits(rec_got, rec_ref, f"{kind} so={so} {name}/{mode} receivers")


#: blocks on both sides of ``PARALLEL_MIN_POINTS``: a full 16 x 22 x 20 block
#: is 7 040 points, the ones the grid edge or the wavefront skew clips fall
#: below it (they share their run's team, or its calling thread)
THREADED_SCHEDULES = {
    "naive": (NaiveSchedule(), 1),
    "spatial": (SpatialBlockSchedule(block=(16, 22)), 1),
    "wavefront": (WavefrontSchedule(tile=(16, 22), height=3), 3),
}
#: oversubscribed on a one-CPU host, and still the same bits
TEAM = max(2, len(os.sched_getaffinity(0)))


@needs_cc
@pytest.mark.parametrize("so", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_c_matches_fused_after_every_step(kind, so):
    """0 ulp, per sweep output, after every step (every time tile under the
    wavefront) of a short run, under each schedule: three propagators advanced
    in lock-step -- C on a team of threads, C on a team of one, fused -- every
    buffer of every field compared, halos included, and the off-grid
    receivers (a tolerance here would hide a contracted multiply-add)."""
    assert 16 * 22 * 20 >= cgen.PARALLEL_MIN_POINTS > 16 * 22 * 20 // 2
    for name, (sched, stride) in THREADED_SCHEDULES.items():
        props = [build(kind, so) for _ in range(3)]
        dt = props[0][1]
        (a, _), (b, _), (c, _) = props
        for t in range(0, 6, stride):
            for prop, engine, team in ((a, "c", TEAM), (b, "c", 1), (c, "fused", 1)):
                with omp_team(team):
                    plan = prop.op.apply(
                        time_M=t + stride, time_m=t, dt=dt, schedule=sched, engine=engine
                    )
                assert all(s.engine == engine for s in plan.sweeps)
            for ref in (b, c):
                what = f"{kind} so={so} {name} t={t}"
                for fa, fb in zip(a.fields, ref.fields):
                    assert_same_bits(fa.data_with_halo, fb.data_with_halo, f"{what} {fa.name}")
                assert_same_bits(a.receivers.data, ref.receivers.data, f"{what} receivers")
        assert max(np.abs(f.data_with_halo).max() for f in a.fields) > 0


# -- degenerate shapes ----------------------------------------------------------------


def _c_vs_fused(grid, schedule, mode="auto", nt=8, dt=0.5, **opargs):
    """C on a team of threads, C on a team of one and fused: same bits."""
    out = {}
    for engine, team in (("c", TEAM), ("c", 1), ("fused", 1)):
        op, u, m, src, rec = make_acoustic_operator(grid, nt=nt, **opargs)
        u.data_with_halo[...] = 0.0
        with omp_team(team):
            plan = op.apply(time_M=nt, dt=dt, schedule=schedule, sparse_mode=mode, engine=engine)
        assert plan.sweeps[0].engine == engine
        out[engine, team] = (u.data_with_halo.copy(), rec.data.copy() if rec is not None else None)
    for other in (("c", 1), ("fused", 1)):
        assert_same_bits(out["c", TEAM][0], out[other][0])
        if out[other][1] is not None:
            assert_same_bits(out["c", TEAM][1], out[other][1])
    return out["c", TEAM][0]


@needs_cc
@pytest.mark.parametrize("sched_name", list(SCHEDULES))
@pytest.mark.parametrize("ndim", [1, 2])
def test_c_low_rank_grids(ndim, sched_name, grid1d, grid2d):
    grid = {1: grid1d, 2: grid2d}[ndim]
    sched = SCHEDULES[sched_name]
    if ndim == 1:
        sched = {
            "naive": sched,
            "spatial": SpatialBlockSchedule(block=(5,)),
            "wavefront": WavefrontSchedule(tile=(7,), height=3),
        }[sched_name]
    field = _c_vs_fused(grid, sched)
    assert np.abs(field).max() > 0


@needs_cc
@pytest.mark.parametrize("sched_name", list(SCHEDULES))
def test_c_float64(sched_name):
    grid = Grid(shape=(10, 9, 8), extent=(90.0, 80.0, 70.0), dtype=np.float64)
    field = _c_vs_fused(grid, SCHEDULES[sched_name])
    assert field.dtype == np.float64 and np.abs(field).max() > 0


@needs_cc
def test_c_tile_larger_than_grid(grid3d):
    _c_vs_fused(grid3d, WavefrontSchedule(tile=(64, 64), height=5))
    _c_vs_fused(grid3d, SpatialBlockSchedule(block=(64, 64)))


@needs_cc
def test_c_threaded_2d():
    """One leading loop (``collapse(1)``), a grid large enough for the team."""
    grid = Grid(shape=(96, 48), extent=(950.0, 470.0))
    assert 96 * 44 >= cgen.PARALLEL_MIN_POINTS
    for sched in (NaiveSchedule(), SpatialBlockSchedule(block=(96, 44)),
                  WavefrontSchedule(tile=(96, 48), height=3)):
        assert np.abs(_c_vs_fused(grid, sched)).max() > 0


@needs_cc
def test_c_zero_sources(grid3d):
    """No sparse operators at all: the field stays what the stencil makes it."""
    out = {}
    for engine in ("c", "fused"):
        op, u, *_ = make_acoustic_operator(grid3d, src_coords=False, rec_coords=False)
        u.data_with_halo[...] = 0.0
        u.interior(0)[...] = np.random.default_rng(3).normal(size=grid3d.shape).astype(np.float32)
        start = u.data_with_halo.copy()
        plan = op.apply(time_M=6, dt=0.5, schedule=SCHEDULES["wavefront"], engine=engine)
        assert plan.sweeps[0].engine == engine and not plan.injections
        out[engine] = u.data_with_halo.copy()
        assert not np.array_equal(out[engine], start)
    assert_same_bits(out["c"], out["fused"])


def _boxes_on_each_rung(grid, boxes):
    """The wavefield after evaluating *boxes* once each: C on a team of
    threads, C on a team of one, fused."""
    out = []
    for engine, team in (("c", TEAM), ("c", 1), ("fused", 1)):
        op, u, *_ = make_acoustic_operator(grid)
        rng = np.random.default_rng(11)
        u.data_with_halo[...] = rng.normal(size=u.data_with_halo.shape).astype(np.float32)
        (sweep,) = (BoundSweep(eqs, grid, engine=engine) for eqs in op.bound_equations(0.5))
        with omp_team(team):
            for box in boxes:
                run_sweep(sweep, 1, box)
        out.append(u.data_with_halo.copy())
    return out


@needs_cc
def test_c_box_clipped_to_one_point(grid3d):
    threaded, serial, fused = _boxes_on_each_rung(grid3d, (
        ((3, 4), (5, 6), (7, 8)), ((0, 1), (0, 11), (9, 10)), ((11, 12), (10, 11), (0, 10)),
        ((4, 4), (0, 11), (0, 10)),  # empty: a no-op on every rung
    ))
    assert_same_bits(threaded, fused)
    assert_same_bits(serial, fused)


@needs_cc
def test_c_threaded_boxes_around_the_threshold():
    """What a wavefront window clipped by the grid edge looks like to the
    team: one row wide (threads share the ``y`` range alone), one column
    wide, one point per row, and boxes just below / just above
    ``PARALLEL_MIN_POINTS`` — each a run of one step, on the team from the
    threshold up and on the calling thread below it."""
    grid = Grid(shape=(6, 40, 128), extent=(50.0, 390.0, 1270.0))
    row = 40 * 128
    assert row >= cgen.PARALLEL_MIN_POINTS > 31 * 128
    threaded, serial, fused = _boxes_on_each_rung(grid, (
        ((2, 3), (0, 40), (0, 128)),  # one row wide, threaded
        ((1, 2), (0, 31), (0, 128)),  # one row wide, just below the threshold
        ((0, 6), (7, 8), (0, 128)),  # one column wide
        ((0, 6), (0, 40), (127, 128)),  # one point per row
        ((0, 6), (0, 40), (0, 128)),  # the whole grid
        ((5, 6), (39, 40), (0, 128)),  # a single row
    ))
    assert_same_bits(threaded, fused)
    assert_same_bits(serial, fused)


@needs_cc
def test_c_intra_sweep_read_of_an_earlier_write(grid1d):
    """Equation 2 reads what equation 1 just wrote, at radius 0 — the one
    self-dependence a sweep may have, and what makes ``ivdep`` sound."""
    u = TimeFunction("u", grid1d, time_order=1, space_order=2)
    w = TimeFunction("w", grid1d, time_order=1, space_order=2)
    x = grid1d.dimensions[0]
    eqs = [
        Eq(u.forward, u.indexify() * 2.0 + u.indexify().shift(x, 1)),
        Eq(w.forward, u.forward * 3.0 + w.indexify().shift(x, -1)),
    ]
    out = {}
    for engine in ("c", "fused", "interp"):
        rng = np.random.default_rng(2)
        for f in (u, w):
            f.data_with_halo[...] = rng.normal(size=f.data_with_halo.shape).astype(np.float32)
        run_sweep(BoundSweep(eqs, grid1d, engine=engine), 0, full_box(grid1d))
        out[engine] = np.concatenate([u.data_with_halo.ravel(), w.data_with_halo.ravel()])
    assert_same_bits(out["c"], out["fused"])
    assert_same_bits(out["c"], out["interp"])


# -- random eligible programs: the C function against the fused kernel ----------------

_GRID = Grid(shape=(37,), extent=(36.0,))
_FIELDS = [TimeFunction(n, _GRID, time_order=1, space_order=4) for n in "abc"]
_LEAVES = [f.indexify() for f in _FIELDS] + [
    _FIELDS[0].indexify().shift(_GRID.dimensions[0], k) for k in (-2, -1, 1, 2)
]


def _exprs(depth):
    leaf = st.sampled_from(_LEAVES) | st.floats(
        min_value=-4.0, max_value=4.0, allow_nan=False, width=32
    ).map(Number)
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Mul(*p)),
        st.tuples(sub, sub).map(lambda p: Add(p[0], Mul(Number(-1), p[1]))),
        # constants fold on construction: keep 1/0 and sqrt(-1) out of it
        st.tuples(sub, sub.filter(lambda e: not isinstance(e, Number))).map(
            lambda p: Mul(p[0], Pow(p[1], Number(-1)))
        ),
        sub.filter(lambda e: not isinstance(e, Number)).map(lambda e: Call("sqrt", e)),
    )


#: finite float32 bit patterns that stress rounding: subnormals, signed zeros,
#: the extremes, and ordinary values
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38, -3.4028235e38, 1.0]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-8.0, max_value=8.0, width=32),
)


@needs_cc
@settings(max_examples=40, deadline=None)
@given(expr=_exprs(4), data=st.lists(_VALUES, min_size=8, max_size=8), seed=st.integers(0, 2**31))
def test_c_function_matches_fused_kernel_on_random_programs(expr, data, seed):
    if not expr.atoms(type(_LEAVES[0])):
        return  # a constant: nothing to compile
    eq = Eq(_FIELDS[2].forward, expr)
    sweeps = {}
    try:
        for engine in ("c", "fused"):
            sweeps[engine] = BoundSweep([eq], _GRID, engine=engine)
    except Exception as exc:  # an ineligible draw (e.g. a weakly promoted scalar)
        assert getattr(exc, "engine", None) == "c", exc
        return
    out = {}
    with np.errstate(all="ignore"):
        for engine, sweep in sweeps.items():
            rng = np.random.default_rng(seed)
            for f in _FIELDS:
                buf = f.data_with_halo
                buf[...] = rng.choice(np.asarray(data, dtype=np.float32), size=buf.shape)
            run_sweep(sweep, 0, full_box(_GRID))
            out[engine] = _FIELDS[2].data_with_halo.copy()
    assert_same_bits(out["c"], out["fused"], str(expr))
