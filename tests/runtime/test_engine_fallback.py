"""Graceful degradation down the engine ladder: fused -> interp.

A codegen failure must never abort a run that a lower rung can execute
bit-identically; strict mode turns the same failure into a structured error.
"""

import warnings

import numpy as np
import pytest

from repro.core import NaiveSchedule, WavefrontSchedule
from repro.errors import EngineCompilationError, EngineFallbackWarning
from repro.runtime import break_engine

from ..conftest import make_acoustic_operator, run_and_capture

NT = 8
DT = 0.5


def test_broken_fused_degrades_to_interp_with_identical_numerics(grid2d):
    """Straight to the oracle rung: one warning, one ``engine.fallback``
    event, receivers bit-identical to ``engine="interp"``."""
    from repro.telemetry import Telemetry

    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), engine="interp")

    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    tel = Telemetry()
    with break_engine("fused"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            op2.apply(time_M=NT, dt=DT, engine="fused", telemetry=tel)
    deg_u, deg_rec = u2.interior(NT).copy(), rec2.data.copy()
    fallbacks = [w for w in caught if issubclass(w.category, EngineFallbackWarning)]
    assert len(fallbacks) == 1
    assert "'fused'" in str(fallbacks[0].message)
    assert "degrading to 'interp'" in str(fallbacks[0].message)
    events = [ev.attrs for ev in tel.events if ev.name == "engine.fallback"]
    assert [(a["failed"], a["degraded_to"]) for a in events] == [("fused", "interp")]
    assert tel.counters["engine_fallbacks"] == 1
    np.testing.assert_array_equal(deg_u, ref_u)
    np.testing.assert_array_equal(deg_rec, ref_rec)


def test_strict_engine_raises_structured_error(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("fused"):
        with pytest.raises(EngineCompilationError) as excinfo:
            op.apply(time_M=NT, dt=DT, strict_engine=True)
    assert excinfo.value.engine == "fused"


def test_interp_has_no_fallback(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("fused"):
        # the interpreter compiles nothing: unaffected by broken codegen
        run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), engine="interp")


def test_degraded_bind_is_not_cached(grid2d):
    """After the codegen recovers, the next apply must get fused back."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("fused"):
        with pytest.warns(EngineFallbackWarning):
            plan = op.apply(time_M=NT, dt=DT, engine="fused")
    assert plan.sweeps[0].engine == "interp"
    assert not op._sweep_cache
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        plan = op.apply(time_M=NT, dt=DT, engine="fused")
    assert plan.sweeps[0].engine == "fused"
    assert op._sweep_cache


def test_fallback_works_under_wavefront(grid2d):
    schedule = WavefrontSchedule(tile=(6, 6), height=2)
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(
        op, u, rec, NT, DT, schedule, sparse_mode="precomputed", engine="interp"
    )
    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("fused"):
        with pytest.warns(EngineFallbackWarning):
            deg_u, deg_rec = run_and_capture(
                op2, u2, rec2, NT, DT, schedule, sparse_mode="precomputed",
                engine="fused",
            )
    np.testing.assert_array_equal(deg_u, ref_u)
    np.testing.assert_array_equal(deg_rec, ref_rec)


def test_break_engine_rejects_unknown_rung():
    # the interpreter compiles nothing, so only the fused rung can be broken
    for rung in ("jit", "kernel", "interp"):
        with pytest.raises(ValueError, match="fused"):
            with break_engine(rung):
                pass


def test_unbound_symbol_error_is_not_swallowed(grid2d):
    """Equation validation failures are not engine failures: the ladder must
    let them propagate instead of retrying lower rungs."""
    from repro.dsl import Eq, Grid, Symbol, TimeFunction
    from repro.ir import Operator

    grid = Grid(shape=(8, 8), extent=(70.0, 70.0))
    v = TimeFunction("v", grid, time_order=1, space_order=2)
    op = Operator([Eq(v.forward, v + Symbol("mystery"))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        with pytest.raises(ValueError, match="mystery"):
            op.apply(time_M=2, dt=0.5)
