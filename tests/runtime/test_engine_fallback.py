"""Graceful degradation down the engine ladder: c -> fused -> interp.

A codegen failure must never abort a run that a lower rung can execute
bit-identically; strict mode turns the same failure into a structured error.
Every failure mode of the C rung (no compiler, a failing compiler, an
operation C cannot express bit for bit) is one warning and one fall to
``fused``.  None of these tests needs a working C compiler.
"""

import stat
import warnings

import numpy as np
import pytest

from repro.core import NaiveSchedule, WavefrontSchedule
from repro.errors import EngineCompilationError, EngineFallbackWarning
from repro.ir.pycodegen import clear_kernel_caches
from repro.runtime import break_engine

from ..conftest import make_acoustic_operator, needs_cc, run_and_capture

NT = 8
DT = 0.5


@pytest.fixture(autouse=True)
def cold_bind_table():
    """Each test binds against an empty bind table, as a fresh process does:
    a bind the table serves runs the kernels this process already loaded
    and reaches no compiler (``test_a_served_c_bind_needs_no_compiler``)."""
    clear_kernel_caches()


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
            op.apply(time_M=NT, dt=DT, engine="fused", strict_engine=True)
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
    # the interpreter compiles nothing, so only compiled rungs can be broken
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


# -- the C rung ------------------------------------------------------------------------


def _degrades_to_fused(grid, make=make_acoustic_operator, reason=None, schedule=None):
    """Apply with the default engine: exactly one warning naming c -> fused,
    the reason class on the event, results bit-identical to engine="fused"."""
    from repro.telemetry import Telemetry

    schedule = schedule or NaiveSchedule()
    op, u, m, src, rec = make(grid, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, schedule, engine="fused")
    op2, u2, m2, src2, rec2 = make(grid, nt=NT)
    tel = Telemetry()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = op2.apply(time_M=NT, dt=DT, schedule=schedule, telemetry=tel)
    fallbacks = [w for w in caught if issubclass(w.category, EngineFallbackWarning)]
    assert len(fallbacks) == 1, [str(w.message) for w in fallbacks]
    assert "'c'" in str(fallbacks[0].message)
    assert "degrading to 'fused'" in str(fallbacks[0].message)
    assert plan.sweeps[0].engine == "fused" and tel.meta["engine"] == "fused"
    events = [ev.attrs for ev in tel.events if ev.name == "engine.fallback"]
    assert [(a["failed"], a["degraded_to"]) for a in events] == [("c", "fused")]
    if reason is not None:
        assert events[0]["reason"] == reason
    assert not op2._sweep_cache  # a degraded bind retries the ladder next time
    np.testing.assert_array_equal(u2.interior(NT), ref_u)
    np.testing.assert_array_equal(rec2.data, ref_rec)
    return str(fallbacks[0].message)


def _fake_compiler(directory, body):
    path = directory / "gcc"
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def test_no_compiler_on_path_degrades_to_fused(grid2d, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory
    _degrades_to_fused(grid2d, reason="no-compiler")
    _degrades_to_fused(grid2d, schedule=WavefrontSchedule(tile=(6, 6), height=2))


@needs_cc
def test_a_served_c_bind_needs_no_compiler(grid2d, tmp_path, monkeypatch):
    """A structure this process has bound on the C rung is served its loaded
    sweep function: a compiler gone from ``PATH`` since then is not reached,
    and the second problem runs on ``c`` with the bits of ``fused``."""
    op, *_ = make_acoustic_operator(grid2d, nt=NT)
    op.apply(time_M=NT, dt=DT, engine="c")
    monkeypatch.setenv("PATH", str(tmp_path))  # an empty directory
    op2, u2, _, _, rec2 = make_acoustic_operator(grid2d, nt=NT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        plan = op2.apply(time_M=NT, dt=DT, engine="c", strict_engine=True)
    assert plan.sweeps[0].engine == "c"
    op3, u3, _, _, rec3 = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op3, u3, rec3, NT, DT, NaiveSchedule(), engine="fused")
    np.testing.assert_array_equal(u2.interior(NT), ref_u)
    np.testing.assert_array_equal(rec2.data, ref_rec)


def test_no_compiler_strict_engine_raises(grid2d, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    op, *_ = make_acoustic_operator(grid2d, nt=NT)
    with pytest.raises(EngineCompilationError) as excinfo:
        op.apply(time_M=NT, dt=DT, strict_engine=True)
    assert excinfo.value.engine == "c" and excinfo.value.reason == "no-compiler"
    with pytest.raises(EngineCompilationError):
        op.apply(time_M=NT, dt=DT, engine="c", strict_engine=True)


def test_failing_compiler_degrades_with_its_stderr(grid2d, tmp_path, monkeypatch):
    """A compiler that exits non-zero: its stderr rides the warning."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    _fake_compiler(bindir, "cat > /dev/null; echo 'cc1: fatal: out of cheese' >&2; exit 3")
    monkeypatch.setenv("PATH", str(bindir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    message = _degrades_to_fused(grid2d, reason="build-failed")
    assert "out of cheese" in message and "exited 3" in message
    assert not list((tmp_path / "cache").rglob("*.so"))  # nothing half-published
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def _operator_with_sin(grid, nt=NT):
    """sin(u) stays in the per-point expression: not IEEE correctly rounded,
    so C must not run it."""
    from repro.dsl import Eq
    from repro.dsl.symbols import Call
    from repro.ir import Operator

    op, u, m, src, rec = make_acoustic_operator(grid, nt=nt)
    (eq,) = op.eqs
    return Operator([Eq(eq.lhs, eq.rhs + Call("sin", u.indexify()))], sparse=op.sparse_ops), u, m, src, rec


def test_ineligible_program_degrades_to_fused(grid2d):
    _degrades_to_fused(grid2d, make=_operator_with_sin, reason="ineligible:sin")
    op, *_ = _operator_with_sin(grid2d)
    with pytest.raises(EngineCompilationError, match="sin") as excinfo:
        op.apply(time_M=NT, dt=DT, strict_engine=True)
    assert excinfo.value.engine == "c"
    with pytest.raises(EngineCompilationError):
        op.ccode(DT)


def test_both_compiled_rungs_broken_lands_on_interp(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), engine="interp")
    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("c"), break_engine("fused"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = op2.apply(time_M=NT, dt=DT)
    assert plan.sweeps[0].engine == "interp"
    names = [str(w.message) for w in caught if issubclass(w.category, EngineFallbackWarning)]
    assert len(names) == 2 and "'c'" in names[0] and "'fused'" in names[1]
    np.testing.assert_array_equal(u2.interior(NT), ref_u)
    np.testing.assert_array_equal(rec2.data, ref_rec)


def test_broken_c_build_step_degrades_to_fused(grid2d):
    with break_engine("c"):
        _degrades_to_fused(grid2d, reason="build-failed")


@needs_cc
def test_explicit_fused_after_a_cached_c_bind_binds_fused(grid2d):
    op, *_ = make_acoustic_operator(grid2d, nt=NT)
    assert op.apply(time_M=NT, dt=DT).sweeps[0].engine == "c"
    assert op.apply(time_M=NT, dt=DT, engine="fused").sweeps[0].engine == "fused"
    assert op.apply(time_M=NT, dt=DT).sweeps[0].engine == "c"
    assert set(op._sweep_cache) == {(DT, "c"), (DT, "fused")}
