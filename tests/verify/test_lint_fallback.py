"""The lint gate on a compiled bind rides the engine-degradation ladder."""

import contextlib

import numpy as np
import pytest

import repro.verify.linter as linter_mod
from repro.core import NaiveSchedule
from repro.errors import EngineFallbackWarning, KernelLintError
from repro.ir.pycodegen import clear_kernel_caches
from repro.verify import Diagnostic, LintReport

from ..conftest import AVAILABLE_ENGINES, make_acoustic_operator, run_and_capture

NT = 8
DT = 0.5


@contextlib.contextmanager
def reject_all_kernels(monkeypatch):
    """Make the linter flag every compiled bind with a synthetic error finding.
    Lint verdicts are kept per problem structure in the process-wide bind
    table, so the block starts and ends with an empty one."""

    def failing(bound_sweeps, name="Kernel"):
        return LintReport(
            name=name,
            diagnostics=[
                Diagnostic(
                    "E301",
                    "error",
                    "synthetic: scratch slot s0 read before write",
                    sweep=0,
                )
            ],
        )

    clear_kernel_caches()
    with monkeypatch.context() as m:
        m.setattr(linter_mod, "lint_bound_sweeps", failing)
        try:
            yield
        finally:
            clear_kernel_caches()


def test_lint_rejected_bind_degrades_with_identical_numerics(grid2d, monkeypatch):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), engine="interp")

    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    with reject_all_kernels(monkeypatch):
        with pytest.warns(EngineFallbackWarning, match="'fused'.*degrading to 'interp'"):
            deg_u, deg_rec = run_and_capture(
                op2, u2, rec2, NT, DT, NaiveSchedule(), engine="fused"
            )
    np.testing.assert_array_equal(deg_u, ref_u)
    np.testing.assert_array_equal(deg_rec, ref_rec)


def test_lint_rejected_bind_is_never_cached(grid2d, monkeypatch):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with reject_all_kernels(monkeypatch):
        with pytest.warns(EngineFallbackWarning):
            op.apply(time_M=NT, dt=DT)
        assert not op._sweep_cache  # a degraded bind must retry the ladder
        with pytest.warns(EngineFallbackWarning):
            op.apply(time_M=NT, dt=DT)
        assert not op._sweep_cache
    # the lint gate lifted: the next apply binds the rung it asks for and caches it
    plan = op.apply(time_M=NT, dt=DT, engine="fused")
    assert plan.sweeps[0].engine == "fused"
    assert (float(DT), "fused") in op._sweep_cache


def test_strict_engine_surfaces_lint_diagnostics(grid2d, monkeypatch):
    """The gate sits on every compiled rung: the one asked for is rejected."""
    for engine in AVAILABLE_ENGINES[:-1]:
        op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
        with reject_all_kernels(monkeypatch):
            with pytest.raises(KernelLintError) as excinfo:
                op.apply(time_M=NT, dt=DT, engine=engine, strict_engine=True)
        exc = excinfo.value
        assert exc.engine == engine
        assert exc.diagnostics and exc.diagnostics[0].code == "E301"
        assert "E301" in str(exc)


def test_clean_operator_passes_the_gate(grid2d):
    # the real linter runs on every compiled bind: a clean operator binds the
    # rung it asked for, caches it, and emits no fallback warning
    import warnings

    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        op.apply(time_M=NT, dt=DT, engine="fused")
    assert (float(DT), "fused") in op._sweep_cache
