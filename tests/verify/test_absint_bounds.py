"""Halo analysis: certificates, counterexamples, the apply-time gate."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import Eq, Grid, TimeFunction
from repro.errors import BoundsProofError, EngineFallbackWarning, KernelLintError
from repro.execution.evalbox import ENGINES
from repro.execution.executors import run_schedule
from repro.ir import Operator, pycodegen
from repro.ir.pycodegen import clear_kernel_caches
from repro.verify import BoundsCertificate, prove_bounds
from ..conftest import ENGINE_PARAMS, make_acoustic_operator


def _bad_operator(shape=(8, 8), so=2, reach=3, name="Bad"):
    """A kernel reading ``reach`` points along x with only ``so`` halo — the
    injected off-by-one(ish) halo violation."""
    grid = Grid(shape=shape, extent=tuple(10.0 * (n - 1) for n in shape))
    u = TimeFunction("u", grid, time_order=1, space_order=so)
    far = u.indexify().shift(grid.dimensions[0], reach)
    return Operator([Eq(u.forward, far)], name=name), u


# -- positive verdicts: certificates hold wherever execution succeeds ------------


@pytest.mark.parametrize("so", [2, 4, 8])
@pytest.mark.parametrize("tile", [(4, 4), (8, 8), (8, 4)])
def test_certificate_holds_wherever_execution_succeeds(so, tile):
    """Property sweep over space order x tile shape: the proof covers every
    schedule, so any concrete run that the executor accepts must also be a
    run the certificate admits."""
    grid = Grid(shape=(14, 12), extent=(130.0, 110.0))
    op, u, *_ = make_acoustic_operator(grid, so=so, src_coords=False, rec_coords=False)
    schedule = WavefrontSchedule(tile=tile, height=2)
    cert = prove_bounds(op)
    assert cert.check(), cert.summary()
    assert cert.counterexample is None and not cert.violations()
    assert cert.min_margin is not None and cert.min_margin >= 0
    # the concrete run the certificate generalises: must execute cleanly
    u.data_with_halo[...] = 0.0
    u.interior(0)[...] = np.random.default_rng(so).normal(size=grid.shape)
    op.apply(time_M=3, dt=1.0, schedule=schedule)
    assert np.isfinite(u.interior(3)).all()


def test_space_margins_are_halo_vs_offset(grid2d):
    """Executors clip every window to the interior, so the margin along each
    dimension reduces to halo +/- offset — independent of tile parameters."""
    op, *_ = make_acoustic_operator(grid2d, so=4)
    cert = prove_bounds(op)
    assert cert.checks
    for c in cert.checks:
        assert c.margin_lo == c.halo + c.offset
        assert c.margin_hi == c.halo - c.offset
        assert abs(c.offset) <= c.halo
    # the tightest margin comes from the widest stencil reach
    assert cert.min_margin == min(min(c.margin_lo, c.margin_hi) for c in cert.checks)


def test_certificate_roundtrip_and_tamper(grid2d):
    op, *_ = make_acoustic_operator(grid2d)
    cert = prove_bounds(op)
    d = cert.to_dict()
    assert d["safe"] is True
    assert json.loads(json.dumps(d)) == d  # the verify CLI's record
    # a tampered margin must fail re-validation without re-running analysis
    bad = dataclasses.replace(cert.checks[0], margin_hi=-1)
    tampered = dataclasses.replace(cert, checks=(bad, *cert.checks[1:]))
    assert isinstance(tampered, BoundsCertificate) and not tampered.check()


def test_certificates_cached_per_schedule_family(grid2d):
    """One family — every schedule — so one certificate per problem
    structure, whatever arguments the (frozen) stack benchmark passes."""
    clear_kernel_caches()  # a cold bind table: this operator proves
    op, *_ = make_acoustic_operator(grid2d)
    cert = op.bounds_certificate_for()
    wf = WavefrontSchedule(tile=(8, 8), height=2)
    assert op.bounds_certificate_for(wf, "precomputed") is cert
    assert op.bounds_certificate_for(NaiveSchedule()) is cert
    assert op.analyzer_seconds > 0.0
    # legality certificates share the table without colliding with it
    assert op.certificate_for(wf) is op.certificate_for(wf) is not cert
    assert set(pycodegen._BIND_CACHE) == {
        (op.signature, "bounds"), (op.signature, "legality", wf.key(), "precomputed")
    }
    assert pycodegen._BIND_CACHE[op.signature, "bounds"] is cert


# -- negative verdicts: counterexample matches the runtime error -----------------


def test_refuted_family_names_concrete_counterexample():
    op, _ = _bad_operator()
    cert = prove_bounds(op)
    assert not cert.check()
    ce = cert.counterexample
    assert ce is not None
    # the violated margin: margin_hi = halo - offset = 2 - 3 = -1
    violations = cert.violations()
    assert len(violations) == 1
    bad = violations[0]
    assert (bad.function, bad.dim, bad.offset) == ("u", "x", 3)
    assert bad.margin_lo == 5 and bad.margin_hi == -1
    # concrete minimal instance on the operator's own grid: the escaping
    # point is the last interior x, and the flattened padded index is just
    # past the padded extent — off by exactly the violated margin
    assert ce.function == "u" and ce.dim == "x" and ce.offset == 3
    assert ce.instance.t == 0
    assert ce.index[0] == ce.extent[0] + bad.margin_hi * -1 - 1
    assert ce.index[0] >= ce.extent[0]
    assert "margin_hi" in ce.reason


def test_counterexample_matches_runtime_failure():
    """The statically predicted out-of-bounds access is the real one: with
    apply's gate bypassed (a bare bind), execution fails on that access."""
    op, _ = _bad_operator()
    cert = prove_bounds(op)
    assert not cert.check()
    plan = op._bind(0.1, NaiveSchedule(), "auto", engine="interp")
    with pytest.raises(ValueError, match="broadcast"):
        run_schedule(plan, 0, 1, NaiveSchedule())


SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(4, 4)),
    "wavefront": WavefrontSchedule(tile=(8, 8), height=2),
}


def _randomised(u):
    u.data_with_halo[...] = np.random.default_rng(0).normal(size=u.data_with_halo.shape)
    return u.data_with_halo.tobytes()


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("reach", [3, -3], ids=["past-upper", "past-lower"])
def test_halo_gate_rejects_on_every_engine_and_schedule(reach, engine, schedule, strict):
    """reach = ±(halo + 1): a structured error before timestep 0 on the whole
    matrix — no rung is tried (no fallback warning), no cell is written."""
    op, u = _bad_operator(shape=(16, 16), so=2, reach=reach)
    before = _randomised(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        with pytest.raises(BoundsProofError, match="E101") as err:
            op.apply(
                time_M=2, dt=0.1, engine=engine,
                schedule=SCHEDULES[schedule], strict_engine=strict,
            )
    assert isinstance(err.value, KernelLintError)
    ce = err.value.counterexample
    assert (ce.function, ce.dim, ce.offset) == ("u", "x", reach)
    assert not err.value.certificate.check()
    assert u.data_with_halo.tobytes() == before
    assert not op._sweep_cache  # nothing was bound


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("engine", ENGINE_PARAMS)
@pytest.mark.parametrize("reach", [1, 2], ids=["inside", "at-halo"])
def test_halo_gate_admits_reach_up_to_the_halo(reach, engine, schedule, strict):
    op, u = _bad_operator(shape=(16, 16), so=2, reach=reach)
    _randomised(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        op.apply(
            time_M=2, dt=0.1, engine=engine,
            schedule=SCHEDULES[schedule], strict_engine=strict,
        )
    assert op.bounds_certificate_for().min_margin == 2 - reach


def test_wavefront_apply_rejects_hard_before_execution():
    op, u = _bad_operator(shape=(16, 16))
    wf = WavefrontSchedule(tile=(8, 8), height=2)
    with pytest.raises(BoundsProofError) as err:
        op.apply(time_M=2, dt=0.1, schedule=wf)
    assert err.value.counterexample is not None
    assert not np.any(u.data)


def test_injected_off_by_one_margin_is_minus_one():
    """reach = halo + 1 is the tightest possible violation: exactly one
    point escapes, and the certificate says so."""
    for so in (2, 4):
        op, _ = _bad_operator(so=so, reach=so + 1, name=f"OffByOne{so}")
        cert = prove_bounds(op)
        assert not cert.check()
        assert min(c.margin_hi for c in cert.violations()) == -1
        with pytest.raises(BoundsProofError):
            op.apply(time_M=1, dt=0.1, engine="interp")


# -- golden rendering ------------------------------------------------------------

GOLDEN_RENDER = """\
Halo certificate
quantity         value
---------------  ------
operator         Golden
safe             True
checks           3
min halo margin  1
halos            u=2"""


def test_golden_certificate_rendering():
    from repro.analysis.report import render_bounds_certificate

    grid = Grid(shape=(8,), extent=(70.0,))
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    op = Operator([Eq(u.forward, 0.5 * u.dx)], name="Golden")
    cert = op.bounds_certificate_for()
    got = [line.rstrip() for line in render_bounds_certificate(cert).splitlines()]
    assert got == GOLDEN_RENDER.splitlines()


def test_refuted_rendering_shows_counterexample_and_margins():
    from repro.analysis.report import render_bounds_certificate

    op, _ = _bad_operator()
    out = render_bounds_certificate(prove_bounds(op))
    assert "counterexample:" in out
    assert "violated margins:" in out
    assert "u[x+3]" in out and "margin_hi=-1" in out
