"""Tests for KernelSpec extraction from symbolic operators."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from paper_model import BROADWELL, GridGeometry, KernelSpec, PerformanceModel  # noqa: E402

from repro.core import WavefrontSchedule  # noqa: E402
from repro.propagators import (  # noqa: E402
    AcousticPropagator,
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
)

SHAPE = (12, 12, 12)


def make_spec(kind, so):
    vp = layered_velocity(SHAPE, 1.5, 3.0, 2)
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.1, delta=0.05, theta=0.3, phi=0.2)
    if kind == "elastic":
        kwargs = dict(rho=2.0, vs=vp / 1.8)
    model = SeismicModel(SHAPE, (10.0,) * 3, vp, nbl=3, space_order=so, **kwargs)
    cls = {"acoustic": AcousticPropagator, "tti": TTIPropagator, "elastic": ElasticPropagator}[kind]
    return KernelSpec.from_operator(cls(model, space_order=so).op)


def test_acoustic_spec_shape():
    spec = make_spec("acoustic", 8)
    assert len(spec.sweeps) == 1
    (sweep,) = spec.sweeps
    assert sweep.radius == 4
    names = {s.name for s in sweep.reads}
    assert names == {"u@0", "u@-1", "m", "damp"}
    u0 = next(s for s in sweep.reads if s.name == "u@0")
    assert u0.radius == 4 and u0.buffers == 3
    assert sweep.writes == 1
    # state: u 3 buffers + m + damp = 5 slices x 4 B
    assert spec.state_bytes_per_point == 20.0
    assert spec.retained_bytes_per_point == 16.0


def test_acoustic_angle_scales_with_order():
    assert make_spec("acoustic", 4).angle == 2
    assert make_spec("acoustic", 12).angle == 6


def test_elastic_spec_two_sweeps():
    spec = make_spec("elastic", 4)
    assert len(spec.sweeps) == 2
    assert [s.radius for s in spec.sweeps] == [2, 2]
    assert spec.angle == 4
    # 9 time fields x 2 buffers + b, lam, mu, damp
    assert spec.state_bytes_per_point == 9 * 2 * 4 + 4 * 4
    v_sweep, tau_sweep = spec.sweeps
    assert v_sweep.writes == 3 and tau_sweep.writes == 6


def test_tti_spec_two_sweeps():
    spec = make_spec("tti", 4)
    assert len(spec.sweeps) == 2
    # temporaries sweep first (radius so//4), update sweep radius so//2
    assert [s.radius for s in spec.sweeps] == [1, 2]
    assert spec.angle == 3


def test_lag_span():
    """The model skews a tile by the last lag of lower()'s own table:
    ``angle*height - radius(first sweep)``, and not at all at height 1."""
    tile = (32, 32)

    def dram_growth(spec, height):
        pm = PerformanceModel(spec, BROADWELL, GridGeometry((64, 64, 64), 10))
        res = pm.evaluate(WavefrontSchedule(tile=tile, height=height))
        untiled = pm.evaluate(WavefrontSchedule(tile=tile, height=1))
        # DRAM traffic is the untiled traffic x (1 + span * sum(1/tile)) / height
        return (res.traffic_bytes_ppt["DRAM"] * height / untiled.traffic_bytes_ppt["DRAM"] - 1.0)

    per_span = sum(1.0 / t for t in tile)
    acoustic = make_spec("acoustic", 4)
    assert dram_growth(acoustic, 4) == pytest.approx(6 * per_span)
    elastic = make_spec("elastic", 4)
    assert dram_growth(elastic, 2) == pytest.approx((2 * 4 - 2) * per_span)


def test_flops_monotone_in_order():
    f4 = make_spec("acoustic", 4).flops_per_point_step
    f12 = make_spec("acoustic", 12).flops_per_point_step
    assert f12 > f4 > 0


def test_flops_ordering_across_kernels():
    """TTI and elastic cost far more per point than acoustic (§III)."""
    a = make_spec("acoustic", 8).flops_per_point_step
    t = make_spec("tti", 8).flops_per_point_step
    e = make_spec("elastic", 8).flops_per_point_step
    assert t > 2 * a
    assert e > 2 * a


def test_concurrency_extraction():
    assert make_spec("acoustic", 4).sweeps[0].concurrency == 1
    elastic = make_spec("elastic", 4)
    assert elastic.sweeps[0].concurrency == 3  # each v-eq reads 3 stress slices


def test_accesses_counts():
    spec = make_spec("acoustic", 4)
    # 13-pt star + u@-1 + m + damp (m twice: update and source scale are
    # separate) -> at least 16 reads + 1 write
    assert spec.accesses_per_step >= 17
