"""Tests for machine specs and the cache-aware roofline."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from paper_model import (  # noqa: E402
    BROADWELL,
    MACHINES,
    SKYLAKE,
    CacheLevel,
    GridGeometry,
    MachineSpec,
    PerformanceModel,
    SourceLoad,
    render_roofline,
    roofline_points,
)

from repro.core import SpatialBlockSchedule, WavefrontSchedule  # noqa: E402

from .test_kernels import make_spec  # noqa: E402


# -- specs ------------------------------------------------------------------------
def test_paper_cache_sizes():
    """§IV-A: the exact hierarchy the paper describes."""
    assert BROADWELL.l1.size_bytes == 32 * 1024
    assert BROADWELL.l2.size_bytes == 256 * 1024
    assert BROADWELL.l3.size_bytes == 50 * 1024 * 1024
    assert BROADWELL.cores == 8
    assert SKYLAKE.l2.size_bytes == 1024 * 1024
    assert SKYLAKE.l3.size_bytes == int(35.75 * 1024 * 1024)
    assert SKYLAKE.cores == 16


def test_peak_flops():
    # 8 cores * 2.3 GHz * 8 lanes * 4 = 588.8 GF
    assert BROADWELL.peak_gflops == pytest.approx(588.8)
    assert SKYLAKE.peak_gflops > BROADWELL.peak_gflops
    assert BROADWELL.sustained_gflops < BROADWELL.peak_gflops


def test_levels_listing():
    names = [n for n, _ in BROADWELL.levels()]
    assert names == ["L1", "L2", "L3", "DRAM"]


def test_registry():
    assert set(MACHINES) == {"broadwell", "skylake"}


def test_cache_level_validation():
    with pytest.raises(ValueError):
        CacheLevel("bad", 0, 10.0)
    with pytest.raises(ValueError):
        CacheLevel("bad", 1024, -1.0)


def test_effective_bytes():
    lvl = CacheLevel("L", 1000, 10.0, effective_fraction=0.5)
    assert lvl.effective_bytes == 500


# -- roofline ------------------------------------------------------------------------
@pytest.fixture(scope="module")
def points():
    pm = PerformanceModel(
        make_spec("acoustic", 4), BROADWELL,
        GridGeometry((512, 512, 512), 100), SourceLoad(),
    )
    return roofline_points(pm, {
        "spatial": (SpatialBlockSchedule(block=(8, 8)), (8, 8)),
        "wtb": (WavefrontSchedule(tile=(48, 48), height=2), (8, 8)),
    })


def test_roofline_ai_per_level(points):
    sp = next(p for p in points if p.label == "spatial")
    # AI grows toward DRAM (less traffic further out)
    assert sp.ai["DRAM"] > sp.ai["L1"]


def test_wtb_raises_dram_ai(points):
    sp = next(p for p in points if p.label == "spatial")
    wf = next(p for p in points if p.label == "wtb")
    assert wf.ai["DRAM"] > 1.5 * sp.ai["DRAM"]
    assert wf.gflops > sp.gflops


def test_achieved_below_limiting_ceiling(points):
    for p in points:
        _, ceil = p.limiting_ceiling()
        assert p.gflops <= ceil * 1.01


def test_render_roofline(points):
    text = render_roofline(points, machine_name="broadwell")
    assert "broadwell" in text
    assert "AI@DRAM" in text
    assert "spatial" in text and "wtb" in text
