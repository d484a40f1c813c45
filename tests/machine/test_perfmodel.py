"""Tests for the analytical performance model."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from paper_model import (  # noqa: E402
    BROADWELL,
    GridGeometry,
    KernelSpec,
    PerformanceModel,
    SKYLAKE,
    SourceLoad,
)

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule  # noqa: E402

from .test_kernels import make_spec  # noqa: E402

GEO = GridGeometry((512, 512, 512), 100)


@pytest.fixture(scope="module")
def acoustic4():
    return make_spec("acoustic", 4)


@pytest.fixture(scope="module")
def model(acoustic4):
    return PerformanceModel(acoustic4, BROADWELL, GEO, SourceLoad())


def test_spatial_is_dram_bound(model):
    res = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert res.bound == "DRAM"
    assert res.feasible
    assert res.gpoints_s > 0 and res.gflops > 0


def test_traffic_hierarchy_ordering(model):
    """Inner levels move at least as many bytes as outer ones."""
    res = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    t = res.traffic_bytes_ppt
    assert t["L1"] >= t["L2"] >= t["DRAM"] * 0.99


def test_wavefront_cuts_dram_traffic(model):
    base = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    wf = model.evaluate(WavefrontSchedule(tile=(32, 32), height=4))
    assert wf.traffic_bytes_ppt["DRAM"] < 0.6 * base.traffic_bytes_ppt["DRAM"]
    assert wf.time_s < base.time_s


def test_height_one_degenerates_to_spatial(model):
    base = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    wf1 = model.evaluate(WavefrontSchedule(tile=(32, 32), height=1))
    # identical stencil traffic; only the sparse-operator path differs
    # (precomputed vs off-grid), which is sub-percent for one source
    assert wf1.time_s == pytest.approx(base.time_s, rel=0.01)


def test_oversized_tile_infeasible(model):
    wf = model.evaluate(WavefrontSchedule(tile=(2048, 2048), height=16))
    assert not wf.feasible
    # the infeasible penalty makes it no better than the baseline
    base = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert wf.time_s >= base.time_s * 0.99


def test_skew_overhead_grows_with_height(model):
    t16 = model.evaluate(WavefrontSchedule(tile=(16, 16), height=2))
    t16_tall = model.evaluate(WavefrontSchedule(tile=(16, 16), height=12))
    # tiny tile + tall wavefront: skew eats the reuse
    assert t16_tall.traffic_bytes_ppt["L3"] > t16.traffic_bytes_ppt["L3"]


def test_speedup_shrinks_with_space_order():
    sp = {}
    for so in (4, 8, 12):
        pm = PerformanceModel(make_spec("acoustic", so), BROADWELL, GEO, SourceLoad())
        sp[so] = pm.speedup(WavefrontSchedule(tile=(48, 48), height=2))
    assert sp[4] > sp[8] > sp[12] - 1e-9


def test_naive_never_faster_than_blocked(model):
    naive = model.evaluate(NaiveSchedule())
    blocked = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert naive.time_s >= blocked.time_s * 0.999


def test_machines_differ(acoustic4):
    b = PerformanceModel(acoustic4, BROADWELL, GEO, SourceLoad())
    s = PerformanceModel(acoustic4, SKYLAKE, GEO, SourceLoad())
    base_b = b.evaluate(SpatialBlockSchedule(block=(8, 8)))
    base_s = s.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert base_s.gpoints_s > base_b.gpoints_s  # more cores + bandwidth


def test_sparse_overhead_dense_sources(acoustic4):
    dense = SourceLoad(nsources=10**6, npts=5 * 10**7, corners=8,
                       occupied_pencils=250000)
    pm_dense = PerformanceModel(acoustic4, BROADWELL, GEO, dense)
    pm_single = PerformanceModel(acoustic4, BROADWELL, GEO, SourceLoad())
    sched = WavefrontSchedule(tile=(48, 48), height=2)
    assert pm_dense.speedup(sched) < pm_single.speedup(sched)


def test_no_sources_no_overhead(acoustic4):
    pm = PerformanceModel(acoustic4, BROADWELL, GEO, None)
    res = pm.evaluate(SpatialBlockSchedule(block=(8, 8)))
    pm2 = PerformanceModel(acoustic4, BROADWELL, GEO, SourceLoad())
    res2 = pm2.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert res.time_s <= res2.time_s


def test_working_set_scales(model):
    small = model.wavefront_working_set(WavefrontSchedule(tile=(16, 16), height=4))
    big = model.wavefront_working_set(WavefrontSchedule(tile=(64, 64), height=4))
    assert big > small


def test_max_feasible_height(model):
    h_small = model.max_feasible_height((256, 256))
    h_big = model.max_feasible_height((16, 16))
    assert h_big >= h_small >= 1


def test_occupancy_reported(model):
    res = model.evaluate(SpatialBlockSchedule(block=(8, 8)))
    assert set(res.occupancy_ns_ppt) == {"compute", "L1", "L2", "L3", "DRAM"}
    assert res.occupancy_ns_ppt[res.bound] == max(res.occupancy_ns_ppt.values())
