"""Fig. 11 — cache-aware roofline for isotropic acoustic on Broadwell.

For space orders 4, 8, 12, place the spatially blocked (red markers in the
paper) and temporally blocked (yellow markers) kernels on the cache-aware
roofline: per-level arithmetic intensity and achieved GFLOP/s.  The paper's
claim: the WTB acoustic kernel "breaks the ceiling of the L3 cache" — its
DRAM arithmetic intensity rises enough that the DRAM/L3 ceilings no longer
pin it.
"""

from __future__ import annotations

import pytest

from paper_model import (
    BROADWELL,
    PerformanceModel,
    render_roofline,
    roofline_points,
    tune_spatial,
    tune_wavefront,
)
from paper_setup import kernel_spec, paper_geometry, single_source_load


def _roofline():
    points = []
    for so in (4, 8, 12):
        pm = PerformanceModel(
            kernel_spec("acoustic", so), BROADWELL, paper_geometry("acoustic"), single_source_load()
        )
        spatial = tune_spatial(pm)
        wtb = tune_wavefront(pm)
        schedules = {
            f"acoustic so={so} spatial": (spatial, spatial.block),
            f"acoustic so={so} WTB": (wtb.schedule, wtb.block),
        }
        points.extend(roofline_points(pm, schedules))
    return points


@pytest.mark.benchmark(group="fig11")
def test_fig11_roofline(benchmark, report):
    points = benchmark.pedantic(_roofline, rounds=1, iterations=1)
    report("fig11_roofline", render_roofline(points, machine_name="broadwell"))

    by = {p.label: p for p in points}
    for so in (4, 8, 12):
        spatial = by[f"acoustic so={so} spatial"]
        wtb = by[f"acoustic so={so} WTB"]
        # WTB raises the DRAM arithmetic intensity (less DRAM traffic per flop)
        assert wtb.ai["DRAM"] > spatial.ai["DRAM"], "WTB must raise AI at DRAM"
        # and never loses performance
        assert wtb.gflops >= spatial.gflops * 0.98
    # the headline case: so4 breaks the DRAM/L3 pin
    s4, w4 = by["acoustic so=4 spatial"], by["acoustic so=4 WTB"]
    assert s4.bound == "DRAM", "spatial so4 is memory bound (under the ceiling)"
    assert w4.bound != "DRAM", "WTB so4 breaks through the memory ceiling"
    assert w4.gflops > s4.gflops * 1.3
