"""Ablation benches for the design choices DESIGN.md calls out.

1. **Generated NumPy kernels vs tree-walking interpreter** — the executor's
   code-generation fast path (the Devito philosophy applied to our own
   substrate).  Same results, measurably faster.
2. **Compressed (Listing 5) vs uncompressed fused injection (Listing 4)** —
   the iteration-space reduction via ``nnz_mask``/``Sp_SID``.  Modelled at
   paper scale: the uncompressed z2 loop scans every grid point per step,
   the compressed one only the affected pencils (§II-A step 5: "Only the
   necessary iterations in z dimension need to be performed").
3. **Wavefront height sweep** — temporal reuse vs skew overhead, the core
   trade-off the autotuner navigates (modelled).
"""

from __future__ import annotations

import numpy as np
import pytest

from paper_model import BROADWELL, PerformanceModel, SourceLoad
from paper_setup import build_propagator, kernel_spec, paper_geometry, single_source_load
from repro.analysis import render_table
from repro.core import NaiveSchedule, WavefrontSchedule


# -- 1. compiled vs interpreted executor ------------------------------------------------
@pytest.fixture(scope="module")
def small_prop():
    prop = build_propagator("acoustic", 8, shape=(32, 32, 32), nbl=4)
    from repro.propagators import point_source

    dt = prop.critical_dt()
    prop.source = point_source("src", prop.grid, 10, [prop.model.domain_center], f0=0.02, dt=dt)
    prop._op = None
    return prop, dt


#: a wavefront schedule with small tiles: per-box overhead is where kernel
#: generation pays off (whole-grid sweeps are dominated by array arithmetic)
_SCHED = WavefrontSchedule(tile=(8, 8), height=3)


@pytest.mark.benchmark(group="ablation-exec")
def test_compiled_kernels(benchmark, small_prop):
    prop, dt = small_prop

    def run():
        prop.zero_fields()
        prop.op.apply(time_M=6, dt=dt, schedule=_SCHED, engine="fused")

    benchmark(run)


@pytest.mark.benchmark(group="ablation-exec")
def test_interpreted_kernels(benchmark, small_prop):
    prop, dt = small_prop

    def run():
        prop.zero_fields()
        prop.op.apply(time_M=6, dt=dt, schedule=_SCHED, engine="interp")

    benchmark(run)


@pytest.mark.benchmark(group="ablation-exec")
def test_compiled_equals_interpreted(benchmark, small_prop):
    prop, dt = small_prop

    def check():
        prop.forward(nt=6, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
        a = prop.u.interior(6).copy()
        prop.zero_fields()
        prop.op.apply(time_M=6, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid",
                      engine="interp")
        return a, prop.u.interior(6).copy()

    a, b = benchmark.pedantic(check, rounds=1, iterations=1)
    np.testing.assert_array_equal(a, b)


# -- 2. compressed vs uncompressed injection (modelled, Listing 4 vs 5) ----------------------
@pytest.mark.benchmark(group="ablation-compress")
def test_injection_compression_model(benchmark, report):
    spec = kernel_spec("acoustic", 4)
    geo = paper_geometry("acoustic")
    dtype = 4

    def model_overheads():
        rows = []
        for nsrc, label in ((1, "1 source"), (10**4, "10^4 plane sources")):
            load = single_source_load() if nsrc == 1 else SourceLoad(
                nsources=nsrc, npts=8 * nsrc, corners=8, occupied_pencils=4 * nsrc)
            # Listing 4: the fused z2 loop reads SM + SID + src_dcmp gather for
            # EVERY grid point, every timestep
            uncompressed = dtype * 3.0  # SM (u8->word) + SID + field RMW amortised
            # Listing 5: nnz mask per pencil + work only on affected points
            compressed = (
                geo.points / geo.nz * 4.0 + load.npts * (4.0 + dtype * 3.0)
            ) / geo.points
            rows.append([label, f"{uncompressed:.3f}", f"{compressed:.5f}",
                         f"{uncompressed / max(compressed, 1e-12):.0f}x"])
        return rows

    rows = benchmark.pedantic(model_overheads, rounds=1, iterations=1)
    report(
        "ablation_compression",
        render_table(
            ["source load", "Listing 4 B/pt/step", "Listing 5 B/pt/step", "reduction"],
            rows,
            title="Iteration-space compression (Fig. 6): injection overhead per grid point",
        ),
    )
    # the compressed structure must be orders of magnitude cheaper for sparse loads
    assert float(rows[0][1]) > 100 * float(rows[0][2])


# -- 3. wavefront height sweep -------------------------------------------------------------
@pytest.mark.benchmark(group="ablation-height")
def test_height_sweep_model(benchmark, report):
    spec = kernel_spec("acoustic", 4)
    pm = PerformanceModel(spec, BROADWELL, paper_geometry("acoustic"), single_source_load())

    def sweep():
        rows = []
        for h in (1, 2, 3, 4, 6, 8, 12, 16):
            res = pm.evaluate(WavefrontSchedule(tile=(48, 48), height=h), block=(8, 8))
            rows.append([h, f"{res.gpoints_s:.2f}", res.bound,
                         f"{res.traffic_bytes_ppt['DRAM']:.1f}",
                         "yes" if res.feasible else "NO"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_height",
        render_table(
            ["height", "GPts/s", "bound", "DRAM B/pt/step", "fits L3"],
            rows,
            title="Wavefront height trade-off, acoustic so=4 tile 48x48 (Broadwell)",
        ),
    )
    by_h = {r[0]: float(r[1]) for r in rows}
    assert by_h[2] > by_h[1], "some temporal reuse must beat none"
    # DRAM traffic decreases monotonically in height while feasible
    drams = [float(r[3]) for r in rows if r[4] == "yes"]
    assert all(a >= b - 1e-9 for a, b in zip(drams, drams[1:]))
