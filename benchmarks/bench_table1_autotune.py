"""Table I — optimal tile/block shapes after autotuning WTB.

Sweeps the full (tile_x, tile_y, block_x, block_y, height) space for every
(kernel, space order, machine) pair, exactly as §IV-C, and reports the
best-performing configuration.  The pytest-benchmark timing measures the
tuner itself (the paper notes the search space is extensive; our model makes
it tractable).
"""

from __future__ import annotations

import pytest

from paper_model import PerformanceModel, tune_wavefront
from paper_setup import KINDS, MACHINES, SPACE_ORDERS, kernel_spec, paper_geometry, single_source_load
from repro.analysis import render_table


def _tune_all():
    rows = []
    best = {}
    for machine in MACHINES:
        for kind in KINDS:
            for so in SPACE_ORDERS:
                pm = PerformanceModel(
                    kernel_spec(kind, so), machine, paper_geometry(kind), single_source_load()
                )
                result = tune_wavefront(pm)
                s, b = result.schedule, result.block
                best[(machine.name, kind, so)] = result
                rows.append(
                    [
                        f"{kind} O({2 if kind != 'elastic' else 1},{so})",
                        machine.name,
                        f"{s.tile[0]}, {s.tile[1]}, {b[0]}, {b[1]}",
                        s.height,
                        f"{result.best.gpoints_s:.2f}",
                        result.best.bound,
                    ]
                )
    return rows, best


@pytest.mark.benchmark(group="table1")
def test_table1_autotune(benchmark, report):
    rows, best = benchmark.pedantic(_tune_all, rounds=1, iterations=1)
    table = render_table(
        ["Problem", "Machine", "tile_x, tile_y, block_x, block_y", "height", "GPts/s", "bound"],
        rows,
        title="TABLE I analogue: optimal tile-block shapes after tuning WTB",
    )
    report("table1_autotune", table)

    # Table I trend: space order 12 tunes to larger tiles than space order 4
    for machine in MACHINES:
        for kind in KINDS:
            t4 = best[(machine.name, kind, 4)].schedule.tile
            t12 = best[(machine.name, kind, 12)].schedule.tile
            assert t12[0] * t12[1] >= t4[0] * t4[1] * 0.5, (
                f"{machine.name}/{kind}: so12 tile {t12} unexpectedly much "
                f"smaller than so4 tile {t4}"
            )
