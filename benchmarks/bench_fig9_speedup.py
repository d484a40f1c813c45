"""Fig. 9 — throughput speedup of WTB over tuned spatially-blocked code.

One sub-benchmark per machine (Fig. 9a Broadwell, Fig. 9b Skylake): for every
kernel and space order, tune both the spatial baseline and the wavefront
schedule on the paper-scale geometry and report the throughput ratio, with
the paper's measured speedups alongside.
"""

from __future__ import annotations

import pytest

from paper_model import BROADWELL, SKYLAKE, PerformanceModel, tune_spatial, tune_wavefront
from paper_setup import (
    KINDS,
    PAPER_SPEEDUPS,
    SPACE_ORDERS,
    kernel_spec,
    paper_geometry,
    single_source_load,
)
from repro.analysis import render_speedup_bars, render_table


def _speedups(machine):
    out = []
    for kind in KINDS:
        for so in SPACE_ORDERS:
            pm = PerformanceModel(
                kernel_spec(kind, so), machine, paper_geometry(kind), single_source_load()
            )
            base_sched = tune_spatial(pm)
            tuned = tune_wavefront(pm)
            base = pm.evaluate(base_sched)
            wf = pm.evaluate(tuned.schedule, tuned.block)
            out.append(
                dict(
                    kind=kind,
                    so=so,
                    speedup=base.time_s / wf.time_s,
                    base_gpts=base.gpoints_s,
                    wf_gpts=wf.gpoints_s,
                    paper=PAPER_SPEEDUPS[(machine.name, kind)][so],
                )
            )
    return out


def _report(machine, rows, report, tag):
    table = render_table(
        ["kernel", "space order", "spatial GPts/s", "WTB GPts/s", "speedup", "paper speedup"],
        [
            [r["kind"], r["so"], f"{r['base_gpts']:.2f}", f"{r['wf_gpts']:.2f}",
             f"{r['speedup']:.2f}x", f"{r['paper']:.2f}x"]
            for r in rows
        ],
        title=f"Fig. 9{tag}: WTB speedup over spatially-blocked baseline — {machine.name}",
    )
    bars = render_speedup_bars(
        [f"{r['kind']} so={r['so']}" for r in rows],
        [r["speedup"] for r in rows],
    )
    report(f"fig9{tag}_speedup_{machine.name}", table + "\n\n" + bars)

    # shape assertions: the paper's qualitative claims
    by = {(r["kind"], r["so"]): r["speedup"] for r in rows}
    for kind in KINDS:
        assert by[(kind, 4)] >= by[(kind, 8)] - 0.02, "gains must shrink with space order"
        assert by[(kind, 8)] >= by[(kind, 12)] - 0.05
        assert by[(kind, 12)] >= 0.95, "so12 should be neutral, not a slowdown"
    assert by[("acoustic", 4)] == max(by[(k, 4)] for k in KINDS), (
        "acoustic benefits the most at so4 (paper §IV-D)"
    )
    assert by[("acoustic", 4)] >= 1.4, "headline: substantial (>1.4x) acoustic gain"


@pytest.mark.benchmark(group="fig9")
def test_fig9a_broadwell(benchmark, report):
    rows = benchmark.pedantic(_speedups, args=(BROADWELL,), rounds=1, iterations=1)
    _report(BROADWELL, rows, report, "a")


@pytest.mark.benchmark(group="fig9")
def test_fig9b_skylake(benchmark, report):
    rows = benchmark.pedantic(_speedups, args=(SKYLAKE,), rounds=1, iterations=1)
    _report(SKYLAKE, rows, report, "b")
