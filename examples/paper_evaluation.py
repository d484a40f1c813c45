"""Regenerate the paper's evaluation (Table I, Figs. 9-11) in one run.

Drives the same model/tuner code as the benchmark harness and prints every
table and figure analogue to stdout.  This is the quickest way to inspect the
reproduced results without pytest.

Run:  python examples/paper_evaluation.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from paper_model import (  # noqa: E402
    BROADWELL,
    PerformanceModel,
    render_roofline,
    roofline_points,
    tune_spatial,
    tune_wavefront,
)
from paper_setup import (  # noqa: E402
    KINDS,
    MACHINES,
    PAPER_SPEEDUPS,
    SPACE_ORDERS,
    kernel_spec,
    paper_geometry,
    single_source_load,
    source_load_for,
)
from repro.analysis import render_series, render_table  # noqa: E402


def table1():
    rows = []
    for machine in MACHINES:
        for kind in KINDS:
            for so in SPACE_ORDERS:
                pm = PerformanceModel(kernel_spec(kind, so), machine,
                                      paper_geometry(kind), single_source_load())
                tuned = tune_wavefront(pm)
                s, b = tuned.schedule, tuned.block
                rows.append([f"{kind} O({1 if kind == 'elastic' else 2},{so})",
                             machine.name,
                             f"{s.tile[0]}, {s.tile[1]}, {b[0]}, {b[1]}",
                             s.height])
    print(render_table(["Problem", "Machine", "tile/block", "height"], rows,
                       title="TABLE I analogue: tuned WTB shapes"))


def fig9():
    for machine in MACHINES:
        rows = []
        for kind in KINDS:
            for so in SPACE_ORDERS:
                pm = PerformanceModel(kernel_spec(kind, so), machine,
                                      paper_geometry(kind), single_source_load())
                tuned = tune_wavefront(pm)
                b = pm.evaluate(tune_spatial(pm))
                w = pm.evaluate(tuned.schedule, tuned.block)
                rows.append([kind, so, f"{b.time_s / w.time_s:.2f}x",
                             f"{PAPER_SPEEDUPS[(machine.name, kind)][so]:.2f}x"])
        print()
        print(render_table(["kernel", "so", "modelled speedup", "paper"], rows,
                           title=f"Fig. 9 analogue — {machine.name}"))


def fig10():
    spec = kernel_spec("acoustic", 4)
    geo = paper_geometry("acoustic")
    counts = (1, 16, 256, 4096, 65536, 1048576, 8388608)
    series = {}
    for placement in ("plane", "volume"):
        vals = []
        for n in counts:
            pm = PerformanceModel(spec, BROADWELL, geo, source_load_for(n, placement))
            tuned = tune_wavefront(pm)
            vals.append(round(pm.evaluate(tune_spatial(pm)).time_s
                              / pm.evaluate(tuned.schedule, tuned.block).time_s, 3))
        series[placement] = vals
    print()
    print(render_series(list(counts), series, x_label="#sources",
                        title="Fig. 10 analogue: speedup vs #sources (acoustic so4, Broadwell)"))


def fig11():
    points = []
    for so in SPACE_ORDERS:
        pm = PerformanceModel(kernel_spec("acoustic", so), BROADWELL,
                              paper_geometry("acoustic"), single_source_load())
        spatial = tune_spatial(pm)
        tuned = tune_wavefront(pm)
        points.extend(roofline_points(pm, {
            f"acoustic so={so} spatial": (spatial, spatial.block),
            f"acoustic so={so} WTB": (tuned.schedule, tuned.block),
        }))
    print()
    print(render_roofline(points, machine_name="broadwell"))


def main():
    table1()
    fig9()
    fig10()
    fig11()


if __name__ == "__main__":
    main()
