"""This host's schedule sweep at the paper's scale, measured, with the model's
ranking of the same shapes beside it.

An acoustic shot (one off-the-grid Ricker source at the centre, a line of 64
receivers at quarter depth, absorbing layer ``NBL``, precomputed sparse
operators, the default engine on its default OpenMP team) runs ``NT`` steps
under each of ``SHAPES``: naive, spatial blocks {24, 32, 64}^2 and wavefront
tiles {32, 48, 64, 96}^2 x heights {4, 8, 16}.  For every cell (interior
grid, space order) each shape runs once to warm up (compile, precompute),
then ``ROUNDS`` interleaved rounds visit every shape once, in a rotated
order.  Every time is the wall clock of one harness span around
``forward``, read from the run's own :class:`~repro.telemetry.Telemetry`.
The receivers of every run in a cell must be sha256-equal.

The model side ranks the same shapes with ``paper_model.PerformanceModel``
on its Broadwell and Skylake specs at the same geometry, taking for each
wavefront the best block in {4, 8, 12, 16}^2 as the tuner does.  Spearman
rho between the model's ranking and the measured one is reported over all
shapes and over the wavefront shapes alone.  ROADMAP direction 2 used it to
decide whether the model could plan shapes (rho >= 0.7) or stays a figure
artefact.

Writes ``results/scale_acoustic.txt``.  Slow (about 10 minutes on a 2-core
host) and so outside tier-1::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py -m slow -s
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
from typing import Dict, List, Tuple

import numpy as np
import pytest
from scipy.stats import spearmanr

from paper_model import BROADWELL, SKYLAKE, GridGeometry, KernelSpec, PerformanceModel
from paper_setup import single_source_load
from repro.analysis import render_table
from repro.core import NaiveSchedule, Schedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import SparseTimeFunction
from repro.propagators import AcousticPropagator, SeismicModel, layered_velocity, point_source
from repro.telemetry import Telemetry

pytestmark = pytest.mark.slow

NBL = 8
NT = 32
NREC = 64
SEED = 0
ROUNDS = 5
#: (interior edge, space order); the 384^3 cell peaks at about 1.7 GB
CELLS = ((256, 4), (256, 8), (256, 12), (384, 4))
MODEL_BLOCKS = (4, 8, 12, 16)

SHAPES: Dict[str, Schedule] = {"naive": NaiveSchedule()}
SHAPES.update({f"spatial {b}^2": SpatialBlockSchedule(block=(b, b)) for b in (24, 32, 64)})
SHAPES.update(
    {
        f"WTB {t}^2 x h{h}": WavefrontSchedule(tile=(t, t), height=h)
        for t in (32, 48, 64, 96)
        for h in (4, 8, 16)
    }
)


def build_shot(interior: int, so: int):
    """(propagator, dt) for the acoustic shot of one cell."""
    shape = (interior,) * 3
    h = 10.0
    model = SeismicModel(shape, (h,) * 3, layered_velocity(shape, 1.5, 3.0, 3), nbl=NBL,
                         space_order=so)
    dt = model.critical_dt("acoustic")
    extent = h * (interior - 1)
    rng = np.random.default_rng(SEED)
    src_xyz = (np.asarray(model.domain_center) + rng.uniform(-0.2, 0.2, 3) * extent)[None, :]
    rec_xyz = np.empty((NREC, 3))
    rec_xyz[:, 0] = np.linspace(0.05 * extent, 0.95 * extent, NREC)
    rec_xyz[:, 1] = 0.5 * extent
    rec_xyz[:, 2] = 0.25 * extent
    rec_xyz += rng.uniform(0.0, 0.49 * h, rec_xyz.shape)
    src = point_source("src", model.grid, NT, src_xyz, f0=0.015, dt=dt)
    rec = SparseTimeFunction("rec", model.grid, npoint=NREC, nt=NT, coordinates=rec_xyz)
    return AcousticPropagator(model, space_order=so, source=src, receivers=rec), dt


def shot(prop, dt, schedule: Schedule) -> Tuple[float, str, int]:
    """(seconds, receivers sha256, threads) of one forward run."""
    tel = Telemetry()
    with tel.span("shot"):
        rec, _ = prop.forward(nt=NT, dt=dt, schedule=schedule, sparse_mode="precomputed",
                              telemetry=tel)
    return tel.total_seconds(), hashlib.sha256(rec.tobytes()).hexdigest(), tel.meta["threads"]


def model_seconds(prop, machine) -> Dict[str, float]:
    """The model's time for every shape (a wavefront at its best block)."""
    geometry = GridGeometry(tuple(prop.grid.shape), NT)
    pm = PerformanceModel(KernelSpec.from_operator(prop.op), machine, geometry,
                          single_source_load())
    out = {}
    for name, schedule in SHAPES.items():
        if isinstance(schedule, WavefrontSchedule):
            out[name] = min(pm.evaluate(schedule, (bx, by)).time_s
                            for bx in MODEL_BLOCKS for by in MODEL_BLOCKS)
        else:
            out[name] = pm.evaluate(schedule).time_s
    return out


def rho(measured: Dict[str, float], modelled: Dict[str, float], names: List[str]) -> float:
    return float(spearmanr([measured[n] for n in names], [modelled[n] for n in names])[0])


def measure_cell(interior: int, so: int) -> dict:
    prop, dt = build_shot(interior, so)
    names = list(SHAPES)
    digests = set()
    threads = set()
    times: Dict[str, List[float]] = {n: [] for n in names}
    for rnd in range(ROUNDS + 1):
        k = rnd % len(names)
        for name in names[k:] + names[:k]:
            seconds, digest, nthreads = shot(prop, dt, SHAPES[name])
            digests.add(digest)
            threads.add(nthreads)
            if rnd:  # round 0 is the warm run
                times[name].append(seconds)
    assert len(digests) == 1, f"{interior}^3 so={so}: receivers differ across shapes"
    stats = {}
    for name, ts in times.items():
        q1, med, q3 = statistics.quantiles(ts, n=4)
        stats[name] = (med, q1, q3)
    medians = {n: s[0] for n, s in stats.items()}
    wtb = [n for n in names if n.startswith("WTB")]
    spatial = [n for n in names if n.startswith("spatial")]
    best_wtb = min(wtb, key=medians.get)
    best_spatial = min(spatial, key=medians.get)
    models = {m.name: model_seconds(prop, m) for m in (BROADWELL, SKYLAKE)}
    return dict(
        interior=interior, so=so, ext=prop.grid.shape[0], threads=sorted(threads),
        stats=stats, models=models, best_wtb=best_wtb, best_spatial=best_spatial,
        ratio=medians[best_spatial] / medians[best_wtb],
        rho={m: (rho(medians, ms, names), rho(medians, ms, wtb)) for m, ms in models.items()},
    )


def render_cell(c: dict) -> str:
    n = c["ext"] ** 3 * NT
    rows = [
        [name, f"{med:.3f}", f"{q3 - q1:.3f}", f"{n / med / 1e9:.3f}",
         f"{c['models']['broadwell'][name]:.4f}", f"{c['models']['skylake'][name]:.4f}"]
        for name, (med, q1, q3) in c["stats"].items()
    ]
    table = render_table(
        ["shape", "median s", "IQR s", "GPts/s", "model BDW s", "model SKX s"], rows,
        title=(f"acoustic {c['interior']}^3 (+nbl {NBL}: {c['ext']}^3) so={c['so']}, nt={NT}, "
               f"{ROUNDS} rounds, threads {c['threads']}"),
    )
    bdw, skx = c["rho"]["broadwell"], c["rho"]["skylake"]
    med = {name: s[0] for name, s in c["stats"].items()}
    return (
        f"{table}\n"
        f"best WTB {c['best_wtb']} {med[c['best_wtb']]:.3f} s / best spatial "
        f"{c['best_spatial']} {med[c['best_spatial']]:.3f} s = {c['ratio']:.2f}x\n"
        f"Spearman rho (all {len(med)} / WTB only): broadwell {bdw[0]:+.2f} / {bdw[1]:+.2f}, "
        f"skylake {skx[0]:+.2f} / {skx[1]:+.2f}"
    )


def test_scale_acoustic(report):
    cells = [measure_cell(interior, so) for interior, so in CELLS]
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True).stdout
    host = "\n".join(line for line in lscpu.splitlines() if "cache" in line.lower())
    summary = render_table(
        ["cell", "best WTB / best spatial", "rho BDW all / WTB", "rho SKX all / WTB"],
        [
            [f"{c['interior']}^3 so={c['so']}", f"{c['ratio']:.2f}x",
             "{:+.2f} / {:+.2f}".format(*c["rho"]["broadwell"]),
             "{:+.2f} / {:+.2f}".format(*c["rho"]["skylake"])]
            for c in cells
        ],
        title="Summary: measured WTB lead and the model's rank agreement (promote at rho >= 0.7)",
    )
    report("scale_acoustic", "\n\n".join([host, summary] + [render_cell(c) for c in cells]))
