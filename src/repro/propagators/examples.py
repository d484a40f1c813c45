"""The small example problems every front-end shares.

One builder for the paper's three propagators on the 12^3 verification grid
with one off-the-grid Ricker source and a receiver line — the same operators
the benchmarks scale up.  ``python -m repro.verify`` certifies them,
``python -m repro.profile`` times them and the job service (:mod:`repro.jobs`)
runs them as survey shots, so what is verified is what is profiled and served.
"""

from __future__ import annotations

import numpy as np

from .acoustic import AcousticPropagator
from .elastic import ElasticPropagator
from .model import SeismicModel, layered_velocity
from .source import point_source, receiver_line
from .tti import TTIPropagator

__all__ = ["EXAMPLES", "example_velocity", "build_example"]

EXAMPLES = ("acoustic", "tti", "elastic")

SHAPE, NBL = (12, 12, 12), 2
NRECEIVERS = 4

_PROPAGATORS = {
    "acoustic": AcousticPropagator,
    "tti": TTIPropagator,
    "elastic": ElasticPropagator,
}


def example_velocity() -> np.ndarray:
    """The layered P-velocity model of every example."""
    return layered_velocity(SHAPE, 1.5, 3.0, 3)


def build_example(kind: str, nt: int = 16, so: int = 4, shift=None):
    """``(propagator, dt)``: a small (12^3, nbl=2, space order *so*)
    propagator with source + receivers, at its critical timestep.

    *shift* moves the source off the domain centre by that fraction of the
    extent per dimension (a survey's seeded shot positions).
    """
    if kind not in EXAMPLES:
        raise ValueError(f"unknown example {kind!r}; expected one of {EXAMPLES}")
    vp = example_velocity()
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    elif kind == "elastic":
        kwargs = dict(rho=1.8, vs=vp / 1.8)
    spacing = 20.0 if kind == "tti" else 10.0
    model = SeismicModel(SHAPE, (spacing,) * 3, vp, nbl=NBL, space_order=so, **kwargs)
    dt = model.critical_dt(kind)
    center = np.asarray(model.domain_center, dtype=float)
    coords = center
    if shift is not None:
        coords = center + np.asarray(shift) * np.asarray(model.grid.extent, dtype=float)
    src = point_source("src", model.grid, nt, coords, f0=0.015, dt=dt)
    rec = receiver_line("rec", model.grid, nt, npoint=NRECEIVERS, depth=center[-1])
    prop = _PROPAGATORS[kind](model, space_order=so, source=src, receivers=rec)
    return prop, dt
