"""Shared constants and builders for the paper-reproduction benchmarks.

§IV-B test-case setup: 512^3 velocity models, spacing 10 m (isotropic /
elastic) and 20 m (TTI), 512 ms of propagation in single precision giving
228 (acoustic), 436 (elastic) and 587 (TTI) timesteps, one Ricker source,
absorbing boundary layers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from paper_model import BROADWELL, GridGeometry, KernelSpec, SKYLAKE, SourceLoad
from repro.propagators import (
    AcousticPropagator,
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
)

PAPER_SHAPE = (512, 512, 512)
PAPER_STEPS = {"acoustic": 228, "elastic": 436, "tti": 587}
PAPER_SPACING = {"acoustic": 10.0, "elastic": 10.0, "tti": 20.0}
SPACE_ORDERS = (4, 8, 12)
KINDS = ("acoustic", "elastic", "tti")
MACHINES = (BROADWELL, SKYLAKE)

#: paper-reported speedups (Fig. 9, read off the bars / §IV-D text), used by
#: EXPERIMENTS.md and the shape assertions
PAPER_SPEEDUPS = {
    ("broadwell", "acoustic"): {4: 1.60, 8: 1.25, 12: 1.00},
    ("broadwell", "elastic"): {4: 1.30, 8: 1.13, 12: 1.05},
    ("broadwell", "tti"): {4: 1.44, 8: 1.10, 12: 1.05},
    ("skylake", "acoustic"): {4: 1.55, 8: 1.20, 12: 1.00},
    ("skylake", "elastic"): {4: 1.22, 8: 1.00, 12: 1.00},
    ("skylake", "tti"): {4: 1.44, 8: 1.13, 12: 1.00},
}


def build_propagator(kind: str, space_order: int, shape=(16, 16, 16), nbl=4):
    """A small-grid propagator: the kernel spec it yields is shape-independent."""
    vp = layered_velocity(shape, 1.5, 3.0, 3)
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    if kind == "elastic":
        kwargs = dict(rho=1.8, vs=vp / 1.8)
    h = PAPER_SPACING[kind]
    model = SeismicModel(shape, (h,) * 3, vp, nbl=nbl, space_order=space_order, **kwargs)
    cls = {
        "acoustic": AcousticPropagator,
        "tti": TTIPropagator,
        "elastic": ElasticPropagator,
    }[kind]
    return cls(model, space_order=space_order)


@lru_cache(maxsize=None)
def kernel_spec(kind: str, space_order: int) -> KernelSpec:
    prop = build_propagator(kind, space_order)
    return KernelSpec.from_operator(prop.op, name=f"{kind}-so{space_order}")


def paper_geometry(kind: str) -> GridGeometry:
    return GridGeometry(PAPER_SHAPE, PAPER_STEPS[kind])


def single_source_load() -> SourceLoad:
    """One off-the-grid Ricker source: 8 affected points, 4 pencils."""
    return SourceLoad(nsources=1, npts=8, corners=8, occupied_pencils=4)


def expected_affected_points(nsources: int, grid_points: int, support: int = 8) -> float:
    """Expected unique affected points for uniformly random sources.

    Collision-corrected occupancy: ``N * (1 - exp(-support*nsources/N))``;
    validated against exact counting in tests/analysis/test_fig10_estimates.py.
    """
    n = float(grid_points)
    return n * (1.0 - math.exp(-support * nsources / n))


def source_load_for(nsources: int, placement: str, shape=PAPER_SHAPE) -> SourceLoad:
    """Fig. 10 source loads: 'plane' (one x-y slice) or 'volume' (dense 3-D)."""
    nx, ny, nz = shape
    if placement == "plane":
        # sources jittered off a z-plane touch 2 z-slices of nx*ny points
        plane_points = 2.0 * nx * ny
        npts = expected_affected_points(nsources, int(plane_points), support=8)
        pencils = expected_affected_points(nsources, nx * ny, support=4)
    elif placement == "volume":
        npts = expected_affected_points(nsources, nx * ny * nz, support=8)
        pencils = expected_affected_points(nsources, nx * ny, support=4)
    else:
        raise ValueError(f"unknown placement {placement!r}")
    return SourceLoad(
        nsources=nsources,
        npts=int(round(npts)),
        corners=8,
        occupied_pencils=int(round(pencils)),
    )
