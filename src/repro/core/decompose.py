"""Wavefield decomposition — step 3 of the scheme (Listing 3, Fig. 5d).

Each off-the-grid source's wavelet is scattered, through its interpolation
weights and the per-point scale factor (e.g. ``dt**2/m``), onto its affected
grid points, producing one *grid-aligned* time series per affected point::

    src_dcmp[t, id(xs, ys, zs)] += w * scale(xs, ys, zs) * src[t, s]

where ``id`` is the affected point's row in ``masks.points``.

After this, source injection is an affine, grid-aligned operation and no
longer blocks time-tiling.  The same machinery decomposes *receivers*
(measurement interpolation): a receiver's sample is a weighted sum of the
wavefield at its support points, so a per-affected-point gather plus a sparse
matrix-vector product reconstructs all receiver traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse as sp

from ..dsl.functions import Injection, Interpolation
from .masks import SourceMasks, build_masks

__all__ = ["DecomposedSource", "DecomposedReceiver", "decompose_source", "decompose_receiver"]


@dataclass
class DecomposedSource:
    """Grid-aligned source: masks + per-affected-point wavelets.

    ``data[t, i]`` is the full contribution (weights and scale folded in) to
    add to the field at affected point ``masks.points[i]`` when timestep
    ``t``'s injection fires.
    """

    masks: SourceMasks
    data: np.ndarray  # (nt, npts)
    time_offset: int
    field_name: str

    @property
    def npts(self) -> int:
        return self.masks.npts

    def memory_bytes(self) -> int:
        return int(self.data.nbytes) + self.masks.memory_bytes()


@dataclass
class DecomposedReceiver:
    """Grid-aligned receiver: masks + sparse (npoint x npts) weight matrix.

    Measuring timestep *t* is a two-stage affine operation: gather the field
    at the affected points (grid-aligned), then apply the weight matrix to
    reconstruct the off-the-grid receiver samples.
    """

    masks: SourceMasks
    weights: sp.csr_matrix  # (npoint, npts)
    time_offset: int
    field_name: str

    @property
    def npts(self) -> int:
        return self.masks.npts


def decompose_source(
    injection: Injection,
    dt: float,
    masks: Optional[SourceMasks] = None,
) -> DecomposedSource:
    """Listing 3: decompose an off-the-grid injection to grid-aligned series."""
    from ..execution.sparse import evaluate_point_scale

    sparse_fn = injection.sparse
    if masks is None:
        masks = build_masks(sparse_fn)
    npoint, ncorner = masks.weights.shape
    npts = masks.npts

    # the scale is a function of the grid point alone: evaluate it once per
    # affected point and look it up per corner (the dummy slot scales by 0)
    scale = evaluate_point_scale(injection.expr, masks.points, sparse_fn.grid, dt)
    rows = masks.corner_ids.reshape(-1)
    vals = masks.weights.reshape(-1) * np.append(scale, 0.0).take(rows)

    # src_dcmp[t, id] += w * src[t, s] for every (source, corner); accumulate
    # through a sparse scatter matrix, one timestep at a time, so memory
    # stays O(nt*npts + npoint) in the field dtype
    cols = np.repeat(np.arange(npoint), ncorner)
    scatter = sp.csr_matrix(
        (vals, (rows, cols)), shape=(npts + 1, npoint)
    )  # +1 dummy row absorbs zero-weight corners outside the mask
    src = np.asarray(sparse_fn.data, dtype=np.float64)  # (nt, npoint)
    out = np.empty((sparse_fn.nt, npts), dtype=sparse_fn.grid.dtype)
    for t in range(sparse_fn.nt):
        out[t] = scatter.dot(src[t])[:npts]
    return DecomposedSource(
        masks=masks,
        data=out,
        time_offset=injection.time_offset,
        field_name=injection.field.name,
    )


def decompose_receiver(
    interpolation: Interpolation,
    masks: Optional[SourceMasks] = None,
) -> DecomposedReceiver:
    """Grid-align a measurement interpolation (the receiver dual of Listing 3)."""
    if masks is None:
        masks = build_masks(interpolation.sparse)
    npoint, ncorner = masks.weights.shape
    valid = (masks.corner_ids < masks.npts).reshape(-1)

    rows = np.repeat(np.arange(npoint), ncorner)
    cols = np.where(valid, masks.corner_ids.reshape(-1), 0)
    vals = np.where(valid, masks.weights.reshape(-1), 0.0)
    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(npoint, max(masks.npts, 1))
    )
    return DecomposedReceiver(
        masks=masks,
        weights=matrix,
        time_offset=interpolation.time_offset,
        field_name=interpolation.field.name,
    )
