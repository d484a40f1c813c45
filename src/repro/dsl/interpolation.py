"""Off-the-grid interpolation/injection coefficient machinery.

Sources and receivers live at arbitrary physical coordinates ("off the
grid").  Injection *scatters* a point's amplitude onto its ``2^d``
surrounding grid points with multilinear weights (Fig. 3a of the paper);
interpolation *gathers* the wavefield at those neighbours with the same
weights (Fig. 3b).  Both executors and the precomputation scheme
(:mod:`repro.core`) are built on the routines here, so the scheme stays
independent of the interpolation type: swap in a different
``(offsets, weights)`` generator and everything downstream still works.
"""

from __future__ import annotations

from itertools import product
from typing import Tuple

import numpy as np

from ..errors import CoordinateOutOfDomain, PlanValidationError
from .grid import Grid

__all__ = [
    "validate_coordinates",
    "locate_points",
    "corner_offsets",
    "multilinear_coefficients",
    "support_points",
    "check_flat_view",
    "linear_index",
    "inject_values",
    "interpolate_values",
]


def validate_coordinates(
    coords: np.ndarray, grid: Grid, name: str = "sparse", atol: float = 0.0
) -> np.ndarray:
    """Batch-validate physical coordinates against the domain box.

    Returns the logical (grid-index-unit) coordinates.  On failure raises
    :class:`~repro.errors.CoordinateOutOfDomain` naming each offending point
    *index* and its physical coordinates — the error a pre-flight check can
    act on, instead of a bare "a point is outside" deep in the first
    injection.  ``atol`` is a tolerance in logical units on both faces.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    logical = grid.physical_to_logical(coords)
    upper = np.asarray(grid.shape, dtype=np.float64) - 1.0
    bad = np.any((logical < -atol) | (logical > upper + atol), axis=1)
    if np.any(bad):
        indices = np.flatnonzero(bad)
        shown = ", ".join(
            f"point {i} at {tuple(round(float(c), 6) for c in coords[i])}"
            for i in indices[:5]
        )
        if indices.size > 5:
            shown += f", ... ({indices.size - 5} more)"
        domain = " x ".join(
            f"[{o:g}, {o + e:g}]" for o, e in zip(grid.origin, grid.extent)
        )
        raise CoordinateOutOfDomain(
            f"{name}: {indices.size} point(s) outside the domain {domain}: {shown}",
            field=name,
            indices=indices,
            coordinates=coords[bad].copy(),
        )
    return logical


def locate_points(coords: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Split physical coordinates into base grid indices and fractional parts.

    Returns ``(base, frac)`` with ``base`` int64 of shape ``(npoint, ndim)``
    and ``frac`` in ``[0, 1]``; points exactly on the upper domain face are
    attached to the last interior cell with ``frac == 1`` so the support stays
    in bounds.
    """
    logical = validate_coordinates(coords, grid, name="off-the-grid", atol=1e-9)
    upper = np.asarray(grid.shape, dtype=np.float64) - 1.0
    logical = np.clip(logical, 0.0, upper)
    base = np.floor(logical).astype(np.int64)
    # attach boundary points to the last cell so base+1 is a valid index
    last_cell = np.asarray(grid.shape, dtype=np.int64) - 2
    base = np.minimum(base, np.maximum(last_cell, 0))
    frac = logical - base
    return base, frac


def corner_offsets(ndim: int) -> np.ndarray:
    """The ``2^ndim`` unit-cell corner offsets, shape ``(2^ndim, ndim)``."""
    return np.array(list(product((0, 1), repeat=ndim)), dtype=np.int64)


def multilinear_coefficients(frac: np.ndarray) -> np.ndarray:
    """Multilinear (bi/tri-linear) weights for each point.

    ``frac`` has shape ``(npoint, ndim)``; the result has shape
    ``(npoint, 2^ndim)`` with rows summing to one: the partition-of-unity
    property that conserves injected amplitude.
    """
    frac = np.atleast_2d(np.asarray(frac, dtype=np.float64))
    npoint, ndim = frac.shape
    corners = corner_offsets(ndim)  # (2^d, d)
    # weight per corner: prod over dims of (frac if corner==1 else 1-frac)
    w = np.ones((npoint, corners.shape[0]), dtype=np.float64)
    for d in range(ndim):
        take_hi = corners[:, d] == 1  # (2^d,)
        w *= np.where(take_hi[None, :], frac[:, d : d + 1], 1.0 - frac[:, d : d + 1])
    return w


def support_points(coords: np.ndarray, grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """All affected grid points and their weights for a set of sparse points.

    Returns ``(indices, weights)`` where ``indices`` has shape
    ``(npoint, 2^ndim, ndim)`` (absolute grid indices of each point's support)
    and ``weights`` has shape ``(npoint, 2^ndim)``.
    """
    base, frac = locate_points(coords, grid)
    corners = corner_offsets(grid.ndim)
    indices = base[:, None, :] + corners[None, :, :]
    weights = multilinear_coefficients(frac)
    return indices, weights


def check_flat_view(buffer: np.ndarray) -> None:
    """Sparse operators scatter/gather through the flat view of a *padded*
    buffer, which is only a view of a C-contiguous buffer — on any other
    layout ``reshape`` copies and an injection into it is silently lost,
    hence this check, at construction, not per call."""
    if not buffer.flags.c_contiguous:
        raise PlanValidationError(
            f"sparse operators need a C-contiguous field buffer, got strides "
            f"{buffer.strides} for shape {buffer.shape}"
        )


def linear_index(indices: np.ndarray, halo: int, buffer: np.ndarray) -> np.ndarray:
    """Position of each interior grid index in ``buffer.reshape(-1)``
    (:func:`check_flat_view` first).

    ``indices`` has shape ``(..., ndim)``; the result drops the last axis.
    """
    check_flat_view(buffer)
    return np.ravel_multi_index(tuple(np.moveaxis(indices, -1, 0) + halo), buffer.shape)


def inject_values(
    buffer: np.ndarray,
    halo: int,
    indices: np.ndarray,
    weights: np.ndarray,
    amplitudes: np.ndarray,
) -> None:
    """Scatter-add ``amplitudes[p] * weights[p, c]`` onto the support points.

    ``buffer`` is a *padded* field slice (halo included); ``indices`` are
    interior grid indices as returned by :func:`support_points`.  Uses
    ``np.add.at`` so points sharing support accumulate correctly.
    """
    lin = linear_index(indices, halo, buffer)
    contributions = (weights * np.asarray(amplitudes)[:, None]).astype(buffer.dtype, copy=False)
    np.add.at(buffer.reshape(-1), lin.ravel(), contributions.ravel())


def interpolate_values(
    buffer: np.ndarray,
    halo: int,
    indices: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Gather field values at the support points, returning one value per point."""
    sampled = buffer.reshape(-1).take(linear_index(indices, halo, buffer))
    return (sampled * weights).sum(axis=1)
