"""Affected-point discovery — step 1 of the precomputation scheme (Listing 2).

Given a sparse off-the-grid point set, determine the set of grid points its
injection touches.  Two interchangeable methods are provided:

``by_injection``
    The paper's method: inject onto an *empty* scratch grid for the first few
    timesteps (assuming a non-zero wavelet there, as the paper's experiments
    do) and record the non-zero indices.  This works for any injection
    operator without knowing its internals.

``analytic``
    Directly enumerate the multilinear support of each point and drop
    zero-weight corners.  Faster, and used to cross-validate ``by_injection``.

Both work on *linear keys* (``np.ravel_multi_index`` over the grid shape):
C-order keys sort like the points do lexicographically, so one ``np.sort``
plus a first-occurrence mask yields the canonical affected-point list and
downstream ID assignment stays deterministic.  :func:`support_keys` is the
precomputation's only call of ``support_points``;
:func:`~repro.core.masks.build_masks` runs it once per sparse function.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..dsl.functions import SparseTimeFunction
from ..dsl.grid import Grid
from ..dsl.interpolation import support_points

__all__ = [
    "support_keys",
    "affected_keys",
    "key_points",
    "affected_points",
]

#: weights whose magnitude is below this never influence a single-precision
#: field and are treated as "not affected"
WEIGHT_TOL = 0.0


def support_keys(sparse: SparseTimeFunction) -> Tuple[np.ndarray, np.ndarray]:
    """Linear grid keys and weights of every support corner, both ``(npoint, 2^ndim)``."""
    indices, weights = support_points(sparse.coordinates, sparse.grid)
    return np.ravel_multi_index(tuple(np.moveaxis(indices, -1, 0)), sparse.grid.shape), weights


def _analytic_keys(keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    live = np.sort(keys[np.abs(weights) > WEIGHT_TOL])
    first = np.ones(live.size, dtype=bool)
    first[1:] = live[1:] != live[:-1]
    return live[first]


def _probed_keys(
    sparse: SparseTimeFunction, keys: np.ndarray, weights: np.ndarray, nprobe: int = 2
) -> np.ndarray:
    """Paper's Listing 2: probe-inject onto an empty grid, read off non-zeros.

    Injects the first ``nprobe`` wavelet samples (falling back to unit
    amplitudes when the wavelet opens with zeros, so the probe cannot miss a
    point) onto a zeroed scratch array of the grid's size, then returns the
    positions where the scratch is non-zero.
    """
    scratch = np.zeros(sparse.grid.npoints, dtype=np.float64)
    for t in range(min(nprobe, sparse.nt)):
        amp = np.asarray(sparse.data[t], dtype=np.float64)
        if not np.any(amp):
            amp = np.ones(sparse.npoint)
        # accumulate |w * amp| so probes of opposite sign cannot cancel
        contributions = np.abs(weights * amp[:, None])
        np.add.at(scratch, keys.ravel(), contributions.ravel())
    return np.flatnonzero(scratch)


def affected_keys(
    sparse: SparseTimeFunction, keys: np.ndarray, weights: np.ndarray, method: str = "analytic"
) -> np.ndarray:
    """Sorted unique linear keys of the grid points *sparse* touches, found by
    discovery *method* ("analytic" or "by_injection") from its support."""
    if method == "analytic":
        return _analytic_keys(keys, weights)
    if method == "by_injection":
        return _probed_keys(sparse, keys, weights)
    raise ValueError(f"unknown affected-point discovery method {method!r}")


def key_points(grid: Grid, keys: np.ndarray) -> np.ndarray:
    """Grid points ``(n, ndim)`` of linear *keys*."""
    return np.stack(np.unravel_index(keys, grid.shape), axis=1)


def affected_points(sparse: SparseTimeFunction, method: str = "analytic") -> np.ndarray:
    """Affected grid points in canonical order, ``(npts, ndim)``: by support
    with zero-weight corners dropped ("analytic") or by the probe injection
    of Listing 2 ("by_injection")."""
    return key_points(sparse.grid, affected_keys(sparse, *support_keys(sparse), method=method))
