"""Raw (off-the-grid) sparse-operator executors — the baseline of Listing 1.

These implement source injection and receiver interpolation directly on the
off-the-grid coordinates, exactly as the untransformed code does: iterate the
sparse point set, map each point to its ``2^d`` support neighbours through an
indirection, scatter/gather with multilinear weights.  They define the
reference semantics against which the precomputed (grid-aligned) path of
:mod:`repro.core` is verified.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.functions import Function, Injection, Interpolation, TimeFunction
from ..dsl.grid import Grid
from ..dsl.interpolation import linear_index, locate_points, support_points
from ..dsl.symbols import Expr, Indexed, Number, Symbol

__all__ = [
    "evaluate_point_scale",
    "RawInjection",
    "RawInterpolation",
    "UnsafeOffGridInjection",
]


def evaluate_point_scale(expr: Expr, points: np.ndarray, grid: Grid, dt: float) -> np.ndarray:
    """Evaluate a symbolic scale expression at a set of grid points.

    ``expr`` may contain the ``dt`` symbol, numbers, and centred accesses of
    time-invariant :class:`Function` fields (e.g. ``m[x, y, z]``); it is
    evaluated at each row of ``points`` (integer grid indices, shape
    ``(n, ndim)``), yielding one scale factor per point.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.int64))
    expr = expr.subs({Symbol("dt"): Number(float(dt))})
    env: Dict[Expr, np.ndarray] = {}
    for access in expr.atoms(Indexed):
        func = access.function
        if isinstance(func, TimeFunction) or not isinstance(func, Function):
            raise TypeError(
                f"injection scale may only reference time-invariant model "
                f"fields, got access {access}"
            )
        if any(shift != 0 for _, shift in access.offsets):
            raise ValueError(f"injection scale access must be centred: {access}")
        idx = tuple(points[:, d] for d in range(points.shape[1]))
        env[access] = func.data[idx].astype(np.float64)
    unbound = {s.name for s in expr.free_symbols()}
    if unbound:
        raise ValueError(f"unbound symbols in injection scale: {sorted(unbound)}")
    value = expr.evaluate(env)
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (points.shape[0],)).copy()


class RawInjection:
    """Executable form of an off-the-grid :class:`Injection` (Listing 1)."""

    def __init__(self, injection: Injection, dt: float):
        self.injection = injection
        sparse = injection.sparse
        self.field = injection.field
        self.grid = sparse.grid
        self.time_offset = injection.time_offset
        indices, weights = support_points(sparse.coordinates, self.grid)
        scale = evaluate_point_scale(
            injection.expr, indices.reshape(-1, self.grid.ndim), self.grid, dt
        )
        # fold the per-corner scale into the interpolation weights
        self.scaled_weights = weights * scale.reshape(weights.shape)
        self.data = sparse.data
        #: per-corner position in the flat view of a padded time buffer
        self._lin = linear_index(indices, self.field.halo, self.field.buffer(0))

    def apply(self, t: int, box=None) -> int:
        """Inject amplitudes of source sample *t* into ``field[t + offset]``;
        returns the number of support corners scattered into.

        Raw off-the-grid injection is only legal on the *whole* grid (after a
        full sweep); a box-restricted request means a temporally blocked
        schedule is trying to use it, which the paper shows is unsound.
        """
        if box is not None:
            raise ValueError(
                "off-the-grid injection cannot run inside a space-time tile; "
                "precompute it with repro.core (decompose_source) first"
            )
        if not 0 <= t < self.data.shape[0]:
            return 0
        buf = self.field.buffer(t + self.time_offset)
        contributions = self.scaled_weights * self.data[t][:, None].astype(np.float64)
        # sources may share corners: np.add.at, in (source, corner) order
        np.add.at(buf.reshape(-1), self._lin.ravel(), contributions.ravel().astype(buf.dtype))
        return self._lin.size


class UnsafeOffGridInjection(RawInjection):
    """Deliberately WRONG: off-the-grid injection inside space-time tiles.

    This is the naive attempt the paper's §I-A shows to be unsound (Fig. 4b):
    when a tile window reaches a source's *base* grid point, the full
    off-the-grid scatter fires — but support corners belonging to a later
    window at the same timestep have not had their stencil write yet, so the
    subsequent assignment overwrites the injected contribution, and corners
    in earlier windows may already have been consumed by later-time updates.
    It exists solely for the negative test demonstrating the violation; never
    use it for real modelling.
    """

    def __init__(self, injection: Injection, dt: float):
        super().__init__(injection, dt)
        # min corner per source
        self._base, _ = locate_points(injection.sparse.coordinates, self.grid)

    def apply(self, t: int, box=None) -> int:
        if box is None:
            return super().apply(t)
        if not 0 <= t < self.data.shape[0]:
            return 0
        sel = np.ones(self._base.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(box):
            sel &= (self._base[:, d] >= lo) & (self._base[:, d] < hi)
        if not sel.any():
            return 0
        buf = self.field.buffer(t + self.time_offset)
        lin = self._lin[sel]
        contributions = self.scaled_weights[sel] * self.data[t][sel][:, None].astype(np.float64)
        np.add.at(buf.reshape(-1), lin.ravel(), contributions.ravel().astype(buf.dtype))
        return lin.size


class RawInterpolation:
    """Executable form of an off-the-grid :class:`Interpolation` (Fig. 3b)."""

    def __init__(self, interpolation: Interpolation):
        self.interpolation = interpolation
        sparse = interpolation.sparse
        self.field = interpolation.field
        self.grid = sparse.grid
        self.time_offset = interpolation.time_offset
        indices, self.weights = support_points(sparse.coordinates, self.grid)
        self.data = sparse.data
        self._lin = linear_index(indices, self.field.halo, self.field.buffer(0))

    def gather(self, t: int, box=None) -> int:
        """Plan-interface shim: raw interpolation measures at :meth:`finalize`,
        so nothing is staged here."""
        if box is not None:
            raise ValueError(
                "off-the-grid interpolation cannot run inside a space-time "
                "tile; precompute it with repro.core (decompose_receiver) first"
            )
        return 0

    def finalize(self, t: int) -> None:
        self.apply(t)

    def apply(self, t: int) -> None:
        """Measure ``field[t + offset]`` into the receiver row ``t + offset``."""
        row = t + self.time_offset
        if not 0 <= row < self.data.shape[0]:
            return
        buf = self.field.buffer(t + self.time_offset)
        sampled = buf.reshape(-1).take(self._lin).astype(np.float64)
        self.data[row] = (sampled * self.weights).sum(axis=1).astype(self.data.dtype)
