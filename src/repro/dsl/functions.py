"""Grid functions: dense fields, time-stepped fields and sparse point sets.

These mirror Devito's ``Function`` / ``TimeFunction`` / ``SparseTimeFunction``
triple.  Dense functions carry their own NumPy storage (with halo) and expose
symbolic finite-difference derivatives built from Fornberg weights; sparse
functions carry off-the-grid coordinates plus a time series per point and
expose ``inject`` / ``interpolate``, the two off-the-grid operators whose data
dependencies this paper is about.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..stencil.coefficients import central_weights, staggered_weights, stencil_radius
from .grid import Dimension, Grid
from .symbols import Add, Expr, Indexed, Mul, Number, Pow, Symbol

__all__ = ["Function", "TimeFunction", "SparseTimeFunction", "Injection", "Interpolation"]


class DiscreteFunction:
    """Common machinery of dense grid functions.

    Storage includes a halo of ``space_order`` points per side, wide enough
    for any derivative (including composed first derivatives, as in the TTI
    rotated Laplacian) of the declared accuracy.
    """

    def __init__(self, name: str, grid: Grid, space_order: int = 2, dtype=None):
        if space_order < 2 or space_order % 2:
            raise ValueError(f"space order must be a positive even integer, got {space_order}")
        self.name = str(name)
        self.grid = grid
        self.space_order = int(space_order)
        self.halo = int(space_order)  # generous: supports nested derivatives
        self.dtype = np.dtype(dtype) if dtype is not None else grid.dtype
        self._allocate()

    # -- storage ------------------------------------------------------------------
    def _padded_shape(self) -> Tuple[int, ...]:
        return tuple(s + 2 * self.halo for s in self.grid.shape)

    def _allocate(self) -> None:
        self._data = np.zeros(self._padded_shape(), dtype=self.dtype)

    @property
    def data_with_halo(self) -> np.ndarray:
        """The full padded buffer (halo included)."""
        return self._data

    @property
    def data(self) -> np.ndarray:
        """Interior view (halo excluded); writable."""
        sl = tuple(slice(self.halo, self.halo + s) for s in self.grid.shape)
        return self._data[sl]

    @data.setter
    def data(self, value) -> None:
        self.data[...] = value

    # -- symbolic access -------------------------------------------------------
    def _base_offsets(self) -> Dict[Dimension, int]:
        return {d: 0 for d in self.grid.dimensions}

    def indexify(self) -> Indexed:
        """The centred access ``f[x, y, z]`` (plus ``t`` for time functions)."""
        return Indexed(self, self._base_offsets())

    # -- derivatives -----------------------------------------------------------
    def diff(self, dim: Dimension, deriv: int = 1, fd_order: Optional[int] = None) -> Expr:
        """Centred FD approximation of ``d^deriv f / d dim^deriv``."""
        if dim.is_time:
            raise ValueError("use dt/dt2 for time derivatives")
        order = fd_order or self.space_order
        offsets, weights = central_weights(deriv, order)
        base = self.indexify()
        terms = [
            Mul(Number(w), base.shift(dim, o))
            for o, w in zip(offsets, weights)
            if w != 0.0
        ]
        return Mul(Add(*terms), Pow(dim.spacing, Number(-deriv)))

    def diff_staggered(self, dim: Dimension, side: int = 1, fd_order: Optional[int] = None) -> Expr:
        """First derivative evaluated at ``dim +/- 1/2`` (staggered grids)."""
        order = fd_order or self.space_order
        offsets, weights = staggered_weights(1, order, side)
        base = self.indexify()
        terms = [
            Mul(Number(w), base.shift(dim, o))
            for o, w in zip(offsets, weights)
            if w != 0.0
        ]
        return Mul(Add(*terms), Pow(dim.spacing, Number(-1)))

    def _spatial(self, name: str) -> Dimension:
        return self.grid.dimension(name)

    @property
    def dx(self) -> Expr:
        return self.diff(self._spatial("x"), 1)

    @property
    def dy(self) -> Expr:
        return self.diff(self._spatial("y"), 1)

    @property
    def dz(self) -> Expr:
        return self.diff(self._spatial("z"), 1)

    @property
    def dx2(self) -> Expr:
        return self.diff(self._spatial("x"), 2)

    @property
    def dy2(self) -> Expr:
        return self.diff(self._spatial("y"), 2)

    @property
    def dz2(self) -> Expr:
        return self.diff(self._spatial("z"), 2)

    @property
    def laplace(self) -> Expr:
        """Sum of second derivatives over all spatial dimensions."""
        return Add(*[self.diff(d, 2) for d in self.grid.dimensions])

    # -- arithmetic: functions act like their centred access ----------------------
    def _expr(self) -> Expr:
        return self.indexify()

    def __add__(self, other):
        return self._expr() + other

    def __radd__(self, other):
        return other + self._expr()

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return other - self._expr()

    def __mul__(self, other):
        return self._expr() * other

    def __rmul__(self, other):
        return other * self._expr()

    def __truediv__(self, other):
        return self._expr() / other

    def __rtruediv__(self, other):
        return other / self._expr()

    def __neg__(self):
        return -self._expr()

    def __pow__(self, other):
        return self._expr() ** other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, so={self.space_order})"


class Function(DiscreteFunction):
    """A time-invariant dense field (velocity model, damping mask, angles)."""


class TimeFunction(DiscreteFunction):
    """A time-stepped dense field with a circular buffer of time slices.

    ``time_order`` sets the number of past slices kept: a scheme of time order
    *k* needs ``k + 1`` live buffers (acoustic ``O(2, so)`` keeps three,
    elastic ``O(1, so)`` keeps two).
    """

    def __init__(self, name: str, grid: Grid, time_order: int = 2, space_order: int = 2, dtype=None):
        if time_order < 1:
            raise ValueError("time order must be >= 1")
        self.time_order = int(time_order)
        super().__init__(name, grid, space_order=space_order, dtype=dtype)

    @property
    def buffers(self) -> int:
        return self.time_order + 1

    def _allocate(self) -> None:
        self._data = np.zeros((self.buffers,) + self._padded_shape(), dtype=self.dtype)

    @property
    def data_with_halo(self) -> np.ndarray:
        return self._data

    @property
    def data(self) -> np.ndarray:
        sl = (slice(None),) + tuple(
            slice(self.halo, self.halo + s) for s in self.grid.shape
        )
        return self._data[sl]

    @data.setter
    def data(self, value) -> None:
        self.data[...] = value

    def buffer(self, t: int) -> np.ndarray:
        """Padded buffer holding logical timestep *t* (circular indexing)."""
        return self._data[t % self.buffers]

    def interior(self, t: int) -> np.ndarray:
        """Interior view of logical timestep *t*."""
        sl = tuple(slice(self.halo, self.halo + s) for s in self.grid.shape)
        return self.buffer(t)[sl]

    # -- time accesses/derivatives ------------------------------------------------
    def _base_offsets(self) -> Dict[Dimension, int]:
        offs: Dict[Dimension, int] = {self.grid.stepping_dim: 0}
        offs.update({d: 0 for d in self.grid.dimensions})
        return offs

    @property
    def forward(self) -> Indexed:
        return self.indexify().shift(self.grid.stepping_dim, 1)

    @property
    def backward(self) -> Indexed:
        return self.indexify().shift(self.grid.stepping_dim, -1)

    @property
    def dt(self) -> Expr:
        """First time derivative.

        Uses the centred form when three buffers are live, else forward Euler
        -- matching the discretisations the propagators in the paper use.
        """
        t = self.grid.stepping_dim
        base = self.indexify()
        if self.time_order >= 2:
            expr = Add(base.shift(t, 1), Mul(Number(-1), base.shift(t, -1)))
            return Mul(expr, Pow(Mul(Number(2), t.spacing), Number(-1)))
        expr = Add(base.shift(t, 1), Mul(Number(-1), base))
        return Mul(expr, Pow(t.spacing, Number(-1)))

    @property
    def dt2(self) -> Expr:
        """Second time derivative (requires time order >= 2)."""
        if self.time_order < 2:
            raise ValueError(f"{self.name}: dt2 requires time order >= 2")
        t = self.grid.stepping_dim
        base = self.indexify()
        expr = Add(
            base.shift(t, 1),
            Mul(Number(-2), base),
            base.shift(t, -1),
        )
        return Mul(expr, Pow(t.spacing, Number(-2)))


class Injection:
    """A pending off-the-grid source-injection operation.

    Represents ``field[t+offset, *neighbours(p)] += w(p) * scale(n) * data[t, p]``
    for every sparse point *p* and support neighbour *n*: the non-affine
    scatter of Listing 1 lines 6-9.  ``expr`` is a symbolic per-point scale
    factor over ``dt`` and time-invariant model fields, e.g. ``dt**2 / m`` in
    the acoustic propagator; it is evaluated at each affected grid point.
    """

    def __init__(self, sparse: "SparseTimeFunction", field: TimeFunction, expr=1.0, time_offset: int = 1):
        from .symbols import sympify

        self.sparse = sparse
        self.field = field
        self.expr = sympify(expr)
        self.time_offset = int(time_offset)

    def __repr__(self) -> str:
        return (
            f"Injection({self.sparse.name} -> {self.field.name}, "
            f"expr={self.expr}, t+{self.time_offset})"
        )


class Interpolation:
    """A pending off-the-grid measurement (receiver) operation.

    Represents ``data[t, p] = sum_n w_n(p) * field[t, n]`` for every sparse
    point *p*: the gather dual of :class:`Injection`.
    """

    def __init__(self, sparse: "SparseTimeFunction", field: TimeFunction, time_offset: int = 1):
        self.sparse = sparse
        self.field = field
        self.time_offset = int(time_offset)

    def __repr__(self) -> str:
        return f"Interpolation({self.field.name} -> {self.sparse.name})"


class SparseTimeFunction:
    """A set of off-the-grid points, each with a time series.

    Parameters
    ----------
    name:
        Symbolic name.
    grid:
        The grid the points live in (physical coordinates).
    npoint:
        Number of sparse points.
    nt:
        Number of timesteps stored.
    coordinates:
        ``(npoint, grid.ndim)`` physical coordinates; defaults to the domain
        centre for every point.
    """

    def __init__(
        self,
        name: str,
        grid: Grid,
        npoint: int,
        nt: int,
        coordinates: Optional[np.ndarray] = None,
    ):
        if npoint < 1:
            raise ValueError("need at least one sparse point")
        if nt < 1:
            raise ValueError("need at least one timestep")
        self.name = str(name)
        self.grid = grid
        self.npoint = int(npoint)
        self.nt = int(nt)
        if coordinates is None:
            centre = [o + e / 2.0 for o, e in zip(grid.origin, grid.extent)]
            coordinates = np.tile(centre, (npoint, 1))
        coordinates = np.atleast_2d(np.asarray(coordinates, dtype=np.float64))
        if coordinates.shape != (self.npoint, grid.ndim):
            raise ValueError(
                f"coordinates must have shape ({self.npoint}, {grid.ndim}), "
                f"got {coordinates.shape}"
            )
        # pre-flight: reject out-of-domain points at construction (naming the
        # offending indices and coordinates) instead of at the first injection
        from .interpolation import validate_coordinates

        validate_coordinates(coordinates, grid, name=self.name)
        self.coordinates = coordinates
        self.data = np.zeros((self.nt, self.npoint), dtype=grid.dtype)

    # -- the two off-the-grid operators -----------------------------------------
    def inject(self, field: TimeFunction, expr=1.0, time_offset: int = 1) -> Injection:
        """Schedule injection of this point set into *field*.

        ``expr`` is the symbolic scale factor (e.g. ``dt**2 / m``) of Devito's
        ``src.inject(u.forward, expr=src*dt**2/m)``; it may reference ``dt``
        and centred accesses of time-invariant model fields, and is evaluated
        per affected grid point by the executors.
        """
        self._check_field(field)
        return Injection(self, field, expr, time_offset)

    def interpolate(self, field: TimeFunction, time_offset: int = 1) -> Interpolation:
        """Schedule interpolation (measurement) of *field* at these points.

        The default ``time_offset=1`` samples the *newly written* timestep:
        iteration ``t`` records ``data[t+1] = field[t+1]`` once the stencil
        update and any injections for ``t+1`` have completed (``data[0]``
        keeps the initial condition).
        """
        self._check_field(field)
        return Interpolation(self, field, time_offset)

    def _check_field(self, field: TimeFunction) -> None:
        if not isinstance(field, TimeFunction):
            raise TypeError("sparse operators act on TimeFunction fields")
        if field.grid is not self.grid:
            raise ValueError("sparse points and field live on different grids")

    def __repr__(self) -> str:
        return f"SparseTimeFunction({self.name}, npoint={self.npoint}, nt={self.nt})"
