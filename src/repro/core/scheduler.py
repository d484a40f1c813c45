"""Schedule descriptions: how the space-time iteration space is traversed.

Three schedules, mirroring the paper's comparison:

* :class:`NaiveSchedule` — plain time-stepping, whole grid per timestep
  (Listing 1).
* :class:`SpatialBlockSchedule` — rectangular space blocking within each
  timestep (Fig. 4a); sparse operators run after each full sweep, so no
  dependence is ever violated.
* :class:`WavefrontSchedule` — wave-front temporal blocking (Fig. 4b /
  Listing 6): the time axis is cut into tiles of ``height`` steps; within a
  tile, skewed space-time windows of extent ``tile`` traverse the domain and
  every window executes all sweep instances of the tile at decreasing spatial
  offsets (the wavefront).

:func:`lower` turns a schedule into the one step list that the executor, the
legality prover and the race oracle all walk.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import product
from typing import Iterator, List, Tuple, Union

__all__ = [
    "SCHEDULES",
    "NO_SPARSE",
    "Schedule",
    "NaiveSchedule",
    "SpatialBlockSchedule",
    "WavefrontSchedule",
    "schedule_for",
    "time_tiles",
    "tile_origins",
    "instance_lags",
    "lower",
]

#: the kinds ``Operator.apply`` takes in place of a :class:`Schedule` and runs
#: as :func:`schedule_for`'s shape; the verify / profile CLIs and the job
#: service take the same set
SCHEDULES = ("naive", "spatial", "wavefront")

#: ``sparse_box`` of a :func:`lower` step after which no sparse operator runs
NO_SPARSE = "no-sparse"

Box = Tuple[Tuple[int, int], ...]
#: ``(dt, j, box, sparse_box, tile, npoints)``, see :func:`lower`
Step = Tuple[int, int, Box, Union[Box, None, str], int, int]


class Schedule:
    """Base class; concrete schedules are plain frozen dataclasses."""

    kind = "abstract"
    #: timesteps per containment unit (time tile); only wavefronts exceed 1
    height = 1

    def describe(self) -> dict:
        """JSON-able description of the schedule: its kind plus every
        geometry parameter.  Used as the legality-certificate key and in
        certificate serialisation (:mod:`repro.verify`)."""
        out = {"kind": self.kind}
        if dataclasses.is_dataclass(self):
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def key(self) -> tuple:
        """Hashable form of :meth:`describe` (cache key)."""
        return tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(self.describe().items())
        )


@dataclass(frozen=True)
class NaiveSchedule(Schedule):
    """Whole-grid time-stepping (the reference semantics)."""

    kind = "naive"


@dataclass(frozen=True)
class SpatialBlockSchedule(Schedule):
    """Rectangular spatial blocking over the outer (non-vectorised) dimensions.

    ``block`` gives the block extent along each blocked dimension (x, then y
    for 3-D grids); the innermost dimension streams unblocked, matching the
    paper's baseline (Devito's spatially-blocked vectorised code).
    """

    block: Tuple[int, ...] = (8, 8)
    kind = "spatial"

    def __post_init__(self):
        if not self.block or any(b < 1 for b in self.block):
            raise ValueError(f"invalid block shape {self.block}")


@dataclass(frozen=True)
class WavefrontSchedule(Schedule):
    """Wave-front temporal blocking (WTB).

    Parameters
    ----------
    tile:
        Space-tile extent along each skewed dimension (``tile_x, tile_y`` in
        Table I).
    height:
        Number of timesteps evaluated per space-time tile (the wavefront
        depth).  Must be >= 1; height 1 degenerates to spatial blocking.
    """

    tile: Tuple[int, ...] = (32, 32)
    height: int = 4
    kind = "wavefront"

    def __post_init__(self):
        if not self.tile or any(t < 1 for t in self.tile):
            raise ValueError(f"invalid tile shape {self.tile}")
        if self.height < 1:
            raise ValueError("wavefront height must be >= 1")


def schedule_for(kind: str, ndim: int, cap: int) -> Schedule:
    """The one shape schedule *kind* runs as on an *ndim*-dimensional grid, at
    most *cap* steps high (the run's length, or its checkpoint cadence, so a
    restart is never coarser than asked).  The extents were measured on
    acoustic grids from 16³ to 384³ (EXPERIMENTS.md entry 22): 96² × h8 is
    within the run-to-run spread of the fastest WTB shape at every size, and
    64² is the fastest spatial block; the innermost dimension streams."""
    lead = max(1, ndim - 1)
    if kind == "naive":
        return NaiveSchedule()
    if kind == "spatial":
        return SpatialBlockSchedule(block=(64,) * lead)
    if kind == "wavefront":
        return WavefrontSchedule(tile=(96,) * lead, height=max(1, min(8, cap)))
    raise ValueError(f"unknown schedule kind {kind!r}; expected one of {SCHEDULES}")


def time_tiles(time_m: int, time_M: int, height: int) -> Iterator[Tuple[int, int]]:
    """Half-open time tiles ``[t0, t1)`` covering ``[time_m, time_M)``."""
    if height < 1:
        raise ValueError("tile height must be >= 1")
    t0 = time_m
    while t0 < time_M:
        yield (t0, min(t0 + height, time_M))
        t0 += height


def instance_lags(radii: Tuple[int, ...], nsteps: int) -> List[int]:
    """Cumulative wavefront lag per sweep instance of an *nsteps*-high tile.

    ``radii[j]`` is sweep *j*'s read radius.  Instance order is
    ``(t0, s0), (t0, s1), ..., (t0+1, s0), ...``; the first instance has lag
    0 and each following instance adds its own sweep's read radius, which
    guarantees ``L[A] - L[B] >= radius(A)`` for any reader A of any earlier
    producer B (see :mod:`repro.ir.dependencies`).
    """
    if nsteps < 1:
        raise ValueError("tile height must be >= 1")
    if not radii:
        raise ValueError("need at least one sweep")
    lags: List[int] = []
    current = 0
    for _step in range(nsteps):
        for r in radii:
            if lags:
                current += int(r)
            lags.append(current)
    return lags


def tile_origins(extents: Tuple[int, ...], tile: Tuple[int, ...], max_lag: int) -> Iterator[Tuple[int, ...]]:
    """Origins of skewed space tiles covering ``[0, extent + max_lag)`` per dim.

    Tiles are yielded in lexicographic ascending order — the legal sequential
    order for skewed wavefront execution (all dependencies point to lower
    skewed coordinates).
    """
    return product(*(range(0, e + max_lag, t) for e, t in zip(extents, tile)))


@functools.lru_cache(maxsize=64)
def lower(
    schedule: Schedule, shape: Tuple[int, ...], radii: Tuple[int, ...], height: int
) -> Tuple[Step, ...]:
    """The traversal of one *height*-step time tile of *schedule* over a grid
    of *shape* whose sweeps read *radii*, in execution order.

    A pure function of its four (hashable: schedules are frozen dataclasses,
    *shape* and *radii* tuples) arguments, memoised on all of them — a step
    list is replayed for every congruent time tile of every run in the
    process, and two grids or operators can never be handed each other's
    boxes.

    Each step ``(dt, j, box, sparse_box, tile, npoints)`` evaluates sweep *j*
    at timestep ``t0 + dt`` on the non-empty, grid-clipped half-open *box*
    (``npoints`` grid points, block/space-tile number ``tile``) and then
    runs sweep *j*'s sparse operators on ``sparse_box``: ``None`` = the whole
    grid, a box = that box only, :data:`NO_SPARSE` = not after this step.

    * naive (Listing 1): one whole-grid step per sweep;
    * spatial (Fig. 4a): a sweep's blocks over the leading dims in
      lexicographic order, trailing dims unblocked; the sparse operators
      run on the whole grid after the sweep's last block, which is why space
      blocking never conflicts with off-the-grid operators;
    * wavefront (Listing 6): for every space-tile origin of the skewed domain
      (ascending lexicographic), every instance ``(dt, j)`` on the tile
      window shifted left by its cumulative lag, its grid-aligned sparse
      operators restricted to the same window.

    Naive and spatial are the height-1 members of the family.  The list
    depends on a time tile only through its height.
    """
    nsweeps = len(radii)

    def step(dt: int, j: int, box: Box, sparse_box, tile: int) -> Step:
        npoints = 1
        for lo, hi in box:
            npoints *= hi - lo
        return (dt, j, box, sparse_box, tile, npoints)

    if isinstance(schedule, NaiveSchedule):
        full = tuple((0, n) for n in shape)
        return tuple(step(0, j, full, None, 0) for j in range(nsweeps))

    if isinstance(schedule, SpatialBlockSchedule):
        blocked = list(zip(shape, schedule.block))
        tail = tuple((0, n) for n in shape[len(blocked):])
        boxes = [
            tuple((lo, min(lo + b, n)) for lo, (n, b) in zip(los, blocked)) + tail
            for los in product(*(range(0, n, b) for n, b in blocked))
        ]
        last = len(boxes) - 1
        return tuple(
            step(0, j, box, None if b == last else NO_SPARSE, b)
            for j in range(nsweeps)
            for b, box in enumerate(boxes)
        )

    if not isinstance(schedule, WavefrontSchedule):
        raise TypeError(f"unknown schedule {schedule!r}")
    skewed = list(zip(shape, schedule.tile))
    tail = tuple((0, n) for n in shape[len(skewed):])
    lags = instance_lags(radii, height)
    instances = [(dt, j) for dt in range(height) for j in range(nsweeps)]
    steps: List[Step] = []
    origins = tile_origins(shape, schedule.tile, lags[-1])
    for tile_id, origin in enumerate(origins):
        for (dt, j), lag in zip(instances, lags):
            box = tuple(
                (max(o - lag, 0), min(o - lag + ext, n))
                for o, (n, ext) in zip(origin, skewed)
            )
            if all(lo < hi for lo, hi in box):
                box += tail
                steps.append(step(dt, j, box, box, tile_id))
    return tuple(steps)
