"""Memory-trace generation for schedules, at pencil granularity.

Stencil kernels with a vectorised innermost (z) dimension touch memory in
whole z-pencils; a "chunk" here is one ``(slice, x, y)`` pencil.  This is the
natural granularity at which the layer conditions and temporal reuse act, and
it keeps traces short enough to drive the Python cache simulator.

The generator replays the *exact* traversal each schedule performs — the same
:func:`~repro.core.scheduler.lower` step list the NumPy executor walks —
emitting, for every grid row ``(x, y)`` visited by a sweep instance, the
pencils of every slice the sweep reads (at all its x/y stencil offsets) and
writes.  Circular time buffers are
honoured, so inter-timestep reuse (and its capacity limits) is visible to the
simulator.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..core.scheduler import Schedule, lower, time_tiles
from ..machine.kernels import KernelSpec, SliceAccess

__all__ = ["TraceGeometry", "ChunkAddresser", "schedule_trace", "simulate_schedule"]


class TraceGeometry:
    """x-y extent of the traced grid (z collapsed into the pencil chunk)."""

    def __init__(self, nx: int, ny: int, nz: int):
        self.nx, self.ny, self.nz = int(nx), int(ny), int(nz)

    @property
    def rows(self) -> int:
        return self.nx * self.ny


class ChunkAddresser:
    """Assigns each (slice, physical buffer, x, y) pencil a unique id."""

    def __init__(self, spec: KernelSpec, geom: TraceGeometry):
        self.geom = geom
        self._bases: Dict[Tuple[str, int], int] = {}
        next_base = 0
        seen: Dict[str, int] = {}
        for sweep in spec.sweeps:
            for sl in list(sweep.reads) + list(sweep.writes_detail):
                fname = sl.name.split("@")[0]
                if fname not in seen:
                    seen[fname] = sl.buffers
                else:
                    seen[fname] = max(seen[fname], sl.buffers)
        for fname in sorted(seen):
            for b in range(seen[fname]):
                self._bases[(fname, b)] = next_base
                next_base += geom.rows
        self.total_chunks = next_base
        self._buffers = seen

    def pencil(self, slice_access: SliceAccess, t: int, x: int, y: int) -> int:
        fname = slice_access.name.split("@")[0]
        nb = self._buffers[fname]
        buf = (t + (slice_access.time_offset or 0)) % nb if nb > 1 else 0
        return self._bases[(fname, buf)] + x * self.geom.ny + y


def _row_chunks(
    addresser: ChunkAddresser,
    spec_sweep,
    t: int,
    x: int,
    y: int,
    geom: TraceGeometry,
) -> Iterator[int]:
    """Pencils touched when the sweep processes row (x, y) at step t."""
    for sl in spec_sweep.reads:
        r = sl.radius
        if r == 0:
            yield addresser.pencil(sl, t, x, y)
        else:
            for ox in range(-r, r + 1):
                xx = min(max(x + ox, 0), geom.nx - 1)
                yield addresser.pencil(sl, t, xx, y)
            for oy in (-o for o in range(1, r + 1)):
                yy = min(max(y + oy, 0), geom.ny - 1)
                yield addresser.pencil(sl, t, x, yy)
            for oy in range(1, r + 1):
                yy = min(max(y + oy, 0), geom.ny - 1)
                yield addresser.pencil(sl, t, x, yy)
    for sl in spec_sweep.writes_detail:
        yield addresser.pencil(sl, t, x, y)


def schedule_trace(
    spec: KernelSpec,
    geom: TraceGeometry,
    schedule: Schedule,
    time_m: int,
    time_M: int,
    addresser: Optional[ChunkAddresser] = None,
) -> Iterator[int]:
    """Yield the pencil-chunk access stream of a schedule."""
    if not isinstance(schedule, Schedule):
        raise TypeError(f"cannot trace schedule {schedule!r}")
    addresser = addresser or ChunkAddresser(spec, geom)
    radii = tuple(s.radius for s in spec.sweeps)
    for t0, t1 in time_tiles(time_m, time_M, schedule.height):
        steps = lower(schedule, (geom.nx, geom.ny), radii, t1 - t0)
        for dt, j, ((x0, x1), (y0, y1)), _sparse_box, _tile, _npoints in steps:
            sweep = spec.sweeps[j]
            for x in range(x0, x1):
                for y in range(y0, y1):
                    yield from _row_chunks(addresser, sweep, t0 + dt, x, y, geom)


def simulate_schedule(
    spec: KernelSpec,
    geom: TraceGeometry,
    schedule: Schedule,
    nsteps: int,
    cache_levels,
    warmup_steps: int = 0,
):
    """Run a schedule's trace through a cache hierarchy; returns stats.

    ``cache_levels`` is [(name, capacity_bytes), ...]; capacities are
    converted to pencil chunks of ``nz * dtype`` bytes.
    """
    from ..machine.cache import CacheHierarchy

    chunk_bytes = geom.nz * spec.dtype_bytes
    levels = [
        (name, max(int(cap // chunk_bytes), 1)) for name, cap in cache_levels
    ]
    hier = CacheHierarchy(levels, chunk_bytes=chunk_bytes)
    addresser = ChunkAddresser(spec, geom)
    if warmup_steps:
        hier.access_many(
            schedule_trace(spec, geom, schedule, 0, warmup_steps, addresser)
        )
        hier.reset()
        start = warmup_steps
    else:
        start = 0
    hier.access_many(
        schedule_trace(spec, geom, schedule, start, start + nsteps, addresser)
    )
    return hier.stats()
