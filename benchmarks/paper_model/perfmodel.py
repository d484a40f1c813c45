"""Analytical performance model: schedules → per-level traffic → time.

The model is a cache-aware roofline (Ilic et al., the formulation the paper's
Fig. 11 uses) fed by working-set/layer-condition traffic analysis:

* **Per-level traffic.**  Each sweep reads a set of distinct data slices; a
  slice read with stencil radius *r* suffers reload multipliers at every
  cache level too small to retain its reuse layers (the classic layer
  conditions for an x-outer/z-inner traversal: retaining ``(2r+1)`` y-z
  slabs gives full reuse, retaining only ``(2r+1)`` z-pencils still leaves
  ``2r`` x-reloads, below that ``4r`` reloads).  Writes cost
  ``1 + write_allocate`` below L1.
* **Spatial blocking** streams every slice from DRAM once per timestep
  (plus block-halo overhead at the block-resident level).
* **Wavefront temporal blocking** divides DRAM traffic by the tile height
  ``TT`` and adds the skew overhead of re-reading the wavefront margins,
  ``angle*(TT-1)*(1/tile_x + 1/tile_y)``; it is feasible only while the
  skewed tile working set fits in the (effective) shared cache.
* **Sparse-operator overhead.**  Off-the-grid injection costs scatter
  traffic per source; the precomputed scheme costs the ``nnz``-mask stream
  plus per-affected-point updates (Listing 5) — this is what Fig. 10 sweeps.

Execution time per point per step is the max over {compute, L1, L2, L3,
DRAM} occupancies; the binding level is reported (and drives the roofline
plot of Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.scheduler import (
    NaiveSchedule,
    Schedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    instance_lags,
)

from .kernels import KernelSpec, SweepSpec
from .spec import MachineSpec

__all__ = ["GridGeometry", "SourceLoad", "PerfResult", "PerformanceModel"]


@dataclass(frozen=True)
class GridGeometry:
    """Problem geometry the model is evaluated at (paper scale: 512^3)."""

    shape: Tuple[int, ...]
    nsteps: int

    @property
    def points(self) -> float:
        return float(np.prod(self.shape))

    @property
    def nz(self) -> int:
        return int(self.shape[-1])


@dataclass(frozen=True)
class SourceLoad:
    """Sparse-operator load: number of sources and affected grid points."""

    nsources: int = 1
    npts: int = 8  # affected (grid-aligned) points after decomposition
    corners: int = 8  # support size per source (2^d)
    occupied_pencils: int = 4  # innermost pencils with nnz > 0


@dataclass
class PerfResult:
    """Modelled execution of one (kernel, schedule, machine, geometry)."""

    time_s: float
    gpoints_s: float
    gflops: float
    bound: str
    traffic_bytes_ppt: Dict[str, float]  # per point per step, by level
    occupancy_ns_ppt: Dict[str, float]
    feasible: bool = True
    note: str = ""

    def arithmetic_intensity(self, level: str, flops_ppt: float) -> float:
        b = self.traffic_bytes_ppt[level]
        return flops_ppt / b if b > 0 else float("inf")


def _stencil_multiplier(radius: int, cap: float, x_layer: float, y_layer: float) -> float:
    """Reload multiplier for a radius-r slice at a level of capacity *cap*."""
    if radius == 0:
        return 1.0
    m = 1.0
    if x_layer > cap:
        m += 2.0 * radius * (1.0 - min(1.0, cap / x_layer))
    if y_layer > cap:
        m += 2.0 * radius * (1.0 - min(1.0, cap / y_layer))
    return m


class PerformanceModel:
    """Evaluate schedules for one kernel on one machine and geometry."""

    def __init__(
        self,
        kernel: KernelSpec,
        machine: MachineSpec,
        geometry: GridGeometry,
        sources: Optional[SourceLoad] = None,
    ):
        self.kernel = kernel
        self.machine = machine
        self.geometry = geometry
        self.sources = sources

    # -- traffic ------------------------------------------------------------------
    def _sweep_level_traffic(self, sweep: SweepSpec, cap: float, block_y: int, halo_factor: float) -> float:
        """Bytes per point per step moved into the level below capacity *cap*."""
        dtype = self.kernel.dtype_bytes
        nz = self.geometry.nz
        wa = 1.0 + (1.0 if self.machine.write_allocate else 0.0)
        concurrency = max(1, sweep.concurrency)
        total = 0.0
        for sl in sweep.reads:
            x_layer = (2 * sl.radius + 1) * block_y * nz * dtype * concurrency
            y_layer = (2 * sl.radius + 1) * nz * dtype * concurrency
            mult = _stencil_multiplier(sl.radius, cap, x_layer, y_layer)
            halo = halo_factor if sl.radius > 0 else 0.0
            total += dtype * mult * (1.0 + halo * sl.radius)
        total += dtype * sweep.writes * wa
        return total

    def _block_halo(self, block: Tuple[int, ...]) -> float:
        """Per-unit-radius fractional halo overhead of a space block."""
        return sum(2.0 / b for b in block)

    def _base_traffic(self, block: Tuple[int, ...]) -> Dict[str, float]:
        """Per-level traffic (bytes/point/step) for one full timestep, before
        any temporal reuse."""
        m = self.machine
        dtype = self.kernel.dtype_bytes
        block_y = block[-1] if block else 8
        halo_l2 = self._block_halo(block) if block else 0.0
        out = {"L1": 0.0, "L2": 0.0, "L3": 0.0, "DRAM": 0.0}
        for sweep in self.kernel.sweeps:
            out["L1"] += dtype * sweep.accesses
            out["L2"] += self._sweep_level_traffic(sweep, m.l1.effective_bytes, block_y, 0.0)
            out["L3"] += self._sweep_level_traffic(sweep, m.l2.effective_bytes, block_y, halo_l2)
            out["DRAM"] += self._sweep_level_traffic(sweep, m.l3.effective_bytes, block_y, 0.0)
        return out

    # -- sparse-operator overhead ----------------------------------------------------
    def _sparse_overhead(self, schedule: Schedule) -> Tuple[float, float]:
        """(bytes, flops) per point per step added by the sparse operators."""
        if self.sources is None:
            return (0.0, 0.0)
        src = self.sources
        dtype = self.kernel.dtype_bytes
        points = self.geometry.points
        nz = self.geometry.nz
        if isinstance(schedule, WavefrontSchedule):
            # Listing 5: stream nnz_mask over all pencils, then per affected
            # point read Sp_SID + src_dcmp and read-modify-write the field;
            # the compressed loop is scalar (no SIMD), so charge extra flops
            pencil_bytes = points / nz * 4.0  # int32 nnz mask
            per_point = src.npts * (4.0 + dtype * 3.0)
            bytes_ppt = (pencil_bytes + per_point) / points
            flops_ppt = 8.0 * src.npts / points
        else:
            # Listing 1: read each source's wavelet sample, recompute its
            # interpolation weights, scatter to its 2^d support corners.  The
            # *unique* support cells (npts) bound the extra DRAM traffic —
            # repeat touches of shared corners hit cache
            bytes_ppt = (src.npts * 2.0 * dtype + src.nsources * dtype) / points
            flops_ppt = 8.0 * src.nsources * src.corners / points
        return (bytes_ppt, flops_ppt)

    # -- schedules ----------------------------------------------------------------
    def wavefront_working_set(self, schedule: WavefrontSchedule) -> float:
        """Bytes the skewed space-time tile keeps live in the shared cache."""
        # the live wavefront band: per tile pass, the slices that must survive
        # until the next instance revisits them.  The skew margins are shared
        # with neighbouring tiles and stream through; what must be *retained*
        # is the tile's own area times the forward time slices + model fields.
        footprint = 1.0
        for t in schedule.tile:
            footprint *= t
        retained = self.kernel.retained_bytes_per_point or self.kernel.state_bytes_per_point
        return footprint * self.geometry.nz * retained

    def max_feasible_height(self, tile: Tuple[int, ...], cap_fraction: float = 1.0, limit: int = 64) -> int:
        """Largest tile height whose working set fits the shared cache."""
        best = 1
        for h in range(2, limit + 1):
            ws = self.wavefront_working_set(WavefrontSchedule(tile=tile, height=h))
            if ws <= self.machine.l3.effective_bytes * cap_fraction:
                best = h
            else:
                break
        return best

    def evaluate(self, schedule: Schedule, block: Tuple[int, ...] = (8, 8)) -> PerfResult:
        """Model *schedule*; *block* is a wavefront's space block within a
        tile (``block_x, block_y`` in Table I).  The schedule carries no such
        block, because the executor runs each tile window whole; a spatial
        schedule is modelled at its own block."""
        m = self.machine
        geo = self.geometry
        kernel = self.kernel

        if isinstance(schedule, SpatialBlockSchedule):
            block = schedule.block
        elif not isinstance(schedule, WavefrontSchedule):
            block = tuple()  # naive: no blocking, whole rows stream

        traffic = self._base_traffic(block)

        note = ""
        feasible = True
        if isinstance(schedule, NaiveSchedule):
            # no blocking: mid-level layer conditions evaluated with a huge
            # effective slab (approximate with block_y = full extent)
            traffic = self._base_traffic((geo.shape[0], geo.shape[1] if len(geo.shape) > 1 else 1))
        elif isinstance(schedule, WavefrontSchedule):
            ws = self.wavefront_working_set(schedule)
            if ws > m.l3.effective_bytes:
                feasible = False
                note = (
                    f"tile working set {ws / 2**20:.1f} MiB exceeds effective "
                    f"L3 {m.l3.effective_bytes / 2**20:.1f} MiB"
                )
            height = schedule.height
            # a height-1 "tile" has no temporal reuse to protect: the code
            # degenerates to plain spatial blocking, with no skew.  Otherwise
            # the skew is the last lag of lower()'s own lag table (multi-sweep
            # kernels skew *within* a timestep too, Fig. 8b)
            radii = tuple(s.radius for s in kernel.sweeps)
            span = instance_lags(radii, height)[-1] if height > 1 else 0
            skew = span * sum(1.0 / t for t in schedule.tile)
            traffic["DRAM"] = traffic["DRAM"] * (1.0 + skew) / height
            traffic["L3"] = traffic["L3"] * (1.0 + 0.5 * skew)

        sparse_bytes, sparse_flops = self._sparse_overhead(schedule)
        traffic["DRAM"] += sparse_bytes
        traffic["L3"] += sparse_bytes
        traffic["L1"] += sparse_bytes

        flops_ppt = kernel.flops_per_point_step + sparse_flops

        occupancy = {
            "compute": flops_ppt / m.sustained_gflops,  # ns per point
            "L1": traffic["L1"] / m.l1.bandwidth_gbs,
            "L2": traffic["L2"] / m.l2.bandwidth_gbs,
            "L3": traffic["L3"] / m.l3.bandwidth_gbs,
            "DRAM": traffic["DRAM"] / m.dram_bandwidth_gbs,
        }
        bound = max(occupancy, key=occupancy.get)
        t_ppt_ns = occupancy[bound]
        total_s = t_ppt_ns * 1e-9 * geo.points * geo.nsteps
        if not feasible:
            # an infeasible tile thrashes: charge DRAM the un-tiled price plus
            # the skew overhead it still pays
            occupancy["DRAM"] = (
                self._base_traffic(block)["DRAM"] + sparse_bytes
            ) / m.dram_bandwidth_gbs * 1.15
            bound = max(occupancy, key=occupancy.get)
            t_ppt_ns = occupancy[bound]
            total_s = t_ppt_ns * 1e-9 * geo.points * geo.nsteps

        return PerfResult(
            time_s=total_s,
            gpoints_s=geo.points * geo.nsteps / total_s / 1e9,
            gflops=flops_ppt * geo.points * geo.nsteps / total_s / 1e9,
            bound=bound,
            traffic_bytes_ppt=traffic,
            occupancy_ns_ppt=occupancy,
            feasible=feasible,
            note=note,
        )

    def speedup(self, schedule: Schedule, baseline: Optional[Schedule] = None) -> float:
        """Throughput ratio of *schedule* over the spatially-blocked baseline."""
        baseline = baseline or SpatialBlockSchedule(block=(8, 8))
        return self.evaluate(baseline).time_s / self.evaluate(schedule).time_s
