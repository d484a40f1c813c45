"""The precomputation report — §II's artefacts and their cost, inspectable.

:class:`Operator` runs the precomputation (discover → masks → decompose)
itself when a plan needs it; this class fills the operator's own caches
through the same calls and reports what they hold, for the overhead
accounting the paper's §IV-E relies on.  The run itself is
``op.apply(..., sparse_mode="precomputed")``, which validates the
artefacts before timestep 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..dsl.functions import Injection, Interpolation, SparseTimeFunction
from .decompose import DecomposedReceiver, DecomposedSource
from .masks import SourceMasks
from .scheduler import instance_lags

__all__ = ["TemporalBlockingPipeline", "PipelineReport"]


@dataclass
class PipelineReport:
    """Cost/shape summary of one precomputation run."""

    nsources: int
    nreceivers: int
    affected_points: int
    density: float
    pencil_occupancy: float
    aux_bytes: int
    wavefront_angle: int
    sweep_radii: List[int]
    lags_example: List[int] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "temporal-blocking precomputation report",
            f"  sparse operators : {self.nsources} injection(s), {self.nreceivers} interpolation(s)",
            f"  affected points  : {self.affected_points} "
            f"({self.density:.3%} of the grid, {self.pencil_occupancy:.3%} of pencils)",
            f"  auxiliary memory : {self.aux_bytes} bytes (nnz + Sp_SID + src_dcmp)",
            f"  wavefront angle  : {self.wavefront_angle} per timestep "
            f"(sweep radii {self.sweep_radii})",
        ]
        if self.lags_example:
            lines.append(f"  instance lags    : {self.lags_example} (one height-4 tile)")
        return "\n".join(lines)


class TemporalBlockingPipeline:
    """The paper's §II artefacts of an operator's sparse ops, and their report.

    Usage::

        pipe = TemporalBlockingPipeline(op, dt=2.0).precompute()  # Listings 2-3, Figs. 5-6
        print(pipe.report().render())
        op.apply(time_M=nt, dt=2.0, schedule="wavefront",
                 sparse_mode="precomputed")      # Listing 6, on the cached artefacts
    """

    def __init__(self, operator, dt: float):
        self.operator = operator
        self.dt = float(dt)
        # keyed like (and filled through) the operator's own caches: by the
        # sparse function / sparse operator object
        self.masks: Dict[SparseTimeFunction, SourceMasks] = {}
        self.sources: Dict[Injection, DecomposedSource] = {}
        self.receivers: Dict[Interpolation, DecomposedReceiver] = {}
        self._done = False

    def precompute(self) -> "TemporalBlockingPipeline":
        """Steps 1-3: affected points, masks, wavelet decomposition, through
        the operator's caches so ``apply`` reuses this work."""
        op = self.operator
        for inj in op.injections():
            self.sources[inj] = op._decomposed(inj, self.dt)
        for itp in op.interpolations():
            self.receivers[itp] = op._decomposed(itp, self.dt)
        for sp_op in op.sparse_ops:
            self.masks[sp_op.sparse] = op._masks_for(sp_op.sparse)
        self._done = True
        return self

    def report(self, example_height: int = 4) -> PipelineReport:
        if not self._done:
            raise RuntimeError("call precompute() first")
        npts = 0
        density = 0.0
        occupancy = 0.0
        aux = 0
        if self.masks:
            all_masks = list(self.masks.values())
            npts = sum(m.npts for m in all_masks)
            density = float(np.mean([m.density() for m in all_masks]))
            occupancy = float(np.mean([m.pencil_occupancy() for m in all_masks]))
            aux = sum(m.memory_bytes() for m in all_masks)
        # injections of one source with one scale share one src_dcmp array
        aux += sum({id(d.data): int(d.data.nbytes) for d in self.sources.values()}.values())
        radii = self.operator.sweep_radii
        return PipelineReport(
            nsources=len(self.sources),
            nreceivers=len(self.receivers),
            affected_points=npts,
            density=density,
            pencil_occupancy=occupancy,
            aux_bytes=aux,
            wavefront_angle=self.operator.wavefront_angle,
            sweep_radii=radii,
            lags_example=instance_lags(tuple(radii), example_height) if radii else [],
        )
