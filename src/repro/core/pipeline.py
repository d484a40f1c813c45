"""End-to-end precomputation pipeline — §II as an explicit, inspectable object.

:class:`Operator` runs the same machinery implicitly when handed a
:class:`~repro.core.scheduler.WavefrontSchedule`; this class exposes the
individual steps (discover → masks → decompose) with their intermediate
artefacts and cost accounting, for users who want to inspect or reuse them
(e.g. amortising one decomposition across many shots) and for the overhead
reporting the paper's §IV-E relies on.  It fills the operator's own caches,
so the run itself is ``op.apply(..., sparse_mode="precomputed")``.
"""

from __future__ import annotations

from contextlib import nullcontext
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
            f"  auxiliary memory : {self.aux_bytes} bytes (SM + SID + nnz + Sp_SID + src_dcmp)",
            f"  wavefront angle  : {self.wavefront_angle} per timestep "
            f"(sweep radii {self.sweep_radii})",
        ]
        if self.lags_example:
            lines.append(f"  instance lags    : {self.lags_example} (one height-4 tile)")
        return "\n".join(lines)


class TemporalBlockingPipeline:
    """Run the paper's §II steps explicitly over an operator's sparse ops.

    Usage::

        pipe = TemporalBlockingPipeline(op, dt=2.0)
        pipe.precompute()                        # Listings 2-3, Figs. 5-6
        print(pipe.report().render())
        op.apply(time_M=nt, dt=2.0, schedule=WavefrontSchedule(tile=(32, 32)),
                 sparse_mode="precomputed")      # Listing 6, on the cached artefacts
    """

    def __init__(self, operator, dt: float, model=None, kind: str = "acoustic"):
        self.operator = operator
        self.dt = float(dt)
        self.model = model
        self.kind = kind
        # keyed like (and filled through) the operator's own caches: by the
        # sparse function / sparse operator object
        self.masks: Dict[SparseTimeFunction, SourceMasks] = {}
        self.sources: Dict[Injection, DecomposedSource] = {}
        self.receivers: Dict[Interpolation, DecomposedReceiver] = {}
        self._done = False

    # -- pre-flight ----------------------------------------------------------------
    def preflight(self, cfl_policy: str = "raise") -> "TemporalBlockingPipeline":
        """Validate inputs before any precomputation or timestepping.

        Checks, in order: the CFL condition of :attr:`dt` against the model's
        critical timestep (only when a *model* was given; policy ``"raise"``
        or ``"warn"``), every sparse operator's coordinates against the
        physical domain, and — after :meth:`precompute` — the structural
        consistency of the masks and decomposed wavelets.  Raises the
        structured errors of :mod:`repro.errors`.
        """
        from ..runtime.preflight import check_cfl, check_coordinates, check_masks

        if self.model is not None:
            check_cfl(self.dt, self.model, kind=self.kind, policy=cfl_policy)
        for sparse_fn in dict.fromkeys(sp_op.sparse for sp_op in self.operator.sparse_ops):
            check_coordinates(sparse_fn)
        if self._done:
            for masks in self.masks.values():
                check_masks(masks)
        return self

    # -- the steps -----------------------------------------------------------------
    def precompute(
        self, method: str = "analytic", telemetry=None
    ) -> "TemporalBlockingPipeline":
        """Steps 1-3: affected points, masks, wavelet decomposition.

        Runs :meth:`preflight` first (geometry + CFL when a model is
        attached), then once more after building the sparse structures so a
        corrupted mask never reaches the executors.  With *telemetry* given,
        the whole precomputation is recorded as a ``pipeline.precompute``
        span (sub-spans per decomposition step) accumulated into the
        ``precompute`` phase.
        """
        pspan = None
        if telemetry is not None:
            pspan = telemetry.begin(
                "pipeline.precompute", phase="precompute", method=method
            )
        self.preflight()
        op = self.operator

        def step(name, sp_op):
            if telemetry is None:
                return nullcontext()
            return telemetry.span(name, phase="precompute", sparse=sp_op.sparse.name)

        # through the operator's caches, so apply() reuses this work
        for inj in op.injections():
            with step("decompose.source", inj):
                self.sources[inj] = op._decomposed(inj, self.dt, method)
        for itp in op.interpolations():
            with step("decompose.receiver", itp):
                self.receivers[itp] = op._decomposed(itp, self.dt, method)
        for sp_op in op.sparse_ops:
            self.masks[sp_op.sparse] = op._masks_for(sp_op.sparse)
        self._done = True
        from ..runtime.preflight import check_masks

        for masks in self.masks.values():
            check_masks(masks)
        if pspan is not None:
            telemetry.end(pspan)
            telemetry.add_phase("precompute", pspan.dur)
        return self

    # -- accounting ---------------------------------------------------------------------
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
