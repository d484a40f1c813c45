"""Common propagator machinery: operator caching and forward modelling."""

from __future__ import annotations

from typing import List, Optional, Union

from ..core.scheduler import Schedule
from ..dsl.functions import SparseTimeFunction, TimeFunction
from ..ir.operator import Operator
from .model import SeismicModel

__all__ = ["Propagator"]


class Propagator:
    """Base class of the three wave propagators of §III.

    Subclasses build the symbolic equations and sparse operators in
    ``_build()`` and list their time-stepped fields in ``self.fields``.
    """

    kind = "abstract"

    def __init__(
        self,
        model: SeismicModel,
        space_order: int = 8,
        source: Optional[SparseTimeFunction] = None,
        receivers: Optional[SparseTimeFunction] = None,
    ):
        self.model = model
        self.grid = model.grid
        self.space_order = int(space_order)
        self.source = source
        self.receivers = receivers
        self.fields: List[TimeFunction] = []
        self._op: Optional[Operator] = None

    # -- to be provided by subclasses ------------------------------------------------
    def _build(self) -> Operator:
        raise NotImplementedError

    # -- public API ------------------------------------------------------------------
    @property
    def op(self) -> Operator:
        if self._op is None:
            self._op = self._build()
        return self._op

    def zero_fields(self) -> None:
        """Reset all wavefields (zero initial conditions, as the paper)."""
        for f in self.fields:
            f.data_with_halo[...] = 0.0

    def critical_dt(self, cfl: Optional[float] = None) -> float:
        return self.model.critical_dt(self.kind, cfl=cfl)

    def forward(
        self,
        nt: Optional[int] = None,
        tn: Optional[float] = None,
        dt: Optional[float] = None,
        schedule: Union[Schedule, str, None] = None,
        sparse_mode: str = "auto",
        engine: Optional[str] = None,
        checkpoint=None,
        faults=None,
        abft=None,
        cfl: str = "warn",
        strict_engine: bool = False,
        telemetry=None,
    ):
        """Run the forward model for *nt* steps (or *tn* ms) under *schedule*
        (a ``Schedule``, or a kind run as its one shape: see ``Operator.apply``).

        ``engine`` selects the sweep execution engine ("c"/"fused"/"interp",
        default the head of the ladder; see
        :meth:`repro.ir.operator.Operator.apply`).
        Returns ``(receiver_data, plan)``; wavefields stay on the propagator's
        :class:`TimeFunction` objects for inspection.  Wavefields and
        receivers start from zero unless the run resumes (below).

        ``cfl`` sets the pre-flight stability policy for an explicit *dt*:
        ``"warn"`` (default) emits a :class:`~repro.errors.StabilityWarning`
        when *dt* exceeds the critical timestep — unstable runs remain legal,
        the blow-up demonstration depends on them — ``"raise"`` turns it into
        a :class:`~repro.errors.StabilityViolation`, ``"ignore"`` skips the
        check.  ``checkpoint``/``faults``/``abft`` attach the runtime
        resilience layer (see :mod:`repro.runtime`; ``abft`` is the one
        guard: NaN/Inf blow-ups and silent corruption at tile boundaries,
        the latter recovered by tile-granular re-execution); with
        ``checkpoint.resume`` set and a snapshot available the wavefields are
        *not* reset — the run continues from the restored state.
        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry` buffer
        (phase-level timing, counters, optional per-instance trace spans).
        """
        if dt is None:
            dt = self.critical_dt()
        elif cfl != "ignore":
            from ..runtime.preflight import check_cfl

            check_cfl(dt, self.model, kind=self.kind, policy=cfl)
        if nt is None:
            if tn is None:
                raise ValueError("give either nt or tn")
            nt = self.model.nt_for(tn, dt)
        if self.source is not None and self.source.nt < nt:
            raise ValueError(
                f"source holds {self.source.nt} samples but {nt} steps requested"
            )
        resuming = checkpoint is not None and checkpoint.resume_snapshot() is not None
        if not resuming:
            self.zero_fields()
            if self.receivers is not None:
                self.receivers.data[...] = 0.0
        plan = self.op.apply(
            time_M=nt,
            dt=dt,
            schedule=schedule,
            sparse_mode=sparse_mode,
            engine=engine,
            checkpoint=checkpoint,
            faults=faults,
            abft=abft,
            strict_engine=strict_engine,
            telemetry=telemetry,
        )
        rec = self.receivers.data.copy() if self.receivers is not None else None
        return rec, plan

    def __repr__(self) -> str:
        return f"{type(self).__name__}(so={self.space_order}, model={self.model!r})"
