"""Static verification subsystem: dependence analysis, schedule-legality
certificates, kernel-IR linting and a dynamic shadow-memory race oracle.

Layers (each usable standalone):

* :mod:`repro.verify.dependence` — per-statement read/write access sets over
  every engine IR and flow/anti/output dependences with per-dimension
  distance vectors (supersedes the radius-only summary of
  :mod:`repro.ir.dependencies`).
* :mod:`repro.verify.prover` — :func:`prove_schedule` turns the dependence
  graph plus a schedule into a machine-checkable
  :class:`~repro.verify.certificate.LegalityCertificate`, or raises
  :class:`~repro.errors.ScheduleLegalityError` carrying a concrete
  :class:`~repro.verify.certificate.Counterexample` naming two conflicting
  statement instances ``(t, tile, point)``.
* :mod:`repro.verify.linter` — static checks over compiled sweeps; error
  findings reject the fused bind via
  :class:`~repro.errors.KernelLintError`.
* :mod:`repro.verify.oracle` — shadow-memory replay of real executions on
  small grids, confirming certified schedules race-free and counterexamples
  real.
* :mod:`repro.verify.absint` — the four static analyses: halo safety
  (:func:`prove_bounds` → :class:`~repro.verify.certificate.BoundsCertificate`,
  the gate at the top of every ``Operator.apply``), the whole-program
  scratch-slot liveness check, the NEP 50 dtype lattice behind W201, and the
  per-step amplitude-growth bound (:func:`prove_growth`).

``python -m repro.verify`` is the one CLI front-end over all of them.
"""

from .absint import (
    LivenessReport,
    analyse_programs,
    prove_bounds,
    prove_growth,
)
from .certificate import (
    BoundsCertificate,
    BoundsCounterexample,
    CheckedBound,
    CheckedDependence,
    CheckedGrowth,
    Counterexample,
    Diagnostic,
    GrowthCertificate,
    InstanceRef,
    LegalityCertificate,
)
from .dependence import (
    AccessInfo,
    Dependence,
    Statement,
    classify_indexed,
    compute_dependences,
    statements_for,
)
from .linter import (
    LintReport,
    lint_bound_sweeps,
    lint_equations,
    lint_operator,
)
from .oracle import OracleReport, RaceRecord, ShadowState, run_oracle
from .prover import offgrid_counterexample, prove_schedule, resolve_sparse_mode

__all__ = [
    "AccessInfo",
    "Statement",
    "Dependence",
    "classify_indexed",
    "statements_for",
    "compute_dependences",
    "InstanceRef",
    "Counterexample",
    "CheckedDependence",
    "LegalityCertificate",
    "CheckedBound",
    "BoundsCounterexample",
    "BoundsCertificate",
    "CheckedGrowth",
    "GrowthCertificate",
    "prove_bounds",
    "prove_growth",
    "LivenessReport",
    "analyse_programs",
    "prove_schedule",
    "offgrid_counterexample",
    "resolve_sparse_mode",
    "Diagnostic",
    "LintReport",
    "lint_equations",
    "lint_bound_sweeps",
    "lint_operator",
    "OracleReport",
    "RaceRecord",
    "ShadowState",
    "run_oracle",
]
