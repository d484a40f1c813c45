"""Kernel-IR linter over compiled sweeps.

Static checks at two levels:

* **equation level** (any engine): out-of-bounds stencil footprint vs the
  declared halo (``E101``), non-pointwise writes (``E102``), intra-sweep
  aliasing reads at nonzero radius (``E401``), duplicate ``(field, time)``
  writes within a sweep (``E402``), and dtype narrowing through the store
  (``W201``, via the abstract NEP 50 promotion lattice of
  :mod:`repro.verify.absint.dtypes` — the message names the statement and the
  exact promotion chain that produced the wider dtype).
* **kernel level** (compiled engines): the three-address program of each
  sweep (:attr:`~repro.ir.nodes.CompiledSweep.program`) is analysed by the
  whole-program scratch scan of
  :mod:`repro.verify.absint.liveness` — a read of a slot never written in
  this kernel observes stale pooled memory from some earlier sweep
  (``E301``, naming the producing sweep); a value stored to a slot and never
  consumed is a dead statement (``W302``).

Error-severity findings reject the fused bind: :meth:`Operator._build_sweeps`
raises :class:`~repro.errors.KernelLintError` (an
:class:`~repro.errors.EngineCompilationError`), so the engine ladder degrades
fused -> interp exactly as for any compilation failure, and strict mode
surfaces the diagnostics.  (``E101`` never gets that far at run time: it
renders the same :func:`~repro.verify.absint.bounds.halo_margins` the halo
certificate checks, and ``Operator.apply`` rejects on that certificate before
any engine binds.)

Run from the command line as ``python -m repro.verify <example|--all>
[--json]`` (see :mod:`repro.verify.__main__`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..ir.dependencies import read_accesses, written_access
from .absint.bounds import halo_margins
from .absint.dtypes import expr_dtype, is_weak
from .absint.liveness import LivenessReport, analyse_programs
from .certificate import Diagnostic

__all__ = [
    "Diagnostic",
    "LintReport",
    "lint_equations",
    "lint_bound_sweeps",
    "lint_operator",
]


@dataclass
class LintReport:
    """All findings for one operator."""

    name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: whole-program scratch analysis, when the fused kernels compiled
    scratch: Optional[LivenessReport] = None
    #: fused-kernel instruction count per sweep index: one whole-box ufunc
    #: pass each, the quantity the NumPy engine's speed is bound by
    ninstr: Dict[int, int] = field(default_factory=dict)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "scratch": self.scratch.to_dict() if self.scratch is not None else None,
            "ninstr": {str(j): n for j, n in sorted(self.ninstr.items())},
        }

    def render(self) -> str:
        lines = [
            f"{self.name}: "
            f"{'OK' if self.ok else 'FAIL'} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        ]
        lines.extend("  " + d.render() for d in self.diagnostics)
        return "\n".join(lines)


# -- equation-level checks ------------------------------------------------------


def _abstract_dtype(rhs) -> "tuple[Optional[str], List[str]]":
    """The dtype of *rhs* under the abstract NEP 50 promotion lattice, plus
    the promotion chain (every step where the accumulated dtype widened)."""
    try:
        return expr_dtype(rhs, lambda a: a.function.dtype)
    except (TypeError, ValueError):
        return None, []  # unbound symbols etc.: other checks own that failure


def lint_equations(eqs, sweep: Optional[int] = None) -> List[Diagnostic]:
    """Halo-footprint, pointwise-write, aliasing and dtype checks on the
    (possibly dt-bound) equations of one sweep."""
    diags: List[Diagnostic] = []
    produced: set = set()
    for eq in eqs:
        w = written_access(eq)
        reads = read_accesses(eq)
        for a in reads:
            halo = getattr(a.function, "halo", 0)
            bad = [(d, s) for d, s, lo, hi in halo_margins(a) if lo < 0 or hi < 0]
            if bad:
                dims = ", ".join(f"{d}{s:+d}" for d, s in bad)
                diags.append(
                    Diagnostic(
                        "E101",
                        "error",
                        f"stencil footprint exceeds the declared halo of "
                        f"{a.function.name!r} (halo={halo}): offsets {dims} "
                        f"in {eq}",
                        sweep=sweep,
                        statement=str(eq),
                        field=a.function.name,
                    )
                )
        if w.radius > 0:
            diags.append(
                Diagnostic(
                    "E102",
                    "error",
                    f"non-pointwise write {eq.lhs} (radius {w.radius}): "
                    "explicit FD sweeps must write at the iteration point",
                    sweep=sweep,
                    statement=str(eq),
                    field=w.function.name,
                )
            )
        for a in reads:
            key = (a.function.name, a.time_offset)
            if key in produced and a.radius > 0:
                diags.append(
                    Diagnostic(
                        "E401",
                        "error",
                        f"intra-sweep aliasing read: {eq} reads "
                        f"{a.function.name}[t+{a.time_offset}] at radius "
                        f"{a.radius} although an earlier equation of the same "
                        "sweep writes that slot — the read crosses the box "
                        "boundary into not-yet-computed data",
                        sweep=sweep,
                        statement=str(eq),
                        field=a.function.name,
                    )
                )
        wkey = (w.function.name, w.time_offset)
        if wkey in produced:
            diags.append(
                Diagnostic(
                    "E402",
                    "error",
                    f"duplicate write to {w.function.name}[t+{w.time_offset}] "
                    "within one sweep: the earlier statement is dead",
                    sweep=sweep,
                    statement=str(eq),
                    field=w.function.name,
                )
            )
        produced.add(wkey)
        elem, chain = _abstract_dtype(eq.rhs)
        out_dtype = np.dtype(eq.lhs.function.dtype).name
        # weak scalars adapt to the stored dtype under NEP 50: no narrowing
        if elem is not None and not is_weak(elem) and elem != out_dtype:
            trace = " ; ".join(chain) if chain else "leaf dtype, no promotions"
            diags.append(
                Diagnostic(
                    "W201",
                    "warning",
                    f"store narrows/casts: {eq} evaluates to {elem} but "
                    f"{eq.lhs.function.name!r} holds {out_dtype} "
                    f"(promotion chain: {trace})",
                    sweep=sweep,
                    statement=str(eq),
                    field=eq.lhs.function.name,
                )
            )
    return diags


# -- entry points ----------------------------------------------------------------


def _scratch_analysis(report: LintReport, programs) -> None:
    """Whole-program scratch analysis over the per-sweep kernel programs
    (``None`` for a sweep without one); also records each compiled sweep's
    instruction count."""
    report.ninstr = {j: len(p.instrs) for j, p in enumerate(programs) if p is not None}
    if not report.ninstr:
        return
    report.scratch = analyse_programs(programs)
    report.diagnostics.extend(report.scratch.findings)


def lint_bound_sweeps(bound_sweeps, name: str = "Kernel") -> LintReport:
    """Lint already-bound sweeps (the fused rung of the engine ladder)."""
    report = LintReport(name=name)
    programs = []
    for j, sw in enumerate(bound_sweeps):
        report.diagnostics.extend(lint_equations(sw.eqs, sweep=j))
        programs.append(sw.kernel_program())
    _scratch_analysis(report, programs)
    return report


def lint_operator(op, dt: float = 1.0) -> LintReport:
    """Lint *op*: equation-level checks on every sweep, plus scratch-slot
    analysis of the fused kernels when the fused engine compiles.

    Lints :meth:`~repro.ir.operator.Operator.bound_equations` — ``dt`` and
    the grid spacings substituted, coefficients factorised — so the analysis
    sees the very expressions the engines execute.
    """
    from ..errors import EngineCompilationError
    from ..execution.evalbox import BoundEq, compile_front_half

    report = LintReport(name=op.name)
    programs = []
    for j, eqs in enumerate(op.bound_equations(dt)):
        report.diagnostics.extend(lint_equations(eqs, sweep=j))
        program = None
        try:
            program = compile_front_half([BoundEq(e, op.grid) for e in eqs], "fused")[2].program
        except EngineCompilationError as exc:
            report.diagnostics.append(
                Diagnostic(
                    "W001",
                    "warning",
                    f"fused engine failed to compile sweep {j} ({exc}); "
                    "scratch-slot analysis skipped (execution would degrade "
                    "down the engine ladder)",
                    sweep=j,
                )
            )
        except ValueError as exc:
            report.diagnostics.append(
                Diagnostic(
                    "E001",
                    "error",
                    f"sweep {j} fails equation validation: {exc}",
                    sweep=j,
                )
            )
        programs.append(program)
    _scratch_analysis(report, programs)
    return report
