"""Kernel-IR linter: the report of ``python -m repro.verify``.

It checks what no other layer owns, at two levels:

* **equation level**: dtype narrowing through the store (``W201``, via the
  abstract NEP 50 promotion lattice of :mod:`repro.verify.absint.dtypes` —
  the message names the statement and the exact promotion chain that
  produced the wider dtype).
* **kernel level**: the three-address program of each sweep
  (:attr:`~repro.ir.nodes.CompiledSweep.program`) is analysed by the
  whole-program scratch scan of :mod:`repro.verify.absint.liveness` — a read
  of a slot never written in this kernel observes stale pooled memory from
  some earlier sweep (``E301``, naming the producing sweep); a value stored
  to a slot and never consumed is a dead statement (``W302``) — and each
  kernel's instruction count is reported (``ninstr``).

Nothing here gates a bind.  Halo safety is the bounds certificate's
(``Operator.apply`` raises :class:`~repro.errors.BoundsProofError` before
any engine binds); a sweep never reads its own writes at nonzero radius nor
writes one slot twice, because :func:`~repro.ir.dependencies.build_sweeps`
starts a new sweep there; and a non-pointwise write is refused when the
operator is built.

Run from the command line as ``python -m repro.verify <example|--all>
[--json]`` (see :mod:`repro.verify.__main__`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .absint.dtypes import expr_dtype, is_weak
from .absint.liveness import LivenessReport, analyse_programs
from .certificate import Diagnostic

__all__ = [
    "Diagnostic",
    "LintReport",
    "lint_equations",
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
    """The dtype check (``W201``) on the (possibly dt-bound) equations of
    one sweep."""
    diags: List[Diagnostic] = []
    for eq in eqs:
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


def lint_operator(op, dt: float = 1.0) -> LintReport:
    """Lint *op*: the dtype check on every sweep, plus scratch-slot analysis
    and instruction counts of the fused kernels when the fused engine
    compiles.

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
    report.ninstr = {j: len(p.instrs) for j, p in enumerate(programs) if p is not None}
    if report.ninstr:
        report.scratch = analyse_programs(programs)
        report.diagnostics.extend(report.scratch.findings)
    return report
