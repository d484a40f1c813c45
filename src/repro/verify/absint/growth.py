"""Per-step amplitude-growth bounds via interval abstract interpretation.

The ABFT guard (:mod:`repro.runtime.abft`) needs one number per operator: a
bound ``G`` on how much a single timestep can amplify the state's max-norm,
so that at a time-tile boundary the runtime can assert
``|u|_exit <= slack * (G**h * |u|_entry + source energy)`` and attribute any
violation to silent data corruption.  Because every update is *linear* in
the wavefields, that bound is the image of the update expression under
interval arithmetic with the wavefield reads set to the unit interval
``[-1, 1]`` and the model reads set to their actual data range — exactly
the kind of question the absint framework answers.

Two evaluation vehicles, bit-aligned with the execution engines:

* :class:`GrowthPass` — a forward :class:`~repro.verify.absint.framework.
  DataflowPass` over the fused three-address program
  (:meth:`~repro.execution.evalbox.BoundSweep.kernel_program`), propagating
  one interval per scratch slot exactly as :class:`~repro.verify.absint.
  dtypes.DtypePass` propagates dtypes.
* an expression-tree interval evaluator for the non-fused engines (and as
  the fallback when no program is available), walking the bound equation's
  right-hand side directly.

:func:`prove_growth` runs whichever applies per sweep and assembles a
:class:`~repro.verify.certificate.GrowthCertificate` — the peer of
:class:`~repro.verify.certificate.BoundsCertificate` for the amplitude
invariant.  A division whose abstract denominator straddles zero yields an
infinite gain and an unsatisfied check: the certificate then cannot support
a runtime amplitude bound and the guard degrades to checksum-only mode.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...dsl.functions import TimeFunction
from ...dsl.symbols import Add, Call, Indexed, Mul, Number, Pow, Symbol
from ..certificate import CheckedGrowth, GrowthCertificate
from .framework import DataflowPass, run_pass

__all__ = ["GrowthPass", "prove_growth", "interval_ufunc", "read_interval"]

Interval = Tuple[float, float]

FULL: Interval = (-math.inf, math.inf)
UNIT: Interval = (-1.0, 1.0)


def _mul(a: Interval, b: Interval) -> Interval:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    # IEEE 0 * inf is NaN; in interval arithmetic that corner is 0
    products = [0.0 if math.isnan(p) else p for p in products]
    return (min(products), max(products))


def _div(a: Interval, b: Interval) -> Interval:
    if b[0] <= 0.0 <= b[1]:
        return FULL
    return _mul(a, (1.0 / b[1], 1.0 / b[0]))


def _ipow(a: Interval, e: int) -> Interval:
    if e == 0:
        return (1.0, 1.0)
    if e < 0:
        return _div((1.0, 1.0), _ipow(a, -e))
    out = a
    for _ in range(e - 1):
        out = _mul(out, a)
    return out


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def interval_ufunc(op: str, args: Sequence[Interval]) -> Interval:
    """The image of ``np.op`` over interval *args* (conservative)."""
    if op == "add":
        lo, hi = 0.0, 0.0
        for a in args:
            lo, hi = lo + a[0], hi + a[1]
        return (lo, hi)
    if op == "subtract":
        a, b = args
        return (a[0] - b[1], a[1] - b[0])
    if op == "multiply":
        acc = args[0]
        for b in args[1:]:
            acc = _mul(acc, b)
        return acc
    if op in ("divide", "true_divide"):
        return _div(args[0], args[1])
    if op == "power":
        a, b = args
        if b[0] == b[1] and float(b[0]).is_integer():
            return _ipow(a, int(b[0]))
        if a[0] >= 0.0:
            return (a[0] ** b[0], a[1] ** b[1])
        return FULL
    if op in ("sin", "cos"):
        return UNIT
    if op == "tan":
        return FULL
    if op == "sqrt":
        a = args[0]
        return (math.sqrt(max(a[0], 0.0)), math.sqrt(max(a[1], 0.0)))
    if op == "exp":
        a = args[0]
        return (_exp(a[0]), _exp(a[1]))
    return FULL


def read_interval(access: Indexed) -> Interval:
    """The abstract value of one read: unit amplitude for wavefields, the
    actual data range for model/hoisted arrays (interior only — halo points
    of hoisted invariants may legitimately hold inf, and boxes never read
    them)."""
    func = access.function
    if isinstance(func, TimeFunction):
        return UNIT
    if hasattr(func, "materialise"):  # HoistedField: lazily computed buffer
        func.materialise()
        buf = func.data_with_halo
        h = func.halo
        arr = buf[tuple(slice(h, s - h) for s in buf.shape)]
    else:
        arr = func.data
    if arr.size == 0:
        return (0.0, 0.0)
    lo, hi = float(np.min(arr)), float(np.max(arr))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return FULL
    return (lo, hi)


class GrowthPass(DataflowPass):
    """Forward interval propagation over one fused three-address program.

    The state maps every scratch slot to its value interval; ``views`` binds
    the program's read operands (``v0, v1, ...``, in the sweep's read order)
    to their abstract values and ``consts`` binds the hoisted numeric
    constants (``_c0, ...``) from the kernel namespace.  Bounds of values
    stored to the output operands accumulate on :attr:`out_bounds`.
    """

    direction = "forward"
    name = "growth"

    def __init__(self, views: Dict[str, Interval], consts: Dict[str, float]):
        self.views = dict(views)
        self.consts = dict(consts)
        self.out_bounds: Dict[str, Interval] = {}

    def initial(self, program) -> Dict[str, Interval]:
        return {}

    def join(
        self, a: Dict[str, Interval], b: Dict[str, Interval]
    ) -> Dict[str, Interval]:
        out = dict(a)
        for name, iv in b.items():
            if name in out:
                out[name] = (min(out[name][0], iv[0]), max(out[name][1], iv[1]))
            else:
                out[name] = iv
        return out

    def _elem(self, operand, state: Dict[str, Interval]) -> Interval:
        if operand.kind == "view":
            return self.views.get(operand.name, FULL)
        if operand.kind == "scalar":
            v = float(operand.name)
            return (v, v)
        if operand.kind == "const":
            v = self.consts.get(operand.name)
            return (v, v) if v is not None else FULL
        return state.get(operand.name, FULL)

    def transfer(self, state: Dict[str, Interval], instr, index: int, program):
        if instr.op == "store":
            value = self._elem(instr.args[0], state)
        else:
            value = interval_ufunc(
                instr.op, [self._elem(a, state) for a in instr.args]
            )
        state = dict(state)
        state[instr.out.name] = value
        if instr.out.kind == "out":
            prev = self.out_bounds.get(instr.out.name)
            if prev is not None:
                value = (min(prev[0], value[0]), max(prev[1], value[1]))
            self.out_bounds[instr.out.name] = value
        return state


def _expr_interval(expr) -> Interval:
    """Interval image of a bound equation's rhs tree (non-fused engines)."""
    if isinstance(expr, Number):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, Indexed):
        return read_interval(expr)
    if isinstance(expr, Add):
        return interval_ufunc("add", [_expr_interval(a) for a in expr.children()])
    if isinstance(expr, Mul):
        return interval_ufunc(
            "multiply", [_expr_interval(a) for a in expr.children()]
        )
    if isinstance(expr, Pow):
        return interval_ufunc(
            "power",
            [_expr_interval(expr.base), _expr_interval(expr.exponent)],
        )
    if isinstance(expr, Call):
        return interval_ufunc(expr.name, [_expr_interval(expr.argument)])
    if isinstance(expr, Symbol):
        return FULL
    return FULL


def prove_growth(sweeps: Sequence, operator: str = "operator", dt: float = 1.0) -> GrowthCertificate:
    """Build a :class:`GrowthCertificate` for the bound *sweeps* of a plan.

    Fused sweeps are analysed through their three-address program with
    :class:`GrowthPass`; non-fused ones through direct interval evaluation
    of each bound equation's rhs.  Both see identical abstract inputs, so
    the certificate does not depend on the engine the run selects.
    """
    checks: List[CheckedGrowth] = []
    for j, sweep in enumerate(sweeps):
        program = sweep.kernel_program() if hasattr(sweep, "kernel_program") else None
        if program is not None:
            views = {
                f"v{i}": read_interval(a) for i, a in enumerate(sweep.reads)
            }
            consts = {
                name: float(np.asarray(sweep._kernel.__globals__[name]))
                for name, _dtype in program.consts
            }
            pass_ = GrowthPass(views, consts)
            run_pass(pass_, program)
            for i, lhs in enumerate(sweep.writes):
                lo, hi = pass_.out_bounds.get(f"o{i}", FULL)
                checks.append(
                    CheckedGrowth(
                        sweep=j,
                        field=lhs.function.name,
                        lo=lo,
                        hi=hi,
                        engine="absint",
                    )
                )
        else:
            for beq in sweep.beqs:
                lo, hi = _expr_interval(beq.rhs)
                checks.append(
                    CheckedGrowth(
                        sweep=j,
                        field=beq.lhs.function.name,
                        lo=lo,
                        hi=hi,
                        engine="interval",
                    )
                )
    return GrowthCertificate(operator=operator, dt=float(dt), checks=tuple(checks))
