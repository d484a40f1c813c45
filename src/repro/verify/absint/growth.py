"""Per-step amplitude-growth bounds via interval arithmetic.

The ABFT guard (:mod:`repro.runtime.abft`) needs one number per operator: a
bound ``G`` on how much a single timestep can amplify the state's max-norm,
so that at a time-tile boundary the runtime can assert
``|u|_exit <= slack * (G**h * |u|_entry + source energy)`` and attribute any
violation to silent data corruption.  Because every update is *linear* in
the wavefields, that bound is the image of the update expression under
interval arithmetic with the wavefield reads set to the unit interval
``[-1, 1]`` and the model reads set to their actual data range.

:func:`prove_growth` evaluates each bound equation's right-hand side that
way — the expression every engine rung binds, so the
:class:`~repro.verify.certificate.GrowthCertificate` (the peer of
:class:`~repro.verify.certificate.BoundsCertificate` for the amplitude
invariant) does not depend on the engine.  A division whose denominator
interval straddles zero yields an infinite gain and an unsatisfied check:
the certificate then cannot support a runtime amplitude bound and the guard
degrades to checksum-only mode.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from ...dsl.functions import TimeFunction
from ...dsl.symbols import Add, Call, Indexed, Mul, Number, Pow
from ..certificate import CheckedGrowth, GrowthCertificate

__all__ = ["prove_growth", "interval_ufunc", "read_interval"]

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
    """The interval of one read: unit amplitude for wavefields, the actual
    (current — models may be updated in place between applies) interior data
    range for model arrays."""
    func = access.function
    if isinstance(func, TimeFunction):
        return UNIT
    arr = func.data
    if arr.size == 0:
        return (0.0, 0.0)
    lo, hi = float(np.min(arr)), float(np.max(arr))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return FULL
    return (lo, hi)


def _expr_interval(expr, ranges: Dict[object, Interval]) -> Interval:
    """Interval image of a bound equation's rhs tree; *ranges* holds each
    field's read interval, so a field is scanned once however often it is
    read."""
    if isinstance(expr, Number):
        v = float(expr.value)
        return (v, v)
    if isinstance(expr, Indexed):
        func = expr.function
        if func not in ranges:
            ranges[func] = read_interval(expr)
        return ranges[func]
    if isinstance(expr, Add):
        return interval_ufunc("add", [_expr_interval(a, ranges) for a in expr.children()])
    if isinstance(expr, Mul):
        return interval_ufunc(
            "multiply", [_expr_interval(a, ranges) for a in expr.children()]
        )
    if isinstance(expr, Pow):
        return interval_ufunc(
            "power",
            [_expr_interval(expr.base, ranges), _expr_interval(expr.exponent, ranges)],
        )
    if isinstance(expr, Call):
        return interval_ufunc(expr.name, [_expr_interval(expr.argument, ranges)])
    return FULL  # an unbound symbol: nothing is known about its value


def prove_growth(sweeps: Sequence, operator: str = "operator", dt: float = 1.0) -> GrowthCertificate:
    """Build a :class:`GrowthCertificate` for the bound *sweeps* of a plan:
    one :class:`CheckedGrowth` per bound equation, from the interval image
    of its right-hand side.  Each field's range is read once per proof."""
    ranges: Dict[object, Interval] = {}
    checks = tuple(
        CheckedGrowth(j, beq.lhs.function.name, *_expr_interval(beq.rhs, ranges))
        for j, sweep in enumerate(sweeps)
        for beq in sweep.beqs
    )
    return GrowthCertificate(operator=operator, dt=float(dt), checks=checks)
