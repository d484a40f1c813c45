"""Kernel metrics: flop counting (achieved throughput and intensity are
:mod:`repro.telemetry.counters`'s ``derived_metrics``)."""

from __future__ import annotations

from ..dsl.equation import Eq
from ..dsl.symbols import S_NEG_ONE, Add, Call, Expr, Mul, Number, Pow

__all__ = [
    "flop_count",
    "eq_flops",
]

#: cost charged per elementary call (divisions via Pow(-1) count as one)
_CALL_COST = 4.0


def flop_count(expr: Expr) -> float:
    """Floating-point operations to evaluate *expr* once.

    n-ary Add/Mul cost ``n-1``, a factor of ``-1`` being a sign flip and free
    (the kernels fold it into a subtract); integer powers cost ``|exp|-1``
    multiplies plus one division for negative exponents; elementary calls
    cost ``_CALL_COST``.  Leaves are free.
    """
    total = 0.0
    for node in expr.preorder():
        if isinstance(node, (Add, Mul)):
            total += len(node.args) - 1
            if isinstance(node, Mul) and node.args[0] == S_NEG_ONE:
                total -= 1
        elif isinstance(node, Pow):
            exp = node.exponent
            if isinstance(exp, Number) and float(exp.value) == int(exp.value):
                e = abs(int(exp.value))
                total += max(e - 1, 0) + (1 if exp.value < 0 else 0)
            else:
                total += _CALL_COST
        elif isinstance(node, Call):
            total += _CALL_COST
    return total


def eq_flops(eq: Eq) -> float:
    """Flops per grid point for one update equation (store is free)."""
    return flop_count(eq.rhs)

