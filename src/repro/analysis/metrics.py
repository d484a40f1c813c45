"""Kernel metrics: operation counting, throughput and intensity measures."""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..dsl.equation import Eq
from ..dsl.symbols import S_NEG_ONE, Add, Call, Expr, Indexed, Mul, Number, Pow

__all__ = [
    "flop_count",
    "eq_flops",
    "access_count",
    "gpoints_per_s",
    "arithmetic_intensity",
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


def access_count(eq: Eq) -> int:
    """Number of array accesses per point (reads + the write)."""
    return len(eq.rhs.atoms(Indexed)) + 1


def gpoints_per_s(points: float, steps: float, seconds: float) -> float:
    """Throughput in giga grid-point updates per second (the paper's metric)."""
    if seconds <= 0:
        raise ValueError("elapsed time must be positive")
    return points * steps / seconds / 1e9


def arithmetic_intensity(flops: float, bytes_moved: float) -> float:
    """Flops per byte of traffic (per memory level for the cache-aware roofline)."""
    if bytes_moved <= 0:
        raise ValueError("traffic must be positive")
    return flops / bytes_moved
