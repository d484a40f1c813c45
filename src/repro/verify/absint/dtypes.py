"""NumPy dtype-promotion lattice and propagation passes.

Replaces the linter's zero-size-specimen evaluation: instead of *executing*
every expression on empty arrays to observe result dtypes, promotion is
modelled as a finite lattice over

* concrete dtypes (``float32`` < ``float64`` under ``np.promote_types``), and
* *weak* Python scalars (``weak_int``/``weak_float``), which under NEP 50
  adapt to the partner operand's dtype instead of forcing a promotion,

with per-ufunc result rules (true division always lands in an inexact type;
the transcendental ufuncs resolve integer inputs to the smallest exactly
representable float, which is ``np.result_type(dtype, float16)``).

Two consumers:

* :func:`expr_dtype` — bottom-up propagation over a symbolic expression tree,
  recording the **promotion chain** (every step where the accumulated dtype
  changed), which the linter's W201 message now names verbatim.
* :func:`audit_slot_dtypes` — one loop over a three-address program,
  re-deriving every scratch slot's dtype; disagreement with the dtype the
  emitter actually assigned (``kernel.__slotspec__``) is an internal
  inconsistency reported as ``E203`` (and tested never to fire).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...dsl.symbols import Add, Call, Expr, Indexed, Mul, Number, Pow, Symbol
from ..certificate import Diagnostic

__all__ = [
    "WEAK_INT",
    "WEAK_FLOAT",
    "is_weak",
    "promote",
    "ufunc_result",
    "expr_dtype",
    "audit_slot_dtypes",
]

WEAK_INT = "weak_int"
WEAK_FLOAT = "weak_float"
_TRANSCENDENTAL = {"sin", "cos", "tan", "sqrt", "exp"}


def is_weak(elem: Optional[str]) -> bool:
    return elem in (WEAK_INT, WEAK_FLOAT)


def describe(elem: Optional[str]) -> str:
    if elem == WEAK_INT:
        return "int (weak scalar)"
    if elem == WEAK_FLOAT:
        return "float (weak scalar)"
    return str(elem)


def weak_of(value) -> str:
    """The lattice element of a Python numeric literal."""
    return WEAK_INT if isinstance(value, int) and not isinstance(value, bool) else WEAK_FLOAT


def concretise(elem: str) -> str:
    """The dtype a weak scalar takes when *forced* concrete (NEP 50 defaults)."""
    if elem == WEAK_INT:
        return np.dtype(int).name  # the platform default integer
    if elem == WEAK_FLOAT:
        return "float64"
    return elem


def promote(a: str, b: str) -> str:
    """NEP 50 promotion of two lattice elements."""
    if is_weak(a) and is_weak(b):
        return WEAK_FLOAT if WEAK_FLOAT in (a, b) else WEAK_INT
    if is_weak(a):
        a, b = b, a
    if is_weak(b):
        dt = np.dtype(a)
        if b == WEAK_INT:
            return a  # integer scalars adapt to any numeric dtype
        if dt.kind in "fc":
            return a  # float scalars adapt to any inexact dtype
        return "float64"  # float scalar forces an integer array inexact
    return np.promote_types(a, b).name


def _inexact(elem: str) -> str:
    """Force *elem* inexact, as NumPy's true division does."""
    if elem == WEAK_INT:
        return WEAK_FLOAT
    if elem == WEAK_FLOAT:
        return elem
    if np.dtype(elem).kind in "fc":
        return elem
    return "float64"


def ufunc_result(op: str, elems: Sequence[str]) -> str:
    """The result lattice element of ``np.op(*elems)``."""
    if op in _TRANSCENDENTAL:
        a = elems[0]
        if is_weak(a):
            return "float64"  # np.sin(2) etc. resolves to the default float
        return np.result_type(np.dtype(a), np.float16).name
    acc = elems[0]
    for e in elems[1:]:
        acc = promote(acc, e)
    if op in ("divide", "true_divide"):
        return _inexact(acc)
    return acc


def expr_dtype(
    expr: Expr,
    dtype_of: Callable[[Indexed], np.dtype],
    _shorten: int = 48,
) -> Tuple[str, List[str]]:
    """Propagate dtypes bottom-up through *expr*; return the result element
    plus the promotion chain.

    The chain starts at the seed operand and records every step where the
    accumulated dtype changed — exactly the trace a W201 message needs to
    explain *which* subexpression forced the promotion the store then
    narrows away.  Mirrors the engines' evaluation order (left-associative
    chains; ``x**-1`` as ``1.0/x``; small integer powers as repeated
    multiplication), so the result matches what execution produces.
    """
    chain: List[str] = []
    seed: List[str] = []  # first leaf evaluated, recorded once

    def short(e: Expr) -> str:
        s = str(e)
        return s if len(s) <= _shorten else s[: _shorten - 3] + "..."

    def step(sym: str, desc: str, old: str, new: str) -> None:
        if new != old:
            chain.append(f"{sym} {desc}: {describe(old)} -> {describe(new)}")

    def chained(sym: str, op: str, args: Sequence[Expr]) -> str:
        acc = rec(args[0])
        for term in args[1:]:
            t = rec(term)
            new = ufunc_result(op, [acc, t])
            step(sym, f"{short(term)} ({describe(t)})", acc, new)
            acc = new
        return acc

    def rec(e: Expr) -> str:
        if isinstance(e, Number):
            elem = weak_of(e.value)
            if not seed:
                seed.append(f"{short(e)}: {describe(elem)}")
            return elem
        if isinstance(e, Indexed):
            elem = np.dtype(dtype_of(e)).name
            if not seed:
                seed.append(f"{short(e)}: {describe(elem)}")
            return elem
        if isinstance(e, Add):
            return chained("+", "add", e.args)
        if isinstance(e, Mul):
            return chained("*", "multiply", e.args)
        if isinstance(e, Pow):
            exp = e.exponent
            base = rec(e.base)
            if isinstance(exp, Number):
                v = exp.value
                if v == -1:
                    new = ufunc_result("divide", [WEAK_FLOAT, base])
                    step("1/", short(e.base), base, new)
                    return new
                if isinstance(v, int) and 0 < v <= 4:
                    return base  # repeated multiplication keeps the dtype
                new = ufunc_result("power", [base, weak_of(v)])
                step("**", repr(v), base, new)
                return new
            t = rec(exp)
            new = ufunc_result("power", [base, t])
            step("**", f"{short(exp)} ({describe(t)})", base, new)
            return new
        if isinstance(e, Call):
            arg = rec(e.argument)
            new = ufunc_result(e.name, [arg])
            step(e.name, short(e.argument), arg, new)
            return new
        if isinstance(e, Symbol):
            raise ValueError(f"unbound symbol {e.name!r} in dtype propagation")
        raise TypeError(f"cannot type node {type(e).__name__}")

    result = rec(expr)
    return result, seed + chain


def _operand_elem(operand) -> str:
    if operand.kind != "scalar":
        return operand.dtype
    try:
        return weak_of(int(operand.name))
    except ValueError:
        return weak_of(float(operand.name))


def audit_slot_dtypes(program, sweep: Optional[int] = None) -> List[Diagnostic]:
    """Re-derive every scratch slot's dtype of one three-address *program*
    with the lattice and compare with the emitter's slot table.

    At each instruction writing a slot the result element is computed from
    the operand elements by :func:`ufunc_result` (a slot operand carries the
    dtype the emitter declared for it).  A concrete inferred dtype that
    disagrees with the declared one (the specimen result recorded in the
    program's slot table) is an ``E203`` internal inconsistency — the
    lattice and the emitter must agree, or the specimen-free W201 check
    would be unsound.
    """
    findings: List[Diagnostic] = []
    for instr in program.instrs:
        if instr.op == "store" or instr.out.kind != "slot":
            continue
        result = ufunc_result(instr.op, [_operand_elem(a) for a in instr.args])
        declared = instr.out.dtype
        # an all-scalar instruction stays weak: the emitter concretised it
        # via the specimen, which is execution ground truth
        if not is_weak(result) and result != declared:
            findings.append(
                Diagnostic(
                    "E203",
                    "error",
                    f"abstract dtype {result} disagrees with the "
                    f"emitter's slot dtype {declared} at {instr.render()!r}: "
                    "the promotion lattice and the specimen evaluation "
                    "diverged",
                    sweep=sweep,
                    statement=instr.render(),
                )
            )
    return findings
