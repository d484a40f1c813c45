"""Minimal symbolic expression engine for finite-difference DSLs.

This module implements the expression substrate on which the Devito-like DSL
(:mod:`repro.dsl`) is built.  It is intentionally *not* a general computer
algebra system: it supports exactly the algebra needed to express, lower and
solve explicit finite-difference update equations --

* flat n-ary ``Add`` / ``Mul`` with constant folding,
* ``Pow`` with numeric exponents,
* ``Symbol`` (dimension indices, spacing/step constants),
* ``Indexed`` accesses into grid functions with per-dimension offsets,
* elementary function calls (``sin``/``cos``/``sqrt``/...),
* linear-coefficient extraction (``as_linear``) used by :func:`repro.dsl.solve`,
* substitution and structural traversal.

Expressions are immutable and hashable; construction canonicalises so that
structurally equal expressions compare equal, which the compiler relies on for
common-subexpression detection and dependence analysis.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, Iterator, Tuple

__all__ = [
    "Expr",
    "Number",
    "Symbol",
    "Add",
    "Mul",
    "Pow",
    "Call",
    "Indexed",
    "sympify",
    "sin",
    "cos",
    "tan",
    "sqrt",
    "exp",
    "S_ZERO",
    "S_ONE",
    "NonLinearError",
]


class NonLinearError(ValueError):
    """Raised when a linear decomposition is requested of a nonlinear term."""


def sympify(value: Any) -> "Expr":
    """Coerce *value* (Expr, int, float) into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # guard: bool is an int subclass
        raise TypeError(f"cannot sympify bool {value!r}")
    if isinstance(value, (int, float)):
        return Number(value)
    if hasattr(value, "indexify"):  # grid functions stand for their centred access
        return value.indexify()
    raise TypeError(f"cannot sympify {type(value).__name__}: {value!r}")


class Expr:
    """Base class of all symbolic expressions.

    Subclasses must populate ``self._args`` (a tuple uniquely identifying the
    node) and are immutable afterwards.
    """

    __slots__ = ("_args", "_hash")

    _args: Tuple[Any, ...]
    _hash: int

    # -- construction helpers ------------------------------------------------
    def _finalise(self, args: Tuple[Any, ...]) -> None:
        object.__setattr__(self, "_args", args)
        object.__setattr__(self, "_hash", hash((type(self).__name__, args)))

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("expressions are immutable")

    # -- identity ------------------------------------------------------------
    @property
    def args(self) -> Tuple[Any, ...]:
        return self._args

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return type(self) is type(other) and self._args == other._args

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # -- arithmetic operators --------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return Add(self, sympify(other))

    def __radd__(self, other: Any) -> "Expr":
        return Add(sympify(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Add(self, Mul(Number(-1), sympify(other)))

    def __rsub__(self, other: Any) -> "Expr":
        return Add(sympify(other), Mul(Number(-1), self))

    def __mul__(self, other: Any) -> "Expr":
        return Mul(self, sympify(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Mul(sympify(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Mul(self, Pow(sympify(other), Number(-1)))

    def __rtruediv__(self, other: Any) -> "Expr":
        return Mul(sympify(other), Pow(self, Number(-1)))

    def __pow__(self, other: Any) -> "Expr":
        return Pow(self, sympify(other))

    def __neg__(self) -> "Expr":
        return Mul(Number(-1), self)

    def __pos__(self) -> "Expr":
        return self

    # -- traversal -------------------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions (override in composite nodes)."""
        return ()

    def preorder(self) -> Iterator["Expr"]:
        """Yield self and all descendants in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def free_symbols(self) -> frozenset:
        """The set of :class:`Symbol` leaves in this expression."""
        return frozenset(n for n in self.preorder() if isinstance(n, Symbol))

    def atoms(self, *types: type) -> frozenset:
        """All descendant nodes that are instances of *types*."""
        if not types:
            types = (Expr,)
        return frozenset(n for n in self.preorder() if isinstance(n, types))

    def contains(self, target: "Expr") -> bool:
        return any(n == target for n in self.preorder())

    # -- rewriting ---------------------------------------------------------------
    def subs(self, mapping: Dict["Expr", Any]) -> "Expr":
        """Simultaneous structural substitution."""
        mapping = {k: sympify(v) for k, v in mapping.items()}
        return self._subs(mapping)

    def _subs(self, mapping: Dict["Expr", "Expr"]) -> "Expr":
        if self in mapping:
            return mapping[self]
        return self._rebuild_subs(mapping)

    def _rebuild_subs(self, mapping: Dict["Expr", "Expr"]) -> "Expr":
        return self

    # -- linear decomposition ------------------------------------------------------
    def as_linear(self, target: "Expr") -> Tuple["Expr", "Expr"]:
        """Decompose ``self == a*target + b`` with ``target`` not in ``a``/``b``.

        Raises :class:`NonLinearError` if *target* occurs nonlinearly.
        """
        if self == target:
            return (S_ONE, S_ZERO)
        if not self.contains(target):
            return (S_ZERO, self)
        raise NonLinearError(f"{target} occurs nonlinearly in {self}")

    # -- numeric evaluation ------------------------------------------------------
    def evaluate(self, env: Dict["Expr", Any], functions: Dict[str, Callable] | None = None) -> Any:
        """Evaluate numerically given a leaf environment.

        ``env`` maps :class:`Symbol`/:class:`Indexed` leaves to numeric values
        (scalars or NumPy arrays).  ``functions`` maps call names to callables
        (defaults to :mod:`math`-compatible NumPy ufuncs supplied by caller).
        """
        raise NotImplementedError

    # -- misc ---------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)


class Number(Expr):
    """A numeric literal (int or float)."""

    __slots__ = ("value",)

    def __new__(cls, value):
        if isinstance(value, Number):
            return value
        self = object.__new__(cls)
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            # canonicalise integral floats so 2.0 == 2 structurally
            value = int(value)
        object.__setattr__(self, "value", value)
        self._finalise((value,))
        return self

    def evaluate(self, env, functions=None):
        return self.value

    def __str__(self) -> str:
        return str(self.value)


S_ZERO = Number(0)
S_ONE = Number(1)
S_NEG_ONE = Number(-1)


class Symbol(Expr):
    """A named scalar symbol (dimension index, spacing, dt, ...)."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        self = object.__new__(cls)
        object.__setattr__(self, "name", str(name))
        self._finalise((str(name),))
        return self

    def evaluate(self, env, functions=None):
        try:
            return env[self]
        except KeyError:
            raise KeyError(f"no value bound for symbol {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


def _flatten(cls, args: Iterable[Expr]) -> Iterator[Expr]:
    for a in args:
        if type(a) is cls:
            yield from a.children()
        else:
            yield a


class Add(Expr):
    """Flat n-ary addition with constant folding.

    ``Add(a, b, c)`` folds numeric terms, drops zeros and collapses to the
    single remaining operand where possible.
    """

    __slots__ = ()

    def __new__(cls, *operands):
        terms = []
        const = 0
        for a in _flatten(cls, (sympify(o) for o in operands)):
            if isinstance(a, Number):
                const += a.value
            else:
                terms.append(a)
        if const != 0:
            terms.append(Number(const))
        if not terms:
            return S_ZERO
        if len(terms) == 1:
            return terms[0]
        self = object.__new__(cls)
        self._finalise(tuple(terms))
        return self

    def children(self):
        return self._args

    def _rebuild_subs(self, mapping):
        return Add(*[a._subs(mapping) for a in self._args])

    def as_linear(self, target):
        coeffs, rests = [], []
        for term in self._args:
            a, b = term.as_linear(target)
            coeffs.append(a)
            rests.append(b)
        return (Add(*coeffs), Add(*rests))

    def evaluate(self, env, functions=None):
        result = self._args[0].evaluate(env, functions)
        for term in self._args[1:]:
            result = result + term.evaluate(env, functions)
        return result

    def __str__(self) -> str:
        parts = [str(a) for a in self._args]
        return "(" + " + ".join(parts) + ")"


class Mul(Expr):
    """Flat n-ary multiplication with constant folding and zero absorption."""

    __slots__ = ()

    def __new__(cls, *operands):
        factors = []
        const = 1
        for a in _flatten(cls, (sympify(o) for o in operands)):
            if isinstance(a, Number):
                if a.value == 0:
                    return S_ZERO
                const *= a.value
            else:
                factors.append(a)
        if const != 1:
            factors.insert(0, Number(const))
        if not factors:
            return S_ONE
        if len(factors) == 1:
            return factors[0]
        self = object.__new__(cls)
        self._finalise(tuple(factors))
        return self

    def children(self):
        return self._args

    def _rebuild_subs(self, mapping):
        return Mul(*[a._subs(mapping) for a in self._args])

    def as_linear(self, target):
        dependent = [f for f in self._args if f.contains(target)]
        if not dependent:
            return (S_ZERO, self)
        if len(dependent) > 1:
            raise NonLinearError(f"{target} occurs nonlinearly in {self}")
        rest = [f for f in self._args if not f.contains(target)]
        a, b = dependent[0].as_linear(target)
        return (Mul(*rest, a), Mul(*rest, b))

    def evaluate(self, env, functions=None):
        result = self._args[0].evaluate(env, functions)
        for factor in self._args[1:]:
            result = result * factor.evaluate(env, functions)
        return result

    def __str__(self) -> str:
        return "*".join(
            f"({a})" if isinstance(a, Add) else str(a) for a in self._args
        )


class Pow(Expr):
    """Power ``base ** exponent``; folds numeric operands."""

    __slots__ = ()

    def __new__(cls, base, exponent):
        base = sympify(base)
        exponent = sympify(exponent)
        if isinstance(exponent, Number):
            if exponent.value == 0:
                return S_ONE
            if exponent.value == 1:
                return base
            if isinstance(base, Number):
                value = base.value ** exponent.value
                return Number(value)
        self = object.__new__(cls)
        self._finalise((base, exponent))
        return self

    @property
    def base(self) -> Expr:
        return self._args[0]

    @property
    def exponent(self) -> Expr:
        return self._args[1]

    def children(self):
        return self._args

    def _rebuild_subs(self, mapping):
        return Pow(self.base._subs(mapping), self.exponent._subs(mapping))

    def as_linear(self, target):
        if self.contains(target):
            raise NonLinearError(f"{target} occurs nonlinearly in {self}")
        return (S_ZERO, self)

    def evaluate(self, env, functions=None):
        return self.base.evaluate(env, functions) ** self.exponent.evaluate(env, functions)

    def __str__(self) -> str:
        return f"({self.base})**({self.exponent})"


_MATH_FUNCTIONS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sqrt": math.sqrt,
    "exp": math.exp,
}


class Call(Expr):
    """Elementary function application, e.g. ``cos(theta[x,y,z])``."""

    __slots__ = ("name",)

    def __new__(cls, name: str, argument):
        argument = sympify(argument)
        if isinstance(argument, Number) and name in _MATH_FUNCTIONS:
            return Number(_MATH_FUNCTIONS[name](argument.value))
        self = object.__new__(cls)
        object.__setattr__(self, "name", str(name))
        self._finalise((str(name), argument))
        return self

    @property
    def argument(self) -> Expr:
        return self._args[1]

    def children(self):
        return (self.argument,)

    def _rebuild_subs(self, mapping):
        return Call(self.name, self.argument._subs(mapping))

    def as_linear(self, target):
        if self.contains(target):
            raise NonLinearError(f"{target} occurs inside call {self.name}")
        return (S_ZERO, self)

    def evaluate(self, env, functions=None):
        arg = self.argument.evaluate(env, functions)
        table = functions or {}
        if self.name in table:
            return table[self.name](arg)
        import numpy as np

        return getattr(np, self.name)(arg)

    def __str__(self) -> str:
        return f"{self.name}({self.argument})"


class Indexed(Expr):
    """An access ``function[time_offset; dim offsets]`` into a grid function.

    ``offsets`` maps a dimension to an integer shift relative to the loop
    point; the time offset (for :class:`~repro.dsl.functions.TimeFunction`)
    lives under the function's stepping dimension.  Offsets are stored as a
    sorted tuple of ``(dimension_name, shift)`` so structurally equal accesses
    hash equal.
    """

    __slots__ = ("function", "offsets")

    def __new__(cls, function, offsets: Dict[Any, int] | Tuple[Tuple[str, int], ...]):
        if isinstance(offsets, dict):
            items = tuple(sorted((getattr(d, "name", str(d)), int(s)) for d, s in offsets.items()))
        else:
            items = tuple(sorted((str(d), int(s)) for d, s in offsets))
        items = tuple((d, s) for d, s in items if s != 0 or True)  # keep zeros: explicit
        self = object.__new__(cls)
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "offsets", items)
        self._finalise((function.name, items))
        return self

    def offset_map(self) -> Dict[str, int]:
        return dict(self.offsets)

    def shift(self, dim, amount: int) -> "Indexed":
        """Return a copy shifted by *amount* along *dim*."""
        name = getattr(dim, "name", str(dim))
        offs = self.offset_map()
        offs[name] = offs.get(name, 0) + int(amount)
        return Indexed(self.function, tuple(offs.items()))

    def evaluate(self, env, functions=None):
        try:
            return env[self]
        except KeyError:
            raise KeyError(f"no value bound for access {self}") from None

    def __str__(self) -> str:
        inner = ", ".join(
            f"{d}" if s == 0 else (f"{d}+{s}" if s > 0 else f"{d}-{-s}")
            for d, s in self.offsets
        )
        return f"{self.function.name}[{inner}]"


def sin(x) -> Expr:
    return Call("sin", x)


def cos(x) -> Expr:
    return Call("cos", x)


def tan(x) -> Expr:
    return Call("tan", x)


def sqrt(x) -> Expr:
    return Call("sqrt", x)


def exp(x) -> Expr:
    return Call("exp", x)
