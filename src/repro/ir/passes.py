"""The expression-level passes of the kernel engines: coefficient-collecting
factorisation, time-invariant hoisting and common-subexpression elimination.

:func:`factorize_sweep` runs first, on the bound equations every engine
shares; :func:`hoist_invariants` and :func:`cse_sweep` are the compiled
engines' (``c`` and ``fused``) lowering of its result.

:func:`cse_sweep` operates on *bound* right-hand sides (only
:class:`~repro.dsl.symbols.Indexed` and numeric leaves): it names every composite subexpression that occurs more than once
across the equations of a sweep, so the generated three-address kernels of
:mod:`repro.ir.pycodegen` evaluate it exactly once.  Because the expression
substrate canonicalises on construction, structural equality is hash
equality and the pass is a single counting walk plus a rebuilding walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..dsl.equation import Eq
from ..dsl.functions import TimeFunction
from ..dsl.symbols import S_NEG_ONE, S_ONE, Add, Call, Expr, Indexed, Mul, Number, Pow, Symbol

__all__ = [
    "CSEResult",
    "cse_sweep",
    "factorize",
    "factorize_sweep",
    "HoistedField",
    "HoistResult",
    "hoist_invariants",
]


_COMPOSITE = (Add, Mul, Pow, Call)


@dataclass
class CSEResult:
    """Outcome of :func:`cse_sweep`.

    ``assignments[i]`` lists ``(temp, expr)`` bindings to evaluate, in order,
    immediately before equation *i*'s (rewritten) right-hand side ``rhss[i]``;
    every ``expr`` references only leaves and previously assigned temps, so
    the program ``assignments[0]; rhss[0]; assignments[1]; rhss[1]; ...`` is
    in dependency order.  ``origin`` maps each temp back to the original
    (fully expanded) subexpression it names.
    """

    assignments: List[List[Tuple[Symbol, Expr]]]
    rhss: List[Expr]
    origin: Dict[Symbol, Expr] = field(default_factory=dict)

    @property
    def ntemps(self) -> int:
        return len(self.origin)


def _reads_protected(expr: Expr, protected: FrozenSet[Tuple[str, int]]) -> bool:
    """True if *expr* reads any ``(function name, time offset)`` in *protected*."""
    for node in expr.preorder():
        if isinstance(node, Indexed):
            key = (node.function.name, node.offset_map().get("t", 0))
            if key in protected:
                return True
    return False


def cse_sweep(
    rhss: Sequence[Expr],
    protected_keys: FrozenSet[Tuple[str, int]] = frozenset(),
    min_uses: int = 2,
    prefix: str = "cse",
) -> CSEResult:
    """Eliminate common subexpressions across the equations of one sweep.

    A composite subexpression occurring at least *min_uses* times (counted
    structurally over all right-hand sides) is bound to a fresh temp
    :class:`~repro.dsl.symbols.Symbol` and every occurrence is replaced by it.

    ``protected_keys`` are the ``(field name, time offset)`` slots *written*
    by the sweep's own equations.  A subexpression that reads a protected
    slot observes different values before and after the producing equation
    runs, so such subexpressions are only ever shared *within* a single
    equation, never hoisted across equations.  Subexpressions free of
    protected reads are loop-invariant over the sweep's equation sequence and
    are assigned once, at the first equation that uses them.
    """
    rhss = list(rhss)

    # counting walk: structural occurrences of every composite node, globally
    # and per equation (the per-equation counts drive protected sharing)
    counts: Dict[Expr, int] = {}
    eq_counts: List[Dict[Expr, int]] = []
    for rhs in rhss:
        local: Dict[Expr, int] = {}
        for node in rhs.preorder():
            if isinstance(node, _COMPOSITE):
                counts[node] = counts.get(node, 0) + 1
                local[node] = local.get(node, 0) + 1
        eq_counts.append(local)

    protected_memo: Dict[Expr, bool] = {}

    def is_protected(node: Expr) -> bool:
        got = protected_memo.get(node)
        if got is None:
            got = _reads_protected(node, protected_keys)
            protected_memo[node] = got
        return got

    result = CSEResult(assignments=[[] for _ in rhss], rhss=[])
    global_map: Dict[Expr, Symbol] = {}
    counter = 0

    def fresh(rewritten: Expr, original: Expr, sink: List[Tuple[Symbol, Expr]]) -> Symbol:
        nonlocal counter
        sym = Symbol(f"{prefix}{counter}")
        counter += 1
        sink.append((sym, rewritten))
        result.origin[sym] = original
        return sym

    def rebuild(node: Expr, parts: List[Expr]) -> Expr:
        if isinstance(node, Add):
            return Add(*parts)
        if isinstance(node, Mul):
            return Mul(*parts)
        if isinstance(node, Pow):
            return Pow(parts[0], parts[1])
        return Call(node.name, parts[0])

    for i, rhs in enumerate(rhss):
        local_map: Dict[Expr, Symbol] = {}
        sink = result.assignments[i]

        def walk(node: Expr) -> Expr:
            if not isinstance(node, _COMPOSITE):
                return node
            hit = global_map.get(node) or local_map.get(node)
            if hit is not None:
                return hit
            rewritten = rebuild(node, [walk(c) for c in node.children()])
            if isinstance(node, Mul) and node.args[0] == S_NEG_ONE:
                # a negated term is free where it is used (the emitter turns
                # acc + -1*x into a subtract); a shared temp would cost a pass
                return rewritten
            if counts[node] >= min_uses and not is_protected(node):
                return global_map.setdefault(node, fresh(rewritten, node, sink))
            if eq_counts[i].get(node, 0) >= min_uses and is_protected(node):
                return local_map.setdefault(node, fresh(rewritten, node, sink))
            return rewritten

        result.rhss.append(walk(rhs))
    del walk  # a recursive closure is a cycle through its maps' fields: break it
    return result


# -- time-invariant hoisting -------------------------------------------------------


def _specimen_dtype(expr: Expr) -> np.dtype:
    """The dtype *expr* evaluates to, from zero-size specimens of its reads."""
    specimens = {
        leaf: np.empty(0, dtype=leaf.function.dtype) for leaf in expr.atoms(Indexed)
    }
    with np.errstate(all="ignore"):
        return np.asarray(expr.evaluate(specimens)).dtype


class HoistedField:
    """A time-invariant subexpression materialised as a precomputed grid array.

    Quacks like a (non-time) :class:`~repro.dsl.functions.Function` just
    enough for :func:`~repro.execution.evalbox.box_view`: it exposes ``name``,
    ``halo``, ``dtype`` and ``data_with_halo``.  The buffer is evaluated
    lazily (and refreshed in place when :meth:`materialise` is called again,
    so array views handed out earlier stay valid) by running the defining
    expression pointwise over the full padded buffers of its constituent
    functions — the same elementwise operations the kernel would have issued
    per box, so the values read back are bit-identical to inline evaluation.
    """

    __slots__ = ("name", "expr", "halo", "dtype", "_data", "_reads", "_snap")

    def __init__(self, name: str, expr: Expr, halo: int, dtype=None):
        self.name = name
        self.expr = expr
        self.halo = halo
        # dtype is established at construction so kernels can be compiled
        # before the buffer is first materialised: given by a served bind,
        # else derived from zero-size specimens
        self.dtype = _specimen_dtype(expr) if dtype is None else np.dtype(dtype)
        self._data = None
        self._snap = None
        self._reads = sorted(expr.atoms(Indexed), key=str)

    @property
    def data_with_halo(self) -> np.ndarray:
        if self._data is None:
            raise RuntimeError(f"hoisted field {self.name!r} not materialised")
        return self._data

    def materialise(self) -> None:
        """(Re)compute the buffer from the current constituent data.

        Halo points may evaluate to inf/nan (e.g. ``1/m`` over a zero-filled
        halo); they are never read — interior boxes only ever view the buffer
        where the original expression would have read its operands.

        Refreshes compare the constituent buffers against a snapshot of the
        values last evaluated and skip the recomputation when nothing changed
        (the overwhelmingly common case between applies); an equality scan is
        cheaper than re-running the division/trig-heavy defining expression.
        A NaN anywhere defeats the comparison and forces a recompute, which
        errs on the side of correctness.
        """
        views = [leaf.function.data_with_halo for leaf in self._reads]
        if self._snap is not None and all(
            np.array_equal(s, v) for s, v in zip(self._snap, views)
        ):
            return
        shapes = {buf.shape for buf in views}
        if len(shapes) != 1:
            raise ValueError(
                f"hoisted field {self.name!r} mixes padded shapes {shapes}"
            )
        if self._data is None:
            self._data = np.empty(shapes.pop(), dtype=self.dtype)
        with np.errstate(all="ignore"):
            self._data[...] = self.expr.evaluate(dict(zip(self._reads, views)))
        if self._snap is None or any(
            s.shape != v.shape for s, v in zip(self._snap, views)
        ):
            self._snap = [v.copy() for v in views]
        else:
            for s, v in zip(self._snap, views):
                s[...] = v

    def __repr__(self) -> str:
        return f"HoistedField({self.name}, {self.expr})"


@dataclass
class HoistResult:
    """Outcome of :func:`hoist_invariants`: rewritten right-hand sides plus
    the precomputed fields their new ``__inv*`` reads refer to."""

    rhss: List[Expr]
    fields: List[HoistedField]


def _time_invariant(expr: Expr) -> bool:
    """True if *expr* reads no TimeFunction and contains no free symbols."""
    for node in expr.preorder():
        if isinstance(node, Symbol):
            return False
        if isinstance(node, Indexed) and isinstance(node.function, TimeFunction):
            return False
    return True


def _unit_info(expr: Expr, select=None):
    """``(offsets, halo)`` if *expr* is hoistable as one precomputed array.

    Hoistable means: composite, time-invariant, at least one grid read, all
    reads share one offset map and one padded layout — then the defining
    expression can be evaluated pointwise over the raw padded buffers and the
    whole subtree replaced by a single read at the shared offsets — and
    accepted by *select*, when given.
    """
    if not isinstance(expr, _COMPOSITE) or not _time_invariant(expr):
        return None
    if select is not None and not select(expr):
        return None
    leaves = expr.atoms(Indexed)
    if not leaves:
        return None
    offsets = {leaf.offsets for leaf in leaves}
    halos = {leaf.function.halo for leaf in leaves}
    grids = {id(getattr(leaf.function, "grid", None)) for leaf in leaves}
    if len(offsets) != 1 or len(halos) != 1 or len(grids) != 1:
        return None
    return next(iter(offsets)), next(iter(halos))


def hoist_invariants(rhss: Sequence[Expr], prefix: str = "__inv", select=None) -> HoistResult:
    """Hoist maximal time-invariant subexpressions out of a sweep's RHSs.

    Model-only terms (``1/m``, ``lambda + 2*mu``, ``cos(theta)``, ...) are
    recomputed at every ``(t, box)`` instance by a naive lowering even though
    their operands never change during time stepping.  This pass replaces
    each maximal invariant subtree — and each leading invariant run of an
    ``Add``/``Mul`` argument list, which is exactly a prefix of the
    left-associative evaluation chain — with a read of a
    :class:`HoistedField` computed once per bind.  With *select*, only the
    subtrees it accepts are hoisted and the pass looks inside the others.

    Bit-identity is preserved by construction: the precomputed array holds
    the very values the per-box instructions would have produced (same
    elementwise operations on the same operands, evaluated once instead of
    per instance), and chain prefixes are real computational stages of the
    interpreter's evaluation order — so leaving a subtree inline is exact too.
    """
    replacements: Dict[Expr, Indexed] = {}
    fields: List[HoistedField] = []

    def placeholder(expr: Expr, info) -> Indexed:
        rep = replacements.get(expr)
        if rep is None:
            offsets, halo = info
            hf = HoistedField(f"{prefix}{len(fields)}", expr, halo)
            fields.append(hf)
            rep = replacements[expr] = Indexed(hf, offsets)
        return rep

    def walk(expr: Expr) -> Expr:
        if not isinstance(expr, _COMPOSITE):
            return expr
        info = _unit_info(expr, select)
        if info is not None:
            return placeholder(expr, info)
        if isinstance(expr, (Add, Mul)):
            args = list(expr.children())
            k = 0
            while k < len(args) and _time_invariant(args[k]):
                k += 1
            new_args: List[Expr] = []
            if k >= 2:
                # the leading invariant run is a prefix of the left-assoc
                # evaluation chain: fold it into one precomputed stage
                head = Mul(*args[:k]) if isinstance(expr, Mul) else Add(*args[:k])
                head_info = _unit_info(head, select)
                if head_info is not None:
                    new_args.append(placeholder(head, head_info))
                else:
                    new_args.extend(walk(a) for a in args[:k])
            else:
                new_args.extend(walk(a) for a in args[:k])
            new_args.extend(walk(a) for a in args[k:])
            return Add(*new_args) if isinstance(expr, Add) else Mul(*new_args)
        if isinstance(expr, Pow):
            return Pow(walk(expr.base), walk(expr.exponent))
        return Call(expr.name, walk(expr.argument))

    hoisted = HoistResult(rhss=[walk(r) for r in rhss], fields=fields)
    del walk  # as in cse_sweep: the dropped operator's fields are freed at once
    return hoisted


# -- coefficient-collecting factorisation ------------------------------------------
#
# Two phases.  ``_parse`` reads an expression into a linear normal form: a
# ``_Sum`` of ``(coefficient, core)`` terms with like terms merged, where a
# core is ``S_ONE`` (a constant), an opaque expression, or a ``_Product`` of
# factors, each an opaque expression or again a ``_Sum``.  ``_emit_sum`` writes
# the form back out, and only there, with every coefficient final, is it
# decided where each scale and sign is cheapest.


class _Sum(tuple):
    """Terms ``(coefficient, core)``; hashable, so products of sums merge."""


class _Product(tuple):
    """Non-numeric factors, in order: expressions and ``_Sum``s."""


def _invariant(x) -> bool:
    """True if *x* reads the grid but no time field: :func:`hoist_invariants`
    precomputes it for the fused rung, so a coefficient in front of it costs
    no kernel pass (on the C rung, one register multiply)."""
    if isinstance(x, Expr):
        return _time_invariant(x) and bool(x.atoms(Indexed))
    parts = [core for _, core in x] if isinstance(x, _Sum) else x
    return all(p is S_ONE or _invariant(p) for p in parts) and any(
        p is not S_ONE for p in parts
    )


def _absorbs_scale(core) -> bool:
    """True if *core*'s coefficient rides on a hoisted leading factor."""
    return _invariant(core[0] if isinstance(core, _Product) else core)


def _is_bare(terms: _Sum) -> bool:
    """True for a plain ``±a ± b ...`` sum: nothing in it can take up a scale."""
    return all(abs(c) == 1 and not _absorbs_scale(t) for c, t in terms)


def _split_coefficient(expr: Expr):
    if isinstance(expr, Number):
        return expr.value, S_ONE
    if isinstance(expr, Mul) and isinstance(expr.args[0], Number):
        return expr.args[0].value, Mul(*expr.args[1:])
    return 1, expr


def _merge_like(terms) -> _Sum:
    totals: Dict[object, float] = {}
    for coef, core in terms:
        totals[core] = totals.get(core, 0) + coef
    merged = []
    cancelled = []
    for coef, core in terms:
        total = totals.pop(core, None)  # merged into the first occurrence
        if total is None:
            continue
        if total == 0:
            # an exact cancellation keeps one +- pair: x - x is nan for a
            # non-finite x, and dropping it would shrink the read set
            total = abs(coef)
            cancelled.append((-total, core))
        merged.append((total, core))
    return _Sum(merged + cancelled)


def _parse(expr: Expr) -> _Sum:
    if isinstance(expr, Add):
        return _merge_like([t for a in expr.args for t in _parse(a)])
    if isinstance(expr, Mul):
        return _parse_product(expr)
    if isinstance(expr, Pow):
        expr = Pow(factorize(expr.base), factorize(expr.exponent))
    elif isinstance(expr, Call):
        expr = Call(expr.name, factorize(expr.argument))
    return _Sum([_split_coefficient(expr)])


def _parse_product(expr: Mul) -> _Sum:
    coef = 1
    factors: list = []
    for arg in expr.args:
        terms = _parse(arg)
        if len(terms) == 1:
            ((c, core),) = terms
            coef *= c
            if isinstance(core, _Product):
                factors.extend(core)
            elif core is not S_ONE:
                factors.append(core)
            continue
        if len({abs(c) for c, _ in terms}) == 1 and not any(
            _absorbs_scale(t) for _, t in terms
        ):
            # a single-magnitude sum gives its magnitude to the product, and
            # its sign too: oriented on one fixed term, so that f*(a - b) and
            # f*(b - a) are like terms
            lead = min(terms, key=lambda term: repr(term[1]))[0]
            coef *= lead
            terms = _Sum((1 if c == lead else -1, t) for c, t in terms)
        factors.append(terms)
    if not factors:
        return _Sum([(coef, S_ONE)])
    if len(factors) > 1:
        return _Sum([(coef, _Product(factors))])
    if isinstance(factors[0], _Sum):  # a scaled sum distributes into its parent
        return _merge_like([(coef * c, t) for c, t in factors[0]])
    return _Sum([(coef, factors[0])])


def _emit_term(coef, core) -> Expr:
    if not isinstance(core, _Product):
        return Mul(coef, core)
    factors = list(core)
    sums = [i for i, f in enumerate(factors) if isinstance(f, _Sum)]
    weighted = [i for i in sums if not _is_bare(factors[i])]
    if coef != 1 and weighted:
        # the constants of a weighted sum take the scale for free; only a
        # unit-weight group in it pays a new multiply, which still beats a
        # multiply in front unless that one rides on a hoisted leading factor
        i = weighted[0]
        has_unit = any(abs(c) == 1 and not _absorbs_scale(t) for c, t in factors[i])
        if abs(coef) == 1 or not (has_unit and _invariant(factors[0])):
            factors[i] = _Sum((coef * c, t) for c, t in factors[i])
            coef = 1
    if coef < 0:
        # a weighted sum or a difference negates for free, and +-c*f*(a - b)
        # then share one hoisted c*f (x - x is its own negation: no gain)
        for i in sums:
            plus = {t for c, t in factors[i] if c > 0}
            minus = {t for c, t in factors[i] if c < 0}
            if i in weighted or (plus and minus and not plus & minus):
                factors[i] = _Sum((-c, t) for c, t in factors[i])
                coef = -coef
                break
    return Mul(coef, *[_emit_sum(f) if isinstance(f, _Sum) else f for f in factors])


def _emit_sum(terms: _Sum) -> Expr:
    """Gather *terms* of equal coefficient magnitude into ``c*(a + b - d)``.

    Unit-weight terms stay bare, constants and terms whose scale is hoisted
    stay on their own, and negated bare terms go last so the left-associative
    chain subtracts them instead of negating its head."""
    gathers = [
        abs(coef) != 1 and core is not S_ONE and not _absorbs_scale(core)
        for coef, core in terms
    ]
    groups: Dict[object, list] = {}
    for term, gather in zip(terms, gathers):
        if gather:
            groups.setdefault(abs(term[0]), []).append(term)
    head: List[Expr] = []
    tail: List[Expr] = []
    for (coef, core), gather in zip(terms, gathers):
        members = groups[abs(coef)] if gather else ()
        if len(members) < 2:
            (tail if coef == -1 else head).append(_emit_term(coef, core))
        elif (coef, core) == members[0]:  # the group sits at its first member
            pos = [_emit_term(1, t) for c, t in members if c > 0]
            neg = [_emit_term(1, t) for c, t in members if c < 0]
            if pos:
                head.append(Mul(abs(coef), Add(*pos, *[Mul(-1, e) for e in neg])))
            else:
                head.append(Mul(coef, Add(*neg)))
    return Add(*head, *tail)


def factorize(expr: Expr) -> Expr:
    """Collect numeric coefficients so the generated kernel spends one
    whole-box multiply per *distinct* weight instead of one per term.

    Inside every sum, numeric scales are distributed into nested sums
    (``0.01*(c0*u0 + c1*u1)`` -> ``(0.01*c0)*u0 + (0.01*c1)*u1``), like terms
    are merged, and the terms are regrouped by coefficient magnitude into
    ``c*(a + b)`` / ``c*(a - b)``; signs end up in the constants or in a
    subtraction, never in a separate negation.  A uniform-spacing Laplacian
    becomes ``k0*u + k1*(six neighbours) + k2*(six neighbours)``.

    Non-numeric factors stay opaque: a product ``f*(...)`` of fields and sums
    is one term, and its scale is left in front when the leading factor is
    time-invariant, where :func:`hoist_invariants` precomputes it.  The
    rewrite is exact in real arithmetic, reassociates in floating point (a
    few ulp per term), and preserves the set of grid reads.  The result is a
    fixed point, so the pass is idempotent.  Fields are assumed floating:
    collecting ``0.5*a + 0.5*a`` into ``a`` would not promote an integer ``a``.
    """
    while True:
        out = _emit_sum(_parse(expr))
        if out == expr:
            return out
        # placing a scale can make two products equal that were not before
        # (2*f*(a + b/2) and f*(2*a + b)); the next round merges them, and
        # every such round leaves fewer terms, so this ends
        expr = out


def factorize_sweep(eqs: Sequence[Eq]) -> List[Eq]:
    """:func:`factorize` every right-hand side of a sweep's bound equations.

    Runs once per bind, after the dt/spacing substitution and ahead of every
    engine, so ``c``, ``fused`` and ``interp`` execute one tree."""
    return [Eq(e.lhs, factorize(e.rhs)) for e in eqs]
