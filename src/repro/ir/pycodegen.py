"""Kernel generation: compile the symbolic sweeps to three-address programs.

Devito's key trick is generating low-level code from the symbolic problem
definition.  :func:`compile_sweep`, the front half of both compiled rungs,
lowers all equations of a sweep, after the common-subexpression-elimination
pass of :func:`repro.ir.passes.cse_sweep`, into one frozen
:class:`~repro.ir.nodes.CompiledSweep`: a linear program of
``np.add(a, b, s)``-style instructions, its constants and static costs.  The
C rung emits its loop nest from it (:mod:`repro.ir.cgen`); only ``fused``
runs it as a NumPy closure (:func:`numpy_kernel`) on a :class:`ScratchPool`
— no temporaries are allocated on the hot path, repeated subexpressions are
evaluated once, and scratch slots are recycled by liveness so the pool stays
small.

The kernels are bit-identical to the tree-walking interpreter (the tests
assert this; the interpreter remains available as ``engine="interp"``, the
oracle and the ladder's terminal rung): instruction order follows the
interpreter's left-associative evaluation exactly, and every intermediate is
computed in the dtype NumPy promotion would naturally give (determined at
compile time by probing the ufuncs with zero-size specimen arrays).

:func:`compile_sweep` caches nothing: the one in-process cache of compiled
sweeps is the bind table (:func:`structural`), keyed on an operator's
``signature``, which serves each structure's front halves and loaded
kernels to every later operator of that structure.  Its entries hold names
and offsets, never a ``Function``: a dropped operator's fields are freed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import flop_count
from ..dsl.symbols import Add, Call, Expr, Indexed, Mul, Number, Pow, Symbol
from . import cgen
from .nodes import CompiledSweep, TAInstr, TAOperand, TAProgram

__all__ = [
    "compile_sweep",
    "numpy_kernel",
    "python_source",
    "lowers_outside_c",
    "ScratchPool",
    "kernel_cache_stats",
    "clear_kernel_caches",
    "structural",
    "rebuild",
]

_ALLOWED_CALLS = {"sin", "cos", "tan", "sqrt", "exp"}

# -- the bind table ----------------------------------------------------------------

#: the bind table, keyed on ``Operator.signature`` + what an entry adds to it:
#: factorised sweeps, each compiled rung's front halves, certificates
_BIND_CACHE: Dict[tuple, object] = {}


def _structure(expr: Expr) -> tuple:
    """*expr* as nested tuples of node types and ``_args``: equal exactly when
    the expressions are, and holding no ``Function`` (an ``Indexed`` node's
    args are its function's name and offsets), so a cache key keeps no
    operator's data alive."""
    return (type(expr).__name__,) + tuple(
        _structure(a) if isinstance(a, Expr) else a for a in expr._args
    )


_NODES = {cls.__name__: cls for cls in (Add, Call, Mul, Number, Pow, Symbol)}


def rebuild(structure: tuple, functions: Dict[str, object]) -> Expr:
    """The expression whose :func:`_structure` is *structure*, each
    ``Indexed`` node reading the function *functions* maps its name to."""
    kind, *args = structure
    if kind == "Indexed":
        return Indexed(functions[args[0]], args[1])
    return _NODES[kind](*(rebuild(a, functions) if isinstance(a, tuple) else a for a in args))


def structural(key: tuple, make: Callable[[], object]):
    """The bind table's entry for *key*, made by *make* if it has none."""
    entry = _BIND_CACHE.get(key)
    if entry is None:
        entry = _BIND_CACHE[key] = make()
    return entry


def kernel_cache_stats() -> Dict[str, float]:
    """Counters of the C rung's shared objects (``c_cache_hits``: served
    without compiling, ``c_cache_misses``: compiler runs, ``c_compile_s``:
    their seconds).  The bind table's own hits and misses are counted per
    bind, into its telemetry (``kernel_cache_hits`` / ``_misses``)."""
    return dict(cgen.STATS)


def clear_kernel_caches() -> None:
    """Reset every in-process table: the bind table, loaded C libraries,
    counters.  The on-disk ``.so`` cache is cross-process state and stays
    (:func:`repro.ir.cgen.clear_disk_cache` empties it)."""
    _BIND_CACHE.clear()
    cgen.reset()


# -- the fused three-address engine ----------------------------------------------


class ScratchPool:
    """Growable scratch slabs for generated kernels, one per ``(dtype, slot)``.

    A fused kernel's scratch slots are checked out with
    ``pool.slab_view(shape, dtype, slot)`` when a ``(t, box)`` instance is
    first bound (:meth:`~repro.ir.nodes.TAProgram.pool_ids`, per the
    emitter's refcounting allocator); the slabs persist on the pool, so
    steady-state execution performs **zero** allocations.  One 1-D slab
    backs every box shape via reshaped prefix
    views — wavefront execution touches many distinct clipped box shapes, and
    a per-shape pool would multiply buffers by that count — and the pool is
    shared freely across sweeps and operator rebuilds: a slab is keyed only
    by what it is, not by who uses it.

    Sharing is sound because every kernel writes each slot before reading it
    — the emitter's allocator hands out a slot only to a write, and the
    E301 scan of :mod:`repro.verify.absint.liveness` checks that in tier-1
    and in ``python -m repro.verify`` — so a slab's prior contents never
    matter.
    """

    __slots__ = ("_slabs",)

    def __init__(self) -> None:
        self._slabs: Dict[Tuple[str, int], np.ndarray] = {}

    def slab_view(self, shape: Tuple[int, ...], dtype: np.dtype, slot: int) -> np.ndarray:
        """A *shape*-shaped scratch view backed by the ``(dtype, slot)`` slab.

        A slab grows geometrically when a larger box arrives; earlier views
        keep the old storage, which is harmless — aliasing between *distinct*
        slots (the only aliasing that could corrupt a kernel call) never
        occurs, as each slot owns its own slab.
        """
        key = (np.dtype(dtype).str, int(slot))
        n = 1
        for s in shape:
            n *= int(s)
        slab = self._slabs.get(key)
        if slab is None or slab.size < n:
            cap = n if slab is None else max(n, 2 * slab.size)
            slab = np.empty(cap, dtype=dtype)
            self._slabs[key] = slab
        return slab[:n].reshape(shape)

    def __len__(self) -> int:
        """(dtype, slot) slabs currently allocated."""
        return len(self._slabs)

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._slabs.values())

    def clear(self) -> None:
        self._slabs.clear()


class _Operand:
    """A value in the three-address program: scalar, view or scratch slot."""

    __slots__ = ("kind", "text", "spec")

    def __init__(self, kind: str, text: str, spec):
        self.kind = kind  # 'scalar' | 'view' | 'slot'
        self.text = text  # source fragment (repr of the scalar / local name)
        self.spec = spec  # zero-size specimen array (None for scalars)


class _Emitter:
    """Lower rewritten expressions to three-address NumPy instructions.

    Intermediate dtypes are established by executing every instruction once,
    at compile time, on zero-size specimen arrays — so each scratch slot gets
    exactly the dtype NumPy promotion gives the interpreter, including weak
    scalar promotion.  Slots are recycled with exact liveness accounting
    (``_remaining`` tracks future operand consumptions per slot), which keeps
    the checkout list short regardless of expression size.
    """

    def __init__(self, view_names: Dict[Indexed, str], view_specs: Dict[str, np.ndarray]):
        self.view_names = view_names
        self.view_specs = view_specs
        self.instrs: List[TAInstr] = []
        self.slots: Dict[str, np.dtype] = {}  # slot name -> dtype
        self.consts: Dict[str, np.ndarray] = {}  # const name -> 0-d array
        self._const_names: Dict[Tuple[str, str], str] = {}
        self._free: Dict[np.dtype, List[str]] = {}
        self._remaining: Dict[str, int] = {}
        self._temps: Dict[Symbol, _Operand] = {}
        self._nslots = 0

    def _ta(self, op: _Operand) -> TAOperand:
        """The structured-IR operand mirroring *op*."""
        if op.kind == "scalar":
            return TAOperand("scalar", op.text, None)
        if op.kind == "const":
            return TAOperand("const", op.text, self.consts[op.text].dtype.name)
        kind = "view" if op.kind == "view" else "slot"
        return TAOperand(kind, op.text, op.spec.dtype.name)

    # -- slot lifecycle ---------------------------------------------------------
    def _alloc(self, spec: np.ndarray) -> _Operand:
        free = self._free.get(spec.dtype)
        if free:
            name = free.pop()
        else:
            name = f"s{self._nslots}"
            self._nslots += 1
            self.slots[name] = spec.dtype
        self._remaining[name] = 1
        return _Operand("slot", name, spec)

    def _consume(self, op: _Operand) -> None:
        if op.kind != "slot":
            return
        self._remaining[op.text] -= 1
        if self._remaining[op.text] == 0:
            self._free.setdefault(op.spec.dtype, []).append(op.text)

    def _retain(self, op: _Operand, extra: int) -> None:
        if op.kind == "slot" and extra:
            self._remaining[op.text] += extra

    # -- instruction emission ---------------------------------------------------
    def _emit(self, ufunc: str, operands: List[_Operand]) -> _Operand:
        spec = getattr(np, ufunc)(
            *[o.spec if o.spec is not None else eval(o.text) for o in operands]
        )
        # bind scalar literals as 0-d arrays of the partner operand's dtype:
        # NumPy's weak scalar promotion casts the Python scalar to exactly
        # that dtype anyway (guarded by the result-dtype check, which rules
        # out genuinely promoting cases like float * int_array), and the
        # prebound constant skips the per-call scalar conversion — a large
        # share of ufunc dispatch cost on small tiles
        if len(operands) == 2:
            for i, o in enumerate(operands):
                other = operands[1 - i]
                if (
                    o.kind == "scalar"
                    and other.spec is not None
                    and spec.dtype == other.spec.dtype
                ):
                    operands[i] = self._const(o.text, other.spec.dtype)
        for o in operands:
            self._consume(o)
        out = self._alloc(spec)
        # rendered with a positional out: skips the ufunc kwarg-parsing path,
        # which is measurable at wavefront tile sizes
        self.instrs.append(
            TAInstr(ufunc, tuple(self._ta(o) for o in operands), self._ta(out))
        )
        return out

    def _const(self, text: str, dtype: np.dtype) -> _Operand:
        key = (text, np.dtype(dtype).str)
        name = self._const_names.get(key)
        if name is None:
            name = f"_c{len(self.consts)}"
            self._const_names[key] = name
            self.consts[name] = np.asarray(eval(text), dtype=dtype)
        return _Operand("const", name, None)

    def _chain(self, ufunc: str, first: _Operand, rest: Sequence[Expr]) -> _Operand:
        acc = first
        for term in rest:
            if ufunc == "add":
                negated = self._negated_factor(term)
                if negated is not None:
                    # acc + ((-1*r1)*r2*...) == acc - (r1*r2*...) exactly:
                    # the -1 factor only ever flips the sign bit, and IEEE
                    # defines a - b as a + (-b) with identical rounding
                    rop = self.lower(negated)
                    acc = self._emit("subtract", [acc, rop])
                    continue
            acc = self._emit(ufunc, [acc, self.lower(term)])
        return acc

    @staticmethod
    def _negated_factor(term: Expr) -> Optional[Expr]:
        """``rest`` if *term* is ``Mul(-1, *rest)`` with float-safe dtypes."""
        if not (isinstance(term, Mul) and isinstance(term.args[0], Number)):
            return None
        c = term.args[0].value
        if c != -1 or not isinstance(c, int):
            # -1.0 * int_array would promote to float64; only the exact
            # integer literal is dtype-neutral under weak scalar promotion
            return None
        rest = term.args[1:]
        return rest[0] if len(rest) == 1 else Mul(*rest)

    # -- lowering ---------------------------------------------------------------
    def bind_temp(self, sym: Symbol, expr: Expr, uses: int) -> None:
        """Lower a CSE assignment ``sym = expr`` with *uses* future reads."""
        op = self.lower(expr)
        if op.kind == "slot":
            self._remaining[op.text] = uses
        self._temps[sym] = op

    def store(self, out_name: str, expr: Expr, out_dtype: Optional[np.dtype] = None) -> None:
        """Emit the final per-equation assignment ``out[...] = value``.

        When the value was just produced by the preceding instruction, is not
        read again, and already has the output dtype, the instruction is
        retargeted to write the output view directly — saving one full
        box-sized copy per equation.  (NumPy ufuncs handle out-aliases-input
        overlap correctly, so this is safe even for radius-0 self reads.)
        """
        op = self.lower(expr)
        out_ta = TAOperand(
            "out", out_name, np.dtype(out_dtype).name if out_dtype is not None else None
        )
        prev = self.instrs[-1] if self.instrs else None
        if (
            op.kind == "slot"
            and out_dtype is not None
            and op.spec.dtype == out_dtype
            and self._remaining.get(op.text, 0) == 1
            and prev is not None
            and prev.op != "store"
            and prev.out.name == op.text
        ):
            self.instrs[-1] = TAInstr(prev.op, prev.args, out_ta)
            self._consume(op)
            return
        self.instrs.append(TAInstr("store", (self._ta(op),), out_ta))
        self._consume(op)

    def lower(self, e: Expr) -> _Operand:
        if isinstance(e, Number):
            text = repr(float(e.value)) if isinstance(e.value, float) else repr(e.value)
            return _Operand("scalar", text, None)
        if isinstance(e, Indexed):
            name = self.view_names[e]
            return _Operand("view", name, self.view_specs[name])
        if isinstance(e, Symbol):
            try:
                return self._temps[e]
            except KeyError:
                raise ValueError(f"unbound symbol {e.name!r} in expression") from None
        if isinstance(e, Add):
            return self._chain("add", self.lower(e.args[0]), e.args[1:])
        if isinstance(e, Mul):
            return self._chain("multiply", self.lower(e.args[0]), e.args[1:])
        if isinstance(e, Pow):
            return self._lower_pow(e)
        if isinstance(e, Call):
            if e.name not in _ALLOWED_CALLS:
                raise ValueError(f"unsupported call {e.name!r} in generated kernel")
            return self._emit(e.name, [self.lower(e.argument)])
        raise TypeError(f"cannot lower node {type(e).__name__}")

    def _lower_pow(self, e: Pow) -> _Operand:
        op = _pow_op(e.exponent)  # lowers_outside_c reads the same decision
        if op == "divide":
            return self._emit("divide", [_Operand("scalar", "1.0", None), self.lower(e.base)])
        if op == "multiply":
            # small integer powers lower to repeated multiplies
            base = self.lower(e.base)
            self._retain(base, e.exponent.value - 1)
            acc = base
            for _ in range(e.exponent.value - 1):
                acc = self._emit("multiply", [acc, base])
            return acc
        return self._emit("power", [self.lower(e.base), self.lower(e.exponent)])


def _pow_op(exponent: Expr) -> str:
    """The instruction :meth:`_Emitter._lower_pow` lowers ``x**exponent`` to."""
    v = exponent.value if isinstance(exponent, Number) else None
    if v == -1:
        return "divide"
    return "multiply" if isinstance(v, int) and 0 < v <= 4 else "power"


def lowers_outside_c(e: Expr) -> bool:
    """True if the root of *e* lowers to an instruction C cannot express
    (outside :data:`repro.ir.cgen.ELIGIBLE_OPS`): a call but ``sqrt``, a ``power``."""
    if isinstance(e, Call):
        return e.name not in cgen.ELIGIBLE_OPS
    return isinstance(e, Pow) and _pow_op(e.exponent) == "power"


def _count_symbol_uses(exprs: Sequence[Expr]) -> Dict[Symbol, int]:
    uses: Dict[Symbol, int] = {}
    for expr in exprs:
        for node in expr.preorder():
            if isinstance(node, Symbol):
                uses[node] = uses.get(node, 0) + 1
    return uses


def compile_sweep(
    lhss: Sequence[Indexed],
    rhss: Sequence[Expr],
    reads: Sequence[Indexed],
    read_dtypes: Sequence[np.dtype],
    out_dtypes: Sequence[np.dtype],
) -> CompiledSweep:
    """Compile all equations of a sweep into one three-address program.

    The program reads views ``vN`` in the order of *reads*, writes outputs
    ``oN`` in the order of *lhss* and keeps intermediates in scratch slots
    ``sN``.  Equations execute in order, each ending in a store to its
    output, so intra-sweep radius-0 reads of earlier writes observe updated
    data exactly as the interpreter's sequential per-equation evaluation
    does.  Every call compiles; the program is shape-agnostic and holds no
    field.
    """
    lhss = list(lhss)
    rhss = list(rhss)
    reads = list(reads)
    read_dtypes = [np.dtype(d) for d in read_dtypes]
    out_dtypes = [np.dtype(d) for d in out_dtypes]

    from .passes import cse_sweep

    written = frozenset((l.function.name, l.offset_map().get("t", 0)) for l in lhss)
    cse = cse_sweep(rhss, protected_keys=written)
    uses = _count_symbol_uses(
        [expr for sink in cse.assignments for _, expr in sink] + cse.rhss
    )

    view_names = {access: f"v{i}" for i, access in enumerate(reads)}
    view_specs = {
        f"v{i}": np.empty(0, dtype=dt) for i, dt in enumerate(read_dtypes)
    }
    em = _Emitter(view_names, view_specs)
    for i, rhs in enumerate(cse.rhss):
        for sym, expr in cse.assignments[i]:
            em.bind_temp(sym, expr, uses.get(sym, 1))
        em.store(f"o{i}", rhs, out_dtypes[i])

    program = TAProgram(
        instrs=tuple(em.instrs),
        slots=tuple((n, d.name) for n, d in em.slots.items()),
        views=tuple((f"v{i}", d.name) for i, d in enumerate(read_dtypes)),
        outs=tuple((f"o{i}", d.name) for i, d in enumerate(out_dtypes)),
        consts=tuple((n, a.dtype.name) for n, a in em.consts.items()),
    )
    return CompiledSweep(
        program=program,
        constvals=tuple(float(a) for a in em.consts.values()),
        ntemps=cse.ntemps,
        flops=float(sum(flop_count(r) for r in rhss)),
        accesses=sum(len(r.atoms(Indexed)) + 1 for r in rhss),
    )


def python_source(program: TAProgram) -> str:
    """The ``fused`` rung's source of *program*: ``_kernel(slots, outs,
    views)`` unpacks its slot and view tuples, then runs the instructions."""
    lines = ["def _kernel(slots, outs, views):"]
    for arg, names in (("slots", program.slots), ("outs", program.outs), ("views", program.views)):
        if names:
            lines.append(f"    ({', '.join(n for n, _ in names)},) = {arg}")
    lines.extend(f"    {line}" for line in program.render().split("\n"))
    return "\n".join(lines) + "\n"


def numpy_kernel(compiled: CompiledSweep) -> Callable:
    """The ``fused`` rung's NumPy closure of *compiled*:
    ``kernel(slots, outs, views)``, box-shaped views in program order, the
    slots checked out of a :class:`ScratchPool` per
    :meth:`~repro.ir.nodes.TAProgram.pool_ids`.  Made once per bind-table
    entry; it holds the program's constants, no field."""
    program = compiled.program
    namespace: Dict[str, object] = {"np": np}
    for (name, dtype), value in zip(program.consts, compiled.constvals):
        namespace[name] = np.asarray(value, dtype=dtype)
    exec(compile(python_source(program), filename="<repro-fused-kernel>", mode="exec"), namespace)
    return namespace["_kernel"]
