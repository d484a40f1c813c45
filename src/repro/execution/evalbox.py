"""Vectorised evaluation of update equations on sub-boxes of the grid.

This is the execution primitive shared by every schedule: the naive
time-stepper evaluates each equation on the full interior box; the spatially
blocked and wavefront executors evaluate the same equations on smaller boxes.
Each :class:`~repro.dsl.symbols.Indexed` access is mapped onto a shifted NumPy
view of the field's padded buffer, so a single call updates a whole box with
vectorised arithmetic.
"""

from __future__ import annotations

import ctypes
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.metrics import flop_count
from ..dsl.equation import Eq
from ..dsl.functions import TimeFunction
from ..dsl.grid import Grid
from ..dsl.symbols import Expr, Indexed
from ..errors import EngineCompilationError

__all__ = [
    "Box",
    "full_box",
    "clip_box",
    "box_is_empty",
    "box_view",
    "BoundEq",
    "BoundSweep",
    "compile_front_half",
    "load_kernel",
    "ENGINES",
]

#: execution engines, in ladder order: "c" = one compiled C loop nest per
#: sweep (default), "fused" = the same three-address program as NumPy ufunc
#: passes, "interp" = the tree-walking interpreter (the oracle and terminal
#: rung).  They are bit-identical.
ENGINES = ("c", "fused", "interp")

Box = Tuple[Tuple[int, int], ...]  # ((lo, hi) per spatial dimension), hi exclusive


def full_box(grid: Grid) -> Box:
    """The whole interior iteration space."""
    return tuple((0, s) for s in grid.shape)


def clip_box(box: Box, grid: Grid) -> Box:
    """Intersect *box* with the grid interior."""
    return tuple(
        (max(lo, 0), min(hi, s)) for (lo, hi), s in zip(box, grid.shape)
    )


def box_is_empty(box: Box) -> bool:
    return any(hi <= lo for lo, hi in box)


def box_view(access: Indexed, t: int, box: Box, dim_names: Sequence[str]) -> np.ndarray:
    """The NumPy view of *access* on *box* at logical timestep *t*.

    TimeFunction accesses resolve through the circular time buffer; all
    spatial offsets shift the slice within the halo-padded buffer.
    """
    func = access.function
    offsets = access.offset_map()
    if isinstance(func, TimeFunction):
        buf = func.buffer(t + offsets.get("t", 0))
    else:
        buf = func.data_with_halo
    h = func.halo
    slices = tuple(
        slice(h + lo + offsets.get(name, 0), h + hi + offsets.get(name, 0))
        for name, (lo, hi) in zip(dim_names, box)
    )
    return buf[slices]


class BoundEq:
    """An equation bound to its grid, pre-analysed for fast box evaluation.

    Numeric values for ``dt`` and the spacing symbols must already have been
    substituted into the equation (see
    :meth:`repro.ir.operator.Operator._bind`), leaving only Indexed leaves and
    numbers in the expression tree.  Evaluation walks that tree (the
    ``interp`` engine); :class:`BoundSweep` compiles the fused kernel over
    the same bound equations.
    """

    def __init__(self, eq: Eq, grid: Grid):
        self.eq = eq
        self.grid = grid
        self.lhs = eq.lhs
        self.rhs = eq.rhs
        free = {
            s.name for s in self.rhs.free_symbols()
        }
        if free:
            raise ValueError(
                f"unbound symbols {sorted(free)} in equation {eq}; substitute "
                "dt and grid spacings before execution"
            )
        self.reads: List[Indexed] = sorted(self.rhs.atoms(Indexed), key=str)
        self.dim_names = [d.name for d in grid.dimensions]
        self.write_time_offset = self.lhs.offset_map().get("t", 0)

    # -- view construction -------------------------------------------------------
    def _view(self, access: Indexed, t: int, box: Box) -> np.ndarray:
        return box_view(access, t, box, self.dim_names)

    def evaluate(self, t: int, box: Box) -> None:
        """Execute ``lhs[box] <- rhs[box]`` for logical timestep *t*."""
        if box_is_empty(box):
            return
        out = self._view(self.lhs, t, box)
        env: Dict[Expr, np.ndarray] = {a: self._view(a, t, box) for a in self.reads}
        result = self.rhs.evaluate(env)
        out[...] = result

    def __repr__(self) -> str:
        return f"BoundEq({self.eq})"


def _compiling(engine: str, make):
    """``make()``, any failure an :class:`EngineCompilationError` of *engine*."""
    try:
        return make()
    except EngineCompilationError:
        raise
    except Exception as exc:
        raise EngineCompilationError(
            f"{engine} sweep compilation failed: {exc}", engine=engine
        ) from exc


def compile_front_half(eqs: Sequence, engine: str):
    """Hoist model-only subtrees of *eqs* (bound ``lhs``/``rhs`` pairs), then
    lower them: ``(hoisted fields, reads, compiled sweep)``.  Inline, a
    model term costs ``fused`` a ufunc pass per box, so it hoists every
    maximal invariant subtree; it costs ``c`` register work, cheaper than
    streaming a precomputed grid, so it hoists only what C cannot express
    (``sin(m)``, ``m**0.3``).  Every call compiles (the bind table,
    :func:`repro.ir.pycodegen.structural`, keeps what an operator compiled);
    a failure is an :class:`EngineCompilationError`."""
    from ..ir.passes import hoist_invariants
    from ..ir import pycodegen

    def make():
        writes = [e.lhs for e in eqs]
        select = pycodegen.lowers_outside_c if engine == "c" else None
        hoisted = hoist_invariants([e.rhs for e in eqs], select=select)
        reads = sorted({a for rhs in hoisted.rhss for a in rhs.atoms(Indexed)}, key=str)
        dtypes = [[a.function.dtype for a in accesses] for accesses in (reads, writes)]
        return hoisted.fields, reads, pycodegen.compile_sweep(writes, hoisted.rhss, reads, *dtypes)

    return _compiling(engine, make)


def load_kernel(engine: str, compiled, dims: Sequence[str], sparse=()):
    """What runs *compiled* on *engine*, loaded once per bind-table entry:
    the address of the C sweep function (:func:`repro.ir.cgen.emit_sweep`,
    its epilogue running *sparse*), which the walker calls, or the NumPy
    closure (:func:`repro.ir.pycodegen.numpy_kernel`).  A failure is an
    :class:`EngineCompilationError`."""
    from ..ir import cgen, pycodegen

    def load():
        if engine != "c":
            return pycodegen.numpy_kernel(compiled)
        fn = cgen.build(cgen.emit_sweep(compiled.program, dims, sparse=sparse)).sweep
        return ctypes.cast(fn, ctypes.c_void_p).value

    return _compiling(engine, load)


class BoundSweep:
    """All equations of one sweep bound to the grid, driven by one engine.

    This is the sweep-granular execution primitive: each ``(t, box)``
    instance runs all of the sweep's equations in order, through
    :meth:`evaluate` or, on the C rung, the walker.

    * ``engine="fused"``: model-only terms hoisted into grids, all equations
      compiled into a single three-address program (:func:`compile_front_half`)
      run as ufunc passes fed from a :class:`~repro.ir.pycodegen.ScratchPool`.
      The array views for a ``(t, box)`` instance are built once per
      instance and memoised — the views only depend on ``t`` modulo the
      time-buffer period, so wavefront execution revisiting the same box at
      a congruent timestep pays zero view-construction cost.
    * ``engine="c"`` (the ladder's head): the same front half, which for
      this rung hoists only what C cannot express, emitted as one C loop
      nest (:func:`repro.ir.cgen.emit_sweep`) that reads the model
      directly and ends each pencil with the grid-aligned operators
      *sparse* (:meth:`sparse_table`); the memo holds a pointer / stride /
      extent table instead of views (:meth:`bind`), and the executor runs
      the instances, a run of steps per C call, through the static unit's
      walker — :meth:`evaluate` raises a ``TypeError`` on such a sweep.
    * ``engine="interp"``: the tree-walking interpreter, equation by
      equation.

    All engines produce bit-identical results; the equivalence suite
    asserts this across every physics × schedule combination.  *front*,
    kept as :attr:`front`, hands in ``(hoisted fields, reads, compiled
    sweep, loaded kernel)``; without it the sweep compiles and loads its own.
    """

    def __init__(self, eqs: Sequence[Eq], grid: Grid, engine: str = "fused", pool=None,
                 front=None, sparse: Sequence[Tuple[str, int]] = ()):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.grid = grid
        self.engine = engine
        self.eqs = list(eqs)
        self.dim_names = [d.name for d in grid.dimensions]
        # BoundEq validates unbound symbols for both engines (raising raw:
        # an invalid equation is not an engine failure the ladder could
        # recover from) and is the interpreter's execution vehicle
        self.beqs = [BoundEq(e, grid) for e in self.eqs]
        self._kernel = self.compiled = None
        self.sparse = tuple(sparse)
        if engine == "interp":
            #: flops and array accesses (reads + the write, per equation) per
            #: grid point, as bound -- on the compiled rungs, after hoisting
            self.flops = float(sum(flop_count(beq.rhs) for beq in self.beqs))
            self.accesses = sum(len(beq.reads) + 1 for beq in self.beqs)
        else:
            from ..ir.pycodegen import ScratchPool

            self.writes: List[Indexed] = [beq.lhs for beq in self.beqs]
            if front is None:
                front = compile_front_half(self.beqs, engine)
                front += (load_kernel(engine, front[2], self.dim_names, sparse),)
            self.front = front
            self.hoisted_fields, self.reads, self.compiled, self._kernel = front
            self.flops, self.accesses = self.compiled.flops, self.compiled.accesses
            # hoisted buffers are filled lazily at the first evaluate and
            # refreshed per bind so model mutations between applies are observed
            self._stale_invariants = bool(self.hoisted_fields)
            if engine == "c":
                self._ctab = np.array(self.compiled.constvals, dtype=np.float64)
                #: the walker's ``(sweep function, ctab)`` addresses
                self.c_entry = (self._kernel, self._ctab.ctypes.data)
            else:
                self._slotspec = tuple(self.compiled.program.pool_ids().values())
                self.pool = pool if pool is not None else ScratchPool()
            self._period = math.lcm(
                *[
                    a.function.buffers
                    for a in (*self.writes, *self.reads)
                    if isinstance(a.function, TimeFunction)
                ],
                1,
            )
            self._view_cache: Dict[Tuple, tuple] = {}
            #: the step tables of its plan's runs, one dict the plan's sweeps
            #: share (:func:`repro.execution.executors._execute`)
            self.runs: Dict[Tuple, tuple] = {}
            # plain-int tallies of the memoised (t, box) bindings; read by
            # the telemetry layer as per-run deltas (Operator.apply).  Kept
            # unconditional: two int adds per evaluate are noise next to the
            # kernel call, and gating them would cost the branch they save.
            self.view_hits = 0
            self.view_misses = 0

    def sparse_table(self, injections: Sequence, receivers: Sequence) -> Optional[np.ndarray]:
        """The ``sp`` table of one run (:func:`repro.ir.cgen.emit_sweep`; its
        first two entries count the points injected and gathered), or
        ``None`` when they run per instance instead: not the C rung, none
        attached, or raw off-grid.  They come in the epilogue's order."""
        ops = (*injections, *receivers)
        if not (self.engine == "c" and ops) or not all(hasattr(op, "c_record") for op in ops):
            return None
        kinds = ["inject"] * len(injections) + ["gather"] * len(receivers)
        if [k for k, _ in self.sparse] != kinds:
            raise ValueError(f"sweep epilogue {self.sparse} does not run the operators {kinds}")
        shape = self.grid.shape
        pencils = [np.prod(shape[i + 1:-1], dtype=np.int64) for i in range(len(shape) - 1)]
        records = sum((op.c_record() for op in ops), [])
        return np.array([0, 0, shape[-1], *pencils, *records], dtype=np.int64)

    def bind(self, t: int, box: Box) -> Optional[tuple]:
        """The memoised binding of one ``(t % period, box)`` instance
        (:meth:`_bind_box`), or ``None`` for an empty box; hoisted
        invariants are refreshed first when stale."""
        if self._stale_invariants:
            self.materialise_invariants()
        # cache-hit path first: empty boxes are never cached, so a hit implies
        # a non-empty box and the hot loop skips the emptiness scan entirely
        key = (t % self._period, box)
        bound = self._view_cache.get(key)
        if bound is None:
            self.view_misses += 1
            if box_is_empty(box):
                return None
            if len(self._view_cache) >= 4096:  # safety valve, never hit in practice
                self._view_cache.clear()
                self.runs.clear()  # their tables point into the bindings
            bound = self._view_cache[key] = self._bind_box(t, box)
        else:
            self.view_hits += 1
        return bound

    def evaluate(self, t: int, box: Box) -> None:
        """Execute every equation of the sweep on *box* at timestep *t*
        (``fused`` and ``interp``)."""
        if self.engine == "c":
            raise TypeError("a C-bound sweep runs through the walker: cgen.static_unit().walk")
        if self._kernel is None:
            for beq in self.beqs:
                beq.evaluate(t, box)
            return
        bound = self.bind(t, box)
        if bound is not None:
            self._kernel(*bound)

    def _bind_box(self, t: int, box: Box) -> tuple:
        """What one ``(t % period, box)`` instance hands its kernel: scratch
        slots and array views (fused), or the address of an extent / pointer /
        stride table (C; the layout :func:`repro.ir.cgen.emit_sweep` reads)."""
        outs = tuple(box_view(l, t, box, self.dim_names) for l in self.writes)
        views = tuple(box_view(a, t, box, self.dim_names) for a in self.reads)
        if self.engine == "fused":
            slots = tuple(self.pool.slab_view(outs[0].shape, dt, i) for dt, i in self._slotspec)
            return (slots, outs, views)
        arrays = outs + views
        if any(a.strides[-1] != a.itemsize for a in arrays):
            raise ValueError("C engine needs fields contiguous along the innermost dimension")
        tab = np.array(
            [
                *outs[0].shape,
                *(a.ctypes.data for a in arrays),
                *(s for a in arrays for s in a.strides[:-1]),
                *(lo for lo, _ in box),
            ],
            dtype=np.int64,
        )
        # raw addresses outlive this call only because field storage (time
        # buffers, model arrays, hoisted invariants) is rewritten in place,
        # never reallocated -- model updates, checkpoint restores and ABFT
        # rollbacks all go through ``buf[...] = ``; the views ride along to
        # keep that storage alive for as long as the table is
        return (tab.ctypes.data, tab, arrays)

    def kernel_program(self):
        """The three-address program (:class:`~repro.ir.nodes.TAProgram`)
        this sweep runs, or ``None`` under the interpreter — the input of the
        kernel-level static analyses (:mod:`repro.verify.absint`)."""
        return None if self.compiled is None else self.compiled.program

    def materialise_invariants(self) -> None:
        """Refresh the hoisted model-term buffers if stale: before any
        binding reads them (they are allocated lazily) and before a replayed
        C run, which binds nothing, reads them."""
        if self._stale_invariants:
            for hf in self.hoisted_fields:
                hf.materialise()
            self._stale_invariants = False

    def invalidate_invariants(self) -> None:
        """Force hoisted model-term buffers to re-materialise on next use.

        Called once per ``Operator.apply`` when a cached bound sweep is
        reused, so mutations of time-invariant fields (velocity model,
        anisotropy parameters, ...) between applies are picked up.
        """
        if self._kernel is not None and self.hoisted_fields:
            self._stale_invariants = True

    def __iter__(self):
        return iter(self.beqs)

    def __len__(self) -> int:
        return len(self.beqs)

    def __repr__(self) -> str:
        return f"BoundSweep({len(self.beqs)} eqs, engine={self.engine!r})"
