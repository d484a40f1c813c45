"""Vectorised evaluation of update equations on sub-boxes of the grid.

This is the execution primitive shared by every schedule: the naive
time-stepper evaluates each equation on the full interior box; the spatially
blocked and wavefront executors evaluate the same equations on smaller boxes.
Each :class:`~repro.dsl.symbols.Indexed` access is mapped onto a shifted NumPy
view of the field's padded buffer, so a single call updates a whole box with
vectorised arithmetic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

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


def compile_front_half(eqs: Sequence, engine: str):
    """Hoist model-only subtrees of *eqs* (bound ``lhs``/``rhs`` pairs), then
    lower them into one three-address kernel: ``(hoist result, reads, kernel)``.
    Inline, a model term costs ``fused`` a ufunc pass per box, so it hoists
    every maximal invariant subtree; it costs ``c`` register work, cheaper
    than streaming a precomputed grid, so it hoists only what C cannot
    express (``sin(m)``, ``m**0.3``)."""
    from ..ir.passes import hoist_invariants
    from ..ir.pycodegen import compile_sweep, lowers_outside_c

    writes = [e.lhs for e in eqs]
    hoisted = hoist_invariants(
        [e.rhs for e in eqs], select=lowers_outside_c if engine == "c" else None
    )
    reads = sorted({a for rhs in hoisted.rhss for a in rhs.atoms(Indexed)}, key=str)
    dtypes = [[a.function.dtype for a in accesses] for accesses in (reads, writes)]
    return hoisted, reads, compile_sweep(writes, hoisted.rhss, reads, *dtypes)


class BoundSweep:
    """All equations of one sweep bound to the grid, driven by one engine.

    This is the sweep-granular execution primitive: the executors call
    :meth:`evaluate` once per ``(t, box)`` instance and the sweep runs all of
    its equations in order.

    * ``engine="fused"``: model-only terms hoisted into grids, all equations
      compiled into a single three-address kernel (:func:`compile_front_half`)
      fed from a :class:`~repro.ir.pycodegen.ScratchPool`.  The array views for a
      ``(t, box)`` instance are built once per instance and memoised — the
      views only depend on ``t`` modulo the time-buffer period, so wavefront
      execution revisiting the same box at a congruent timestep pays zero
      view-construction cost.
    * ``engine="c"`` (the ladder's head): the same front half, which for
      this rung hoists only what C cannot express, emitted as one C loop
      nest (:func:`repro.ir.cgen.sweep_function`) that reads the model
      directly; the memo holds a pointer / stride / extent table instead of
      views and an instance is one ``ctypes`` call.
    * ``engine="interp"``: the tree-walking interpreter, equation by
      equation.

    All engines produce bit-identical results; the equivalence suite
    asserts this across every physics × schedule combination.  *front*
    hands in a compiled sweep's front half (kept as :attr:`front`).
    """

    def __init__(self, eqs: Sequence[Eq], grid: Grid, engine: str = "fused", pool=None, front=None):
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
        self._kernel = self._cfunc = None
        #: the right-hand sides this sweep evaluates per point (the compiled
        #: engines swap in the hoisted ones below); static costs count these
        executed = [beq.rhs for beq in self.beqs]
        if engine != "interp":
            from ..ir.cgen import sweep_function
            from ..ir.pycodegen import ScratchPool

            self.writes: List[Indexed] = [beq.lhs for beq in self.beqs]
            # hoisted buffers are filled lazily at the first evaluate and
            # refreshed per bind so model mutations between applies are observed
            try:
                self.front = front or compile_front_half(self.beqs, engine)
                hoisted, self.reads, self._kernel = self.front
                executed = hoisted.rhss
                self.hoisted_fields = hoisted.fields
                self._stale_invariants = bool(hoisted.fields)
                if engine == "c":
                    self._cfunc = sweep_function(self._kernel.__program__, self.dim_names)
                    self._ctab = np.array(self._kernel.__constvals__, dtype=np.float64)
                    self._ctab_addr = self._ctab.ctypes.data
            except EngineCompilationError:
                raise
            except Exception as exc:
                raise EngineCompilationError(
                    f"{engine} sweep compilation failed: {exc}", engine=engine
                ) from exc
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
            # plain-int tallies of the memoised (t, box) bindings; read by
            # the telemetry layer as per-run deltas (Operator.apply).  Kept
            # unconditional: two int adds per evaluate are noise next to the
            # kernel call, and gating them would cost the branch they save.
            self.view_hits = 0
            self.view_misses = 0
        #: flops and array accesses (reads + the write, per equation) per
        #: grid point, as bound -- after factorisation and hoisting
        self.flops = float(sum(flop_count(r) for r in executed))
        self.accesses = sum(len(r.atoms(Indexed)) + 1 for r in executed)

    def evaluate(self, t: int, box: Box) -> None:
        """Execute every equation of the sweep on *box* at timestep *t*."""
        if self._kernel is None:
            for beq in self.beqs:
                beq.evaluate(t, box)
            return
        if self._stale_invariants:
            # must precede view construction: hoisted-field views read the
            # lazily allocated invariant buffers
            for hf in self.hoisted_fields:
                hf.materialise()
            self._stale_invariants = False
        # cache-hit path next: empty boxes are never cached, so a hit implies
        # a non-empty box and the hot loop skips the emptiness scan entirely
        key = (t % self._period, box)
        bound = self._view_cache.get(key)
        if bound is None:
            self.view_misses += 1
            if box_is_empty(box):
                return
            if len(self._view_cache) >= 4096:  # safety valve, never hit in practice
                self._view_cache.clear()
            bound = self._view_cache[key] = self._bind_box(t, box)
        else:
            self.view_hits += 1
        if self._cfunc is None:
            self._kernel(*bound)
        else:
            self._cfunc(bound[0], self._ctab_addr)

    def _bind_box(self, t: int, box: Box) -> tuple:
        """What one ``(t % period, box)`` instance hands its kernel: scratch
        slots and array views (fused), or the address of an extent / pointer /
        stride table (C; the layout :func:`repro.ir.cgen.emit_sweep` reads)."""
        outs = tuple(box_view(l, t, box, self.dim_names) for l in self.writes)
        views = tuple(box_view(a, t, box, self.dim_names) for a in self.reads)
        if self._cfunc is None:
            slots = tuple(
                self.pool.slab_view(outs[0].shape, dt, i)
                for dt, i in self._kernel.__slotspec__
            )
            return (slots, outs, views)
        arrays = outs + views
        if any(a.strides[-1] != a.itemsize for a in arrays):
            raise ValueError("C engine needs fields contiguous along the innermost dimension")
        tab = np.array(
            [
                *outs[0].shape,
                *(a.ctypes.data for a in arrays),
                *(s for a in arrays for s in a.strides[:-1]),
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
        """The structured three-address program
        (:class:`~repro.ir.nodes.TAProgram`) of the fused kernel, or ``None``
        under the interpreter — the input of the kernel-level static
        analyses (:mod:`repro.verify.absint`)."""
        if self._kernel is None:
            return None
        return getattr(self._kernel, "__program__", None)

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
