"""The ``Operator``: from symbolic equations + sparse operators to execution.

This is the user-facing entry point, mirroring Devito's ``Operator``::

    op = Operator([update], sparse=[src.inject(u, expr=dt**2/m),
                                    rec.interpolate(u)])
    op.apply(time_M=nt, dt=dt)                                # naive
    op.apply(time_M=nt, dt=dt, schedule="wavefront")          # time-tiled
    op.apply(time_M=nt, dt=dt, schedule=WavefrontSchedule())  # exactly this shape

``apply`` binds numeric ``dt``/spacings into the equations, attaches the
sparse operators (raw off-the-grid for untiled schedules; precomputed
grid-aligned -- the paper's scheme -- for wavefront schedules), and runs the
requested traversal.  ``ccode`` returns the C translation unit the ``"c"``
engine runs.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.aligned import AlignedInjection, AlignedReceiver
from ..core.decompose import decompose_receiver, decompose_source
from ..core.masks import build_masks
from ..core.scheduler import (
    NaiveSchedule,
    Schedule,
    WavefrontSchedule,
    schedule_for,
)
from ..dsl.equation import Eq
from ..dsl.functions import Injection, Interpolation
from ..dsl.grid import Grid
from ..dsl.symbols import Indexed, Number, Symbol
from ..errors import (
    BoundsProofError,
    EngineCompilationError,
    EngineFallbackWarning,
    InvalidTimeRange,
)
from ..execution.evalbox import ENGINES, BoundEq, BoundSweep, compile_front_half, load_kernel
from ..execution.executors import ExecutionPlan, run_schedule
from ..execution.sparse import RawInjection, RawInterpolation
from . import cgen, pycodegen
from .dependencies import Sweep, build_sweeps, wavefront_angle
from .passes import HoistedField
from .pycodegen import _structure, rebuild, structural

__all__ = ["Operator"]

SparseOp = Union[Injection, Interpolation]


def _eq_structure(eq: Eq) -> tuple:
    return _structure(eq.lhs), _structure(eq.rhs)


def _pack_front(front) -> tuple:
    """A bound sweep's front half and loaded kernel as the bind table keeps
    them: field-free."""
    fields, reads, compiled, kernel = front
    defs = [(hf.name, _structure(hf.expr), hf.halo, hf.dtype.str) for hf in fields]
    return defs, [_structure(a) for a in reads], compiled, kernel


def _unpack_front(packed, functions: Dict[str, object]) -> tuple:
    """The front half *packed* describes, on *functions* (hoisted fields anew,
    with the dtypes the first bind derived)."""
    defs, reads, compiled, kernel = packed
    fields = [
        HoistedField(name, rebuild(expr, functions), halo, dtype)
        for name, expr, halo, dtype in defs
    ]
    names = {**functions, **{hf.name: hf for hf in fields}}
    return fields, [rebuild(a, names) for a in reads], compiled, kernel


def _view_cache_totals(plan: ExecutionPlan) -> Tuple[int, int]:
    """Summed (hits, misses) of the compiled sweeps' memoised ``(t, box)``
    bindings (views under fused, pointer tables under C); (0, 0) for the
    interpreter, which has none."""
    hits = sum(getattr(s, "view_hits", 0) for s in plan.sweeps)
    misses = sum(getattr(s, "view_misses", 0) for s in plan.sweeps)
    return hits, misses


class Operator:
    """An executable stencil operator with optional off-the-grid operators."""

    def __init__(
        self,
        eqs: Sequence[Eq],
        sparse: Sequence[SparseOp] = (),
        name: str = "Kernel",
    ):
        eqs = list(eqs)
        if not eqs:
            raise ValueError("operator needs at least one equation")
        self.name = str(name)
        self.eqs = eqs
        self.sparse_ops: List[SparseOp] = list(sparse)
        self.grid = self._infer_grid()
        self.sweeps: List[Sweep] = build_sweeps(eqs)
        # per-sweep read radius: equations are immutable, so walked once here,
        # not on every bind
        self.sweep_radii: List[int] = [s.read_radius() for s in self.sweeps]
        # what depends on coordinates stays per operator: the precomputation
        # caches (shared with TemporalBlockingPipeline), keyed by the sparse
        # function / operator *object*: unlike a name, it is unique, and
        # unlike an id() it cannot be recycled while cached
        self._mask_cache: Dict[object, object] = {}
        self._decomp_cache: Dict[tuple, object] = {}
        # and the bound sweeps, which hold its views and pointer tables
        # (buffers are rewritten in place, so they stay valid across
        # applies), keyed by the *requested* engine too: engine="fused" after
        # a cached C bind really binds fused.  The interpreter binds per
        # apply.  The rest of a bind is in the bind table, per signature.
        self._sweep_cache: Dict[Tuple[float, str], List[BoundSweep]] = {}
        # cumulative wall-time of the static analyses run on this operator's
        # behalf (legality, halo and growth proofs); an analysis the bind
        # table serves costs none
        self.analyzer_seconds = 0.0
        # one scratch pool per operator, shared by all fused sweeps across
        # apply() calls -- slabs are keyed by (dtype, slot) so reuse is
        # automatic and steady-state execution allocates nothing
        from ..ir.pycodegen import ScratchPool

        self._pool = ScratchPool()

    # -- introspection -------------------------------------------------------------
    def _infer_grid(self) -> Grid:
        grids = {e.write_function.grid for e in self.eqs}
        for s in self.sparse_ops:
            grids.add(s.field.grid)
        if len(grids) != 1:
            raise ValueError("all equations/operators must share one grid")
        return grids.pop()

    @property
    def wavefront_angle(self) -> int:
        """Skew per timestep needed by wavefront blocking (Figs. 7/8)."""
        return wavefront_angle(self.sweeps)

    @cached_property
    def _functions(self) -> Dict[str, object]:
        """Name -> every function the equations and sparse operators touch."""
        functions = {s.field.name: s.field for s in self.sparse_ops}
        for e in self.eqs:
            for access in (e.lhs, *e.rhs.atoms(Indexed)):
                functions[access.function.name] = access.function
        return functions

    @cached_property
    def signature(self) -> tuple:
        """The bind table's key: everything field-free a bind depends on —
        the equations' structure, each function's layout, where the sparse
        operators attach, the grid, the name the verdicts carry.  Operators
        that differ only in coordinates or model values share it."""
        return (
            self.name,
            tuple(tuple(map(_eq_structure, s.eqs)) for s in self.sweeps),
            tuple(
                (name, type(f).__name__, f.halo, getattr(f, "buffers", 0), f.dtype.str)
                for name, f in sorted(self._functions.items())
            ),
            tuple((type(s).__name__, s.field.name, s.time_offset) for s in self.sparse_ops),
            tuple(self.grid.shape),
            tuple(float(h) for h in self.grid.spacing),
        )

    def injections(self) -> List[Injection]:
        return [s for s in self.sparse_ops if isinstance(s, Injection)]

    def interpolations(self) -> List[Interpolation]:
        return [s for s in self.sparse_ops if isinstance(s, Interpolation)]

    # -- certificates ----------------------------------------------------------------
    def _analysed(self, analysis, *args, **kwargs):
        """Run one static analysis, charging it to :attr:`analyzer_seconds`."""
        t0 = time.perf_counter()
        try:
            return analysis(*args, **kwargs)
        finally:
            self.analyzer_seconds += time.perf_counter() - t0

    def certificate_for(
        self, schedule: Optional[Schedule] = None, sparse_mode: str = "auto"
    ):
        """Prove the legality of *schedule* for this operator, returning the
        :class:`~repro.verify.certificate.LegalityCertificate`; raises
        :class:`~repro.errors.ScheduleLegalityError` with a concrete
        counterexample when the schedule is illegal (proved once per
        signature, schedule and sparse mode in a process; a refusal is not
        kept).  ``apply`` calls this as its wavefront preflight."""
        from ..verify.prover import prove_schedule, resolve_sparse_mode

        schedule = schedule or NaiveSchedule()
        mode = resolve_sparse_mode(sparse_mode, schedule)
        key = (self.signature, "legality", schedule.key(), mode)
        return structural(
            key, lambda: self._analysed(prove_schedule, self, schedule, sparse_mode=sparse_mode)
        )

    def bounds_certificate_for(
        self, schedule: Optional[Schedule] = None, sparse_mode: str = "auto"
    ):
        """Prove (once per signature in a process) that every stencil access
        stays inside its field's halo, returning the
        :class:`~repro.verify.certificate.BoundsCertificate`.  Unlike
        :meth:`certificate_for` this never raises — callers inspect
        ``cert.check()`` / ``cert.counterexample`` (``apply`` raises
        :class:`~repro.errors.BoundsProofError` on a refuted one).

        The verdict depends on neither argument: *schedule* and *sparse_mode*
        are accepted and ignored only because ``benchmarks/stack/workloads.py``
        passes them and that file is frozen."""
        from ..verify.absint.bounds import prove_bounds

        return structural((self.signature, "bounds"), lambda: self._analysed(prove_bounds, self))

    def growth_certificate_for(self, plan, dt: float = 1.0):
        """Prove the per-step amplitude-growth bound of *plan*'s bound sweeps,
        returning the :class:`~repro.verify.certificate.GrowthCertificate` the
        ABFT guard checks against.  Never cached: the bound reads the
        *current* model ranges, and models may be updated in place between
        applies."""
        from ..verify.absint.growth import prove_growth

        return self._analysed(prove_growth, plan.sweeps, operator=self.name, dt=dt)

    # -- sweep attachment ------------------------------------------------------------
    def _sweep_index_for(self, field_name: str, time_offset: int) -> int:
        for j, sweep in enumerate(self.sweeps):
            if (field_name, time_offset) in sweep.written_keys:
                return j
        raise ValueError(
            f"no equation writes ({field_name}, t+{time_offset}); cannot "
            "attach the sparse operator to a sweep"
        )

    # -- precomputation (the paper's pipeline, cached) -------------------------------
    def _masks_for(self, sparse_fn):
        if sparse_fn not in self._mask_cache:
            self._mask_cache[sparse_fn] = build_masks(sparse_fn)
        return self._mask_cache[sparse_fn]

    def _decomposed(self, sparse_op: SparseOp, dt: float):
        """The grid-aligned form of *sparse_op* (receivers do not depend on
        *dt* and are keyed at 0.0)."""
        is_source = isinstance(sparse_op, Injection)
        cache = self._decomp_cache
        key = (sparse_op, float(dt) if is_source else 0.0)
        if key not in cache:
            masks = self._masks_for(sparse_op.sparse)
            if is_source:
                # one src_dcmp per (source, scale, dt), not per injection: TTI
                # injects one source into p and q with the same dt**2/m, and
                # the second injection shares the first's array
                shared = (sparse_op.sparse, sparse_op.expr, key[1])
                if shared not in cache:
                    cache[shared] = decompose_source(sparse_op, dt, masks=masks)
                cache[key] = dataclasses.replace(
                    cache[shared],
                    time_offset=sparse_op.time_offset,
                    field_name=sparse_op.field.name,
                )
            else:
                cache[key] = decompose_receiver(sparse_op, masks=masks)
        return cache[key]

    def _aligned_injection(self, inj: Injection, dt: float) -> AlignedInjection:
        return AlignedInjection(self._decomposed(inj, dt), inj.field)

    def _aligned_receiver(self, itp: Interpolation, c: bool = False) -> AlignedReceiver:
        return AlignedReceiver(self._decomposed(itp, 0.0), itp.field, itp.sparse.data, c)

    def _attachments(self) -> List[List[tuple]]:
        """Per sweep, ``(kind, index of the write it touches, operator)`` of
        its sparse operators, injections then receivers: the order of both
        its C epilogue and the plan's lists, which ``sparse_table`` pairs."""
        out: List[list] = [[] for _ in self.sweeps]
        for kind, ops in (("inject", self.injections()), ("gather", self.interpolations())):
            for s in ops:
                j = self._sweep_index_for(s.field.name, s.time_offset)
                writes = [(w.function.name, w.time_offset) for w in self.sweeps[j].writes]
                out[j].append((kind, writes.index((s.field.name, s.time_offset)), s))
        return out

    # -- binding ------------------------------------------------------------------
    def bound_equations(self, dt: float) -> List[List[Eq]]:
        """Per sweep, the equations every engine rung (and the linter) reads:
        ``dt`` and the grid spacings substituted, then the
        coefficient-collecting factorisation of
        :func:`~repro.ir.passes.factorize_sweep` — once per signature and
        *dt* in a process, rebuilt on this operator's functions."""

        def factorised():
            from .passes import factorize_sweep

            subs = {sym: Number(float(h)) for sym, h in self.grid.spacing_map().items()}
            subs[Symbol("dt")] = Number(float(dt))
            return [
                list(map(_eq_structure, factorize_sweep([e.subs(subs) for e in s.eqs])))
                for s in self.sweeps
            ]

        fns = self._functions
        return [
            [Eq(rebuild(lhs, fns), rebuild(rhs, fns)) for lhs, rhs in sweep]
            for sweep in structural((self.signature, "eqs", float(dt)), factorised)
        ]

    def _build_sweeps(
        self, dt: float, engine: str, strict: bool, telemetry=None
    ) -> Tuple[str, List[BoundSweep]]:
        """Bind sweeps under *engine*, degrading down the ladder — ``ENGINES``
        from *engine* on — when a rung fails to build (an
        :class:`EngineCompilationError`: an ineligible op, no compiler, a
        failed build or load), with a structured warning unless *strict*.
        Returns the engine that actually compiled plus its bound sweeps.  A
        compiled rung's front halves and loaded kernels are kept in the bind
        table: a rung that failed to build leaves no entry, and a served bind
        generates and loads nothing.  *telemetry* counts each front half
        compiled as a ``kernel_cache_misses`` and each one the table served
        as a ``kernel_cache_hits``."""
        sweep_eqs = self.bound_equations(dt)
        epilogues = [tuple(a[:2] for a in ops) for ops in self._attachments()]
        dims = [d.name for d in self.grid.dimensions]
        rungs = ENGINES[ENGINES.index(engine):]
        for i, eng in enumerate(rungs):
            try:
                if eng == "interp":
                    return eng, [BoundSweep(eqs, self.grid, engine=eng) for eqs in sweep_eqs]
                bound: List[BoundSweep] = []

                def compile_rung():
                    for eqs, sparse in zip(sweep_eqs, epilogues):
                        # validated first: an unbound symbol raises raw
                        front = compile_front_half([BoundEq(e, self.grid) for e in eqs], eng)
                        if telemetry is not None:  # a miss, even if C then fails to build
                            telemetry.counters.add("kernel_cache_misses")
                        front += (load_kernel(eng, front[2], dims, sparse),)
                        bound.append(BoundSweep(eqs, self.grid, eng, self._pool, front, sparse))
                    return [_pack_front(sw.front) for sw in bound]

                fronts = structural((self.signature, "rung", float(dt), eng), compile_rung)
                if eng == "c":
                    # a rung binds its whole translation unit or degrades
                    cgen.static_unit()
                if not bound:  # served from the table: each sweep's kernel is a hit
                    if telemetry is not None:
                        telemetry.counters.add("kernel_cache_hits", len(fronts))
                    fns = self._functions
                    bound = [
                        BoundSweep(eqs, self.grid, eng, self._pool, _unpack_front(f, fns), sparse)
                        for eqs, f, sparse in zip(sweep_eqs, fronts, epilogues)
                    ]
                return eng, bound
            except EngineCompilationError as exc:
                if strict or i == len(rungs) - 1:
                    raise
                if telemetry is not None:
                    telemetry.counters.add("engine_fallbacks")
                    telemetry.event(
                        "engine.fallback",
                        phase="precompute",
                        failed=eng,
                        degraded_to=rungs[i + 1],
                        reason=getattr(exc, "reason", "build-failed"),
                    )
                warnings.warn(
                    EngineFallbackWarning(
                        f"{self.name}: engine {eng!r} failed to compile "
                        f"({exc}); degrading to {rungs[i + 1]!r}"
                    ),
                    stacklevel=3,
                )
        raise AssertionError("unreachable: ladder ends at the interpreter")

    def _bind(
        self,
        dt: float,
        schedule: Schedule,
        sparse_mode: str,
        engine: Optional[str] = None,
        strict_engine: bool = False,
        telemetry=None,
    ) -> ExecutionPlan:
        if engine is None:
            engine = ENGINES[0]
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        bound_sweeps = self._sweep_cache.get((float(dt), engine))
        if bound_sweeps is not None:
            for sw in bound_sweeps:
                sw.invalidate_invariants()
        else:
            effective, bound_sweeps = self._build_sweeps(
                dt, engine, strict_engine, telemetry=telemetry
            )
            # only the rung that was asked for is reusable across applies; a
            # degraded bind must retry the full ladder next time
            if effective == engine and engine != "interp":
                if len(self._sweep_cache) >= 8:  # many distinct dt values: bound
                    self._sweep_cache.clear()
                self._sweep_cache[float(dt), engine] = bound_sweeps
        # the receivers' reconstruction follows the sweeps onto the C rung
        c_sparse = bound_sweeps[0].engine == "c"

        from ..verify.prover import resolve_sparse_mode

        sparse_mode = resolve_sparse_mode(sparse_mode, schedule)
        if isinstance(schedule, WavefrontSchedule):
            # a cache hit after apply()'s preflight; for callers that bind
            # without it, the same proof (and the same rejection of off-grid
            # operators inside tiles, counterexample included)
            self.certificate_for(schedule, sparse_mode)

        plan = ExecutionPlan(
            grid=self.grid,
            sweeps=bound_sweeps,
            radii=list(self.sweep_radii),
        )
        precomputed = sparse_mode == "precomputed"
        for j, ops in enumerate(self._attachments()):
            for kind, _, s in ops:
                if kind == "gather":
                    ex = self._aligned_receiver(s, c_sparse) if precomputed else RawInterpolation(s)
                    plan.receivers.setdefault(j, []).append(ex)
                else:
                    ex = self._aligned_injection(s, dt) if precomputed else RawInjection(s, dt)
                    plan.injections.setdefault(j, []).append(ex)
        return plan

    # -- execution -----------------------------------------------------------------
    def apply(
        self,
        time_M: int,
        time_m: int = 0,
        dt: float = 1.0,
        schedule: Union[Schedule, str, None] = None,
        sparse_mode: str = "auto",
        engine: Optional[str] = None,
        checkpoint=None,
        faults=None,
        abft=None,
        strict_engine: bool = False,
        telemetry=None,
    ) -> ExecutionPlan:
        """Run iterations ``t in [time_m, time_M)`` under *schedule*.

        *schedule* is a :class:`~repro.core.scheduler.Schedule`, run as
        given, or a kind from :data:`~repro.core.scheduler.SCHEDULES` (default
        ``"naive"``), run as :func:`~repro.core.scheduler.schedule_for`'s
        shape, no taller than the run nor than ``checkpoint.every``;
        ``telemetry.meta["plan"]`` says which shape ran and whether it was
        ``"given"`` or the kind's ``"default"``.

        ``engine`` selects how sweeps execute: ``"c"`` (the default, the head
        of :data:`~repro.execution.evalbox.ENGINES`) runs each sweep as one
        compiled C loop nest, ``"fused"`` as the same three-address program
        in NumPy ufunc passes fed from a scratch pool, ``"interp"`` through
        the tree-walking interpreter (the oracle; also the ablation baseline
        and a debugging aid).  They are bit-identical.
        Returns the execution plan (useful for inspection in tests).

        Static gates, in this order and all before timestep 0: the halo
        certificate (:meth:`bounds_certificate_for`; a stencil reaching past
        its halo is a :class:`~repro.errors.BoundsProofError` on every engine
        and schedule — it never degrades), the legality certificate of a
        wavefront schedule (:meth:`certificate_for`), and ``plan.validate()``
        over the precomputed sparse structures.  A non-pointwise write never
        gets this far: :func:`~repro.ir.dependencies.build_sweeps` refuses it
        when the operator is built.

        Resilience (all optional, all off by default): a failing engine
        degrades down the c -> fused -> interp ladder (no C compiler, a failed
        build, an operation C cannot express bit-identically...) with an
        :class:`~repro.errors.EngineFallbackWarning` unless ``strict_engine``;
        ``checkpoint``/``faults`` attach a
        :class:`~repro.runtime.checkpoint.CheckpointConfig` (periodic
        snapshots, bit-identical resume) and a
        :class:`~repro.runtime.faults.FaultInjector`; ``abft`` attaches the
        :class:`~repro.runtime.abft.ABFTGuard`, configured here against the
        bound plan and this apply's growth certificate: at every
        containment-unit boundary a NaN/Inf raises
        :class:`~repro.errors.NumericalBlowup` and a finite amplitude over
        the certified bound is silent corruption, recovered by re-executing
        the tile from its entry snapshot.

        ``telemetry`` attaches a :class:`~repro.telemetry.Telemetry` buffer:
        binding/preflight/prover time lands in the ``precompute`` phase, the
        executors account stencil/injection/receiver/monitor time per phase
        (plus per-instance spans at ``detail="trace"``), and the static
        per-sweep flop/access counts are registered so achieved GPts/s and
        arithmetic intensity can be derived from measured sweep time.
        Telemetry never changes numerics — a telemetry-on run is
        bit-identical to a telemetry-off run.
        """
        if time_M <= time_m:
            raise InvalidTimeRange(
                f"time_M must exceed time_m, got [{time_m}, {time_M})"
            )
        origin = "given" if isinstance(schedule, Schedule) else "default"
        if origin == "default":
            cap = time_M - time_m if checkpoint is None else min(time_M - time_m, checkpoint.every)
            schedule = schedule_for(schedule or "naive", self.grid.ndim, cap)
        tel = telemetry
        if tel is not None:
            aspan = tel.begin(
                "apply",
                operator=self.name,
                schedule=schedule.kind,
                time_m=time_m,
                time_M=time_M,
            )
            last = aspan.start
        # halo gate, before the engine ladder: no rung is sound on an
        # out-of-halo read, so a refuted certificate never degrades — it is
        # a hard error before any buffer is touched
        bounds = self.bounds_certificate_for()
        if not bounds.check():
            ce = bounds.counterexample
            raise BoundsProofError(
                f"{self.name}: E101 stencil footprint exceeds the declared "
                f"halo: {ce.describe()}",
                engine=engine or ENGINES[0],
                diagnostics=[],
                counterexample=ce,
                certificate=bounds,
            )
        if isinstance(schedule, WavefrontSchedule):
            # dependence-legality preflight: a certificate per (schedule,
            # sparse-mode) pair, or a ScheduleLegalityError naming two
            # conflicting statement instances
            self.certificate_for(schedule, sparse_mode)
        if tel is not None:
            kc_base = pycodegen.kernel_cache_stats()
        plan = self._bind(
            dt,
            schedule,
            sparse_mode,
            engine=engine,
            strict_engine=strict_engine,
            telemetry=tel,
        )
        if tel is not None:
            # prove + bind (mask/decompose precomputation included) so far
            now = tel.now()
            tel.add_phase("precompute", now - last)
            last = now
            self._register_static_costs(tel, schedule, plan)
            tel.meta["plan"] = {"schedule": schedule.describe(), "origin": origin}
            view_base = _view_cache_totals(plan)
            kc = pycodegen.kernel_cache_stats()
            # the C rung's shared objects: served from memory or disk (hit)
            # or compiled (miss); compile seconds are part of the precompute
            # phase just closed
            tel.counters.add("c_cache_hits", kc["c_cache_hits"] - kc_base["c_cache_hits"])
            tel.counters.add("c_cache_misses", kc["c_cache_misses"] - kc_base["c_cache_misses"])
            tel.meta["c_compile_s"] = (
                tel.meta.get("c_compile_s", 0.0) + kc["c_compile_s"] - kc_base["c_compile_s"]
            )
        plan.validate()
        if tel is not None:
            now = tel.now()
            tel.add_phase("precompute", now - last)
            last = now
        if abft is not None:
            # proved per apply: the model may have changed in place since
            # this guard last ran
            abft.configure(plan, self.growth_certificate_for(plan, dt))
            if tel is not None:
                now = tel.now()
                tel.add_phase("precompute", now - last)
                last = now
        run_schedule(
            plan,
            time_m,
            time_M,
            schedule,
            checkpoint=checkpoint,
            faults=faults,
            abft=abft,
            telemetry=tel,
        )
        if tel is not None:
            hits, misses = _view_cache_totals(plan)
            tel.counters.add("view_cache_hits", hits - view_base[0])
            tel.counters.add("view_cache_misses", misses - view_base[1])
            tel.end(aspan)
        return plan

    def _register_static_costs(self, tel, schedule: Schedule, plan: ExecutionPlan) -> None:
        """Static per-sweep flop/access counts of the expressions actually
        bound (factorised, then hoisted as the bound rung hoists), joined with
        measured counters by :func:`repro.telemetry.derived_metrics`
        (achieved GPts/s, GFLOP/s, arithmetic intensity)."""
        tel.meta["operator"] = self.name
        tel.meta["schedule"] = schedule.describe()
        tel.meta["engine"] = engine = plan.sweeps[0].engine
        tel.meta["threads"] = cgen.team_size(plan.sweeps[0].dim_names) if engine == "c" else 1
        tel.meta["grid_shape"] = list(self.grid.shape)
        tel.meta["sweep_flops"] = [sw.flops for sw in plan.sweeps]
        tel.meta["sweep_accesses"] = [sw.accesses for sw in plan.sweeps]
        tel.meta["dtype_bytes"] = int(
            plan.sweeps[0].beqs[0].lhs.function.dtype.itemsize
        )

    # -- code generation ------------------------------------------------------------
    def ccode(self, dt: float = 1.0) -> str:
        """The C translation unit the ``"c"`` engine runs at timestep *dt*:
        one function per sweep (the paper's stencil nest, Listings 1/4, each
        pencil ending with the Listing-5 injection and gather of the
        grid-aligned operators attached to the sweep) and the static unit:
        the walker that runs a run of :func:`repro.core.scheduler.lower`'s
        steps — the time and tile loops of Listing 6 — in one OpenMP region,
        the wavefield reset and the receiver reconstruction.  Emitted
        from the C rung's own front half, so no compiler is needed.  Raises
        :class:`~repro.errors.EngineCompilationError` for a sweep the C rung
        cannot express."""
        dims = [d.name for d in self.grid.dimensions]
        sweep_eqs = self.bound_equations(dt)
        units = [
            f"/* {self.name}: sweep {j} of {len(self.sweeps)} */\n"
            + cgen.emit_sweep(compile_front_half(eqs, "c")[2].program, dims, f"sweep{j}",
                              tuple(a[:2] for a in ops))
            for j, (eqs, ops) in enumerate(zip(sweep_eqs, self._attachments()))
        ]
        units.append(f"/* {self.name}: the static unit */\n" + cgen.STATIC_SOURCE)
        return "\n".join(units)

    def __repr__(self) -> str:
        return (
            f"Operator({self.name}, sweeps={len(self.sweeps)}, "
            f"angle={self.wavefront_angle}, sparse={len(self.sparse_ops)})"
        )
