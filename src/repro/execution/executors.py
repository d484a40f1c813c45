"""The schedule executor: run a bound operator under naive, spatially blocked
or wave-front temporally blocked traversal.

The three schedules are one loop over the step list
:func:`repro.core.scheduler.lower` builds; they produce bit-identical results
when the sparse operators are grid-aligned.  A wavefront schedule *requires*
grid-aligned sparse operators — running one with raw off-the-grid injection
(:func:`repro.verify.oracle.run_oracle` with ``unsafe_offgrid=True``)
demonstrates the dependence violation of Fig. 4b and is provided exactly for
that negative test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..core.scheduler import (
    NO_SPARSE,
    NaiveSchedule,
    Schedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    lower,
    time_tiles,
)
from ..dsl.grid import Grid
from ..errors import InvalidTimeRange, PlanValidationError, SilentCorruptionError
from .evalbox import BoundSweep

__all__ = ["ExecutionPlan", "run_schedule"]


def _check_entry(plan: "ExecutionPlan", time_m: int, time_M: int) -> None:
    """Structured validation at the executor entry point.

    Failing here — with the offending values in the message — beats failing
    thousands of instances deep inside a tile loop with an index error.
    ``time_m == time_M`` is a legal empty run at this level; ``Operator.apply``
    keeps its stricter "must exceed" contract.
    """
    if time_M < time_m:
        raise InvalidTimeRange(
            f"time range is empty or reversed: time_m={time_m}, time_M={time_M}"
        )
    if any(s < 1 for s in plan.grid.shape):
        raise PlanValidationError(f"grid has an empty extent: shape {plan.grid.shape}")


def _check_block_shape(plan: "ExecutionPlan", extents, what: str) -> None:
    if not extents or any(b < 1 for b in extents):
        raise PlanValidationError(f"{what} has an empty extent: {tuple(extents)}")
    if len(extents) > plan.grid.ndim:
        raise PlanValidationError(
            f"{what} rank {len(extents)} exceeds grid rank {plan.grid.ndim}"
        )


@dataclass
class ExecutionPlan:
    """Everything an executor needs: bound sweeps, per-sweep read radii, and
    sparse operators attached to their sweeps."""

    grid: Grid
    sweeps: List[BoundSweep]
    radii: List[int]
    #: sweep index -> grid-aligned or raw injectors (apply(t, box))
    injections: Dict[int, list] = field(default_factory=dict)
    #: sweep index -> receivers (gather(t, box) / finalize(t))
    receivers: Dict[int, list] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.sweeps) != len(self.radii):
            raise ValueError("one radius per sweep required")
        if not self.sweeps:
            raise ValueError("plan has no sweeps")

    @property
    def nsweeps(self) -> int:
        return len(self.sweeps)

    @property
    def angle(self) -> int:
        """Wavefront skew per timestep (sum of sweep radii)."""
        return sum(self.radii)

    def validate(self) -> "ExecutionPlan":
        """Pre-flight the plan's precomputed sparse structures (``nnz``/``Sp_SID``
        against the affected points, ``src_dcmp``/weight-matrix shapes); raises
        :class:`~repro.errors.PlanValidationError` before timestep 0 instead
        of failing inside a tile loop.  Checks are memoised per masks object,
        so repeated applies pay almost nothing."""
        from ..runtime.preflight import validate_plan

        validate_plan(self)
        return self

    def all_receivers(self) -> list:
        return [rec for recs in self.receivers.values() for rec in recs]


def run_schedule(
    plan: ExecutionPlan,
    time_m: int,
    time_M: int,
    schedule: Schedule,
    checkpoint=None,
    faults=None,
    abft=None,
    telemetry=None,
) -> None:
    """Run iterations ``[time_m, time_M)`` of *plan* under *schedule*.

    ``checkpoint`` (:class:`~repro.runtime.checkpoint.CheckpointConfig`),
    ``faults`` (:class:`~repro.runtime.faults.FaultInjector`) and ``abft``
    (:class:`~repro.runtime.abft.ABFTGuard`) attach the resilience layer;
    they are bundled into a :class:`~repro.runtime.monitor.RuntimeMonitor`.
    ``telemetry`` (:class:`~repro.telemetry.Telemetry`) attaches the
    tracing/counter layer.  All default to off and cost nothing when absent.
    """
    _check_entry(plan, time_m, time_M)
    if isinstance(schedule, SpatialBlockSchedule):
        _check_block_shape(plan, schedule.block, "space block")
    elif isinstance(schedule, WavefrontSchedule):
        _check_block_shape(plan, schedule.tile, "space tile")
    elif not isinstance(schedule, NaiveSchedule):
        raise TypeError(f"unknown schedule {schedule!r}")
    monitor = abft_base = None
    if not (checkpoint is None and faults is None and abft is None):
        from ..runtime.monitor import RuntimeMonitor

        # checkpoint saves / fired faults emit telemetry events through the
        # monitor; guard activity is folded in as a delta after the run
        monitor = RuntimeMonitor(
            checkpoint=checkpoint, faults=faults, abft=abft, telemetry=telemetry,
        )
        if telemetry is not None and abft is not None:
            abft_base = dict(abft.stats)
    try:
        _execute(plan, time_m, time_M, schedule, monitor, telemetry)
    finally:
        # flush even when the run aborts (e.g. NumericalBlowup) — partial
        # telemetry of a crashed run is the postmortem
        if abft_base is not None:
            for key in ("checks", "detections", "micro_snapshots", "micro_snapshot_bytes"):
                telemetry.counters.add(f"abft_{key}", abft.stats[key] - abft_base[key])


def _runs(steps, python_after, nsweeps, sweeps=None, t0=0) -> tuple:
    """*steps* as the executor walks them: ``(runs, counts, tables)``.  On
    the C rung (*sweeps* given, bound at time tile *t0*) a run ends after
    each step whose sparse operators run in Python (``python_after[j]``) and
    is ``(steps, address, threaded)``: the address of its int64 walker
    table, rows ``(sweep function, tab, ctab, j, dt)``, and whether the team
    runs it (its largest box reaches :data:`~repro.ir.cgen.PARALLEL_MIN_POINTS`
    points, rank > 1); ``tables`` keeps the tables and the bindings they
    point into alive.  Elsewhere a run is one step, address 0.  ``counts``
    holds the instances and the points per sweep."""
    from ..ir.cgen import PARALLEL_MIN_POINTS

    counts, runs, tables, start = np.zeros((2, nsweeps), dtype=np.int64), [], [], 0
    for i, (_, j, box, sparse_box, _, npoints) in enumerate(steps):
        counts[:, j] += (1, npoints)
        if sweeps is None or i == len(steps) - 1 or (
            sparse_box is not NO_SPARSE and python_after[j]
        ):
            run, start, address, threaded = steps[start:i + 1], i + 1, 0, 0
            if sweeps is not None:  # lower()'s boxes are never empty
                bound = [sweeps[k].bind(t0 + dt, box) for dt, k, box, *_ in run]
                table = np.array([(sweeps[k].c_entry[0], b[0], sweeps[k].c_entry[1], k, dt)
                                  for (dt, k, *_), b in zip(run, bound)], dtype=np.int64)
                tables.append((table, bound))
                address = table.ctypes.data
                threaded = int(len(box) > 1 and max(s[5] for s in run) >= PARALLEL_MIN_POINTS)
            runs.append((run, address, threaded))
    return runs, counts, tables


def _execute(plan, time_m, time_M, schedule, monitor, tel) -> None:
    """The one traversal loop (Listing 1 = Listing 6 at height 1).

    Walks containment units — the time tiles ``[t0, t1)`` of *schedule* — and
    replays the :func:`~repro.core.scheduler.lower` step list of the unit's
    height: sweep instance, then its sparse operators.  On the C rung the
    grid-aligned operators ride each box (:meth:`BoundSweep.sparse_table`)
    and the instances between two steps with Python work (raw off-grid
    operators) are one run: one C call, one OpenMP region.  Its step table
    is built once per ``(step list, t0 % period)`` and kept in the plan's
    sweeps' shared ``runs``, beside the view caches it points into (a full
    cache of either kind clears both).  The monitor acts
    only at unit boundaries: a unit is what ABFT contains —
    corruption detected at its exit rolls the live slots back to the snapshot
    taken at its entry and replays just these steps — and injected faults
    fire at its exit.
    Snapshots are taken at unit boundaries and resume points are unit
    boundaries of the original run, so a resumed tiling stays congruent.

    With telemetry attached, timing is boundary-to-boundary: each clock
    reading picks up from the previous one, so loop overhead is absorbed into
    the adjacent phase and the per-phase sum covers the run wall-time almost
    exactly.  Seconds and counters accumulate in locals (string-keyed dict
    writes per instance are slower and hash-seed-sensitive) and flush once;
    the sparse counts are what the operators returned, i.e. what ran.  At
    ``detail="trace"`` one span per sweep instance is recorded from the same
    clock readings, a C run's split at the ``CLOCK_MONOTONIC`` stamps its
    walker took after each instance.
    """
    timed = tel is not None
    trace = timed and tel.trace
    last = 0.0

    def lap() -> float:
        """Seconds since the previous clock reading, which this one replaces."""
        nonlocal last
        before, last = last, clock()
        return last - before

    if timed:
        clock = tel._clock
        attrs = schedule.describe()
        attrs["schedule"] = attrs.pop("kind")
        rspan = tel.begin("run", time_m=time_m, time_M=time_M, **attrs)
        last = rspan.start
        unit_name = "tile" if isinstance(schedule, WavefrontSchedule) else "step"
    if trace:
        names = [f"sweep{j}:{sw.beqs[0].lhs.function.name}" for j, sw in enumerate(plan.sweeps)]
    pre_s = st_s = inj_s = rec_s = mon_s = 0.0
    all_receivers = plan.all_receivers()
    rings = [rec for rec in all_receivers if hasattr(rec, "reserve")]  # aligned receivers
    for rec in rings:  # stage a time tile's rows at once
        rec.reserve(schedule.height)
    if monitor is not None:
        time_m = monitor.begin(plan, time_m, time_M)
        if timed:
            mon_s += lap()
    nsweeps = plan.nsweeps
    counts = np.zeros((2, nsweeps), dtype=np.int64)  # instances, points per sweep
    inj_points = rec_points = rec_rows = hits = misses = 0
    sweeps = plan.sweeps
    sparse = [(plan.injections.get(j, []), plan.receivers.get(j, [])) for j in range(nsweeps)]
    tables = [sw.sparse_table(*ops) for sw, ops in zip(sweeps, sparse)]  # rings are final now
    sparse = [([], []) if tb is not None else ops for tb, ops in zip(tables, sparse)]
    python_after = tuple(bool(inj or rec) for inj, rec in sparse)
    walker = getattr(sweeps[0], "engine", None) == "c"
    if walker:
        from ..ir.cgen import static_unit

        walk = static_unit().walk
        sps = np.array([0 if tb is None else tb.ctypes.data for tb in tables], dtype=np.int64)
        sps_address = sps.ctypes.data
        period = math.lcm(*(sw._period for sw in sweeps))
        cache = sweeps[0].runs
        for sw in sweeps:
            sw.materialise_invariants()  # a replayed run binds nothing
            sw.runs = cache  # one table cache a plan: a sweep's safety valve clears it
    else:
        cache = {}
    shape = tuple(plan.grid.shape)
    radii = tuple(plan.radii)
    for t0, t1 in time_tiles(time_m, time_M, schedule.height):
        lowered_before = lower.cache_info().misses
        steps = lower(schedule, shape, radii, t1 - t0)
        if lower.cache_info().misses == lowered_before:
            # replayed geometry — lowered earlier in this process, so in a
            # warm worker even a run's first tile is a hit
            hits += 1
        else:
            misses += 1
        key = (schedule, t1 - t0, t0 % period if walker else 0, python_after)
        lowered = cache.get(key)
        if lowered is None:
            if len(cache) >= 4096:  # safety valve, as the view caches'
                cache.clear()
            lowered = cache[key] = _runs(
                steps, python_after, nsweeps, sweeps if walker else None, t0
            )
        elif walker:  # every instance's binding is served from the memo
            for sw, n in zip(sweeps, lowered[1][0].tolist()):
                sw.view_hits += n
        runs, tile_counts, _ = lowered
        stamps = np.zeros(len(steps) if trace and walker else 0, dtype=np.int64)
        stamps_address = stamps.ctypes.data if len(stamps) else 0
        if timed:
            uspan = tel.begin(unit_name, t0=t0, t1=t1)
            pre_s += uspan.start - last
            last = uspan.start
            depth = len(tel._stack)
        reexec = 0
        while True:
            if monitor is not None:
                monitor.tile_entry(plan, t0, t1)
                if timed:
                    mon_s += lap()
            try:
                for run, address, threaded in runs:
                    dt, j, box, sparse_box, tile, npoints = run[-1]
                    t = t0 + dt
                    inst_start = last
                    if address:
                        walk(len(run), address, sps_address, t0, threaded, stamps_address)
                    else:
                        sweeps[j].evaluate(t, box)
                    if timed:
                        st_s += lap()
                        ran = last
                    if sparse_box is not NO_SPARSE:
                        injections, receivers = sparse[j]
                        if injections:
                            for inj in injections:
                                inj_points += inj.apply(t, sparse_box) or 0
                            if timed:
                                inj_s += lap()
                        if receivers:
                            for rec in receivers:
                                rec_points += rec.gather(t, sparse_box) or 0
                            if timed:
                                rec_s += lap()
                    if trace:
                        # a C run's instance i ends at its stamp, clamped
                        # inside the call's own readings; the last one ends
                        # after the sparse work, as a Python step does
                        ends = [min(max(s * 1e-9, inst_start), ran) for s in stamps[:len(run) - 1]]
                        for (dt, j, box, _, tile, _), stop in zip(run, ends + [last]):
                            tel.record(
                                names[j], "stencil", inst_start, stop - inst_start,
                                depth, {"t": t0 + dt, "sweep": j, "tile": tile, "box": box},
                            )
                            inst_start = stop
                if timed:
                    counts += tile_counts
                for t in range(t0, t1):
                    for rec in all_receivers:
                        rec.finalize(t)
                rec_rows += (t1 - t0) * len(all_receivers)
                if timed:
                    rec_s += lap()
                if monitor is not None:
                    monitor.after_tile(plan, t0, t1)
                    if timed:
                        mon_s += lap()
                break
            except SilentCorruptionError:
                reexec += 1
                if monitor is None or not monitor.contain(plan, t0, reexec):
                    raise
                if timed:
                    mon_s += lap()
        if timed:
            tel.end(uspan)
            last = uspan.end
    for rec in rings:  # every row is reconstructed: the staged memory goes
        rec.reserve(1)
    if timed:
        for phase, seconds in (
            ("precompute", pre_s), ("stencil", st_s), ("injection", inj_s),
            ("receivers", rec_s), ("checkpoint+guard", mon_s),
        ):
            tel.add_phase(phase, seconds)
        c = tel.counters
        instances, points = counts.tolist()
        c.add("step_cache_hits", hits)
        c.add("step_cache_misses", misses)
        c.add("instances", sum(instances))
        c.add("points_updated", sum(p * len(sw) for p, sw in zip(points, sweeps)))
        for j in range(nsweeps):
            c.add(f"sweep{j}.instances", instances[j])
            c.add(f"sweep{j}.points", points[j])
        fused = [tb for tb in tables if tb is not None]
        c.add("src_points_injected", inj_points + sum(int(tb[0]) for tb in fused))
        c.add("rec_points_gathered", rec_points + sum(int(tb[1]) for tb in fused))
        c.add("rec_rows_finalized", rec_rows)
        tel.end(rspan)
