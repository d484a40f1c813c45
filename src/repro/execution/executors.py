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

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

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
        out = []
        for lst in self.receivers.values():
            out.extend(lst)
        return out

    def _sparse_for(self, j: int) -> Tuple[list, list]:
        return self.injections.get(j, []), self.receivers.get(j, [])


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


def _execute(plan, time_m, time_M, schedule, monitor, tel) -> None:
    """The one traversal loop (Listing 1 = Listing 6 at height 1).

    Walks containment units — the time tiles ``[t0, t1)`` of *schedule* — and
    replays the :func:`~repro.core.scheduler.lower` step list of the unit's
    height: sweep instance, then its sparse operators.  The monitor acts only
    at unit boundaries: a unit is what ABFT contains — corruption detected at
    its exit rolls the live slots back to the snapshot taken at its entry and
    replays just these steps — and injected faults fire at its exit.
    Snapshots are taken at unit boundaries and resume points are unit
    boundaries of the original run, so a resumed tiling stays congruent.

    With telemetry attached, timing is boundary-to-boundary: each clock
    reading picks up from the previous one, so loop overhead is absorbed into
    the adjacent phase and the per-phase sum covers the run wall-time almost
    exactly.  Seconds and counters accumulate in locals (string-keyed dict
    writes per instance are slower and hash-seed-sensitive) and flush once;
    the sparse counts are what the operators returned, i.e. what ran.  At
    ``detail="trace"`` one span per sweep instance is recorded from the same
    clock readings.
    """
    timed = tel is not None
    trace = timed and tel.trace
    last = 0.0
    if timed:
        clock = tel._clock
        attrs = schedule.describe()
        attrs["schedule"] = attrs.pop("kind")
        rspan = tel.begin("run", time_m=time_m, time_M=time_M, **attrs)
        last = rspan.start
        unit_name = "tile" if isinstance(schedule, WavefrontSchedule) else "step"
    if trace:
        names = [
            f"sweep{j}:{sw.beqs[0].lhs.function.name}" for j, sw in enumerate(plan.sweeps)
        ]
    pre_s = st_s = inj_s = rec_s = mon_s = 0.0
    if monitor is not None:
        time_m = monitor.begin(plan, time_m, time_M)
        if timed:
            now = clock()
            mon_s += now - last
            last = now
    nsweeps = plan.nsweeps
    instances = [0] * nsweeps
    points = [0] * nsweeps
    inj_points = rec_points = rec_rows = hits = misses = 0
    sweeps = plan.sweeps
    sparse = [plan._sparse_for(j) for j in range(nsweeps)]
    all_receivers = plan.all_receivers()
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
                    now = clock()
                    mon_s += now - last
                    last = now
            try:
                for dt, j, box, sparse_box, tile, npoints in steps:
                    t = t0 + dt
                    inst_start = last
                    sweeps[j].evaluate(t, box)
                    if timed:
                        instances[j] += 1
                        points[j] += npoints
                        now = clock()
                        st_s += now - last
                        last = now
                    if sparse_box is not NO_SPARSE:
                        injections, receivers = sparse[j]
                        if injections:
                            for inj in injections:
                                inj_points += inj.apply(t, sparse_box) or 0
                            if timed:
                                now = clock()
                                inj_s += now - last
                                last = now
                        if receivers:
                            for rec in receivers:
                                rec_points += rec.gather(t, sparse_box) or 0
                            if timed:
                                now = clock()
                                rec_s += now - last
                                last = now
                    if trace:
                        tel.record(
                            names[j], "stencil", inst_start, last - inst_start,
                            depth, {"t": t, "sweep": j, "tile": tile, "box": box},
                        )
                for t in range(t0, t1):
                    for rec in all_receivers:
                        rec.finalize(t)
                rec_rows += (t1 - t0) * len(all_receivers)
                if timed:
                    now = clock()
                    rec_s += now - last
                    last = now
                if monitor is not None:
                    monitor.after_tile(plan, t0, t1)
                    if timed:
                        now = clock()
                        mon_s += now - last
                        last = now
                break
            except SilentCorruptionError:
                reexec += 1
                if monitor is None or not monitor.contain(plan, t0, reexec):
                    raise
                if timed:
                    now = clock()
                    mon_s += now - last
                    last = now
        if timed:
            tel.end(uspan)
            last = uspan.end
    if timed:
        for phase, seconds in (
            ("precompute", pre_s), ("stencil", st_s), ("injection", inj_s),
            ("receivers", rec_s), ("checkpoint+guard", mon_s),
        ):
            tel.add_phase(phase, seconds)
        c = tel.counters
        c.add("step_cache_hits", hits)
        c.add("step_cache_misses", misses)
        c.add("instances", sum(instances))
        c.add(
            "points_updated",
            sum(p * len(sw) for p, sw in zip(points, sweeps)),
        )
        for j in range(nsweeps):
            c.add(f"sweep{j}.instances", instances[j])
            c.add(f"sweep{j}.points", points[j])
        c.add("src_points_injected", inj_points)
        c.add("rec_points_gathered", rec_points)
        c.add("rec_rows_finalized", rec_rows)
        tel.end(rspan)
