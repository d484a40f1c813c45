"""Dynamic shadow-memory race oracle.

The static prover (:mod:`repro.verify.prover`) argues about dependence
*classes*; this module checks *executions*.  It replays an operator's exact
traversal — the real :class:`~repro.execution.executors.ExecutionPlan` loop
structure under the real schedule — with the numeric kernels replaced by
shadow instrumentation that records, per ``(field, buffer slot, grid point)``,
which timestep's value is currently resident:

* a **stencil assign** of ``u[t+k]`` on a box sets ``resident = t+k`` over the
  box (and flags a *lost update* if an injection had already added into that
  ``(point, t+k)`` — the add is obliterated, Fig. 4b's race);
* an **injection add** requires ``resident == t+k`` at every target point
  (the producing stencil instance must already have run there) — a premature
  add lands in a buffer another timestep still owns;
* every **read** — stencil neighbourhood, receiver gather, off-grid
  interpolation — requires ``resident`` to equal the timestep the access
  names; anything else is a stale value from a violated flow or anti
  dependence.

Because the shadow sweeps duck-type :class:`~repro.execution.evalbox.BoundSweep`
inside a genuine ``ExecutionPlan``, the oracle exercises the very executors
(:func:`~repro.execution.executors.run_schedule`) that production runs use —
the property tests confirm every statically certified schedule is race-free
and every prover counterexample manifests here (``unsafe_offgrid=True``
re-enables the deliberately wrong off-grid-injection-in-tiles path for the
negative test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.scheduler import NaiveSchedule, Schedule, WavefrontSchedule
from ..dsl.functions import TimeFunction
from ..dsl.interpolation import support_points
from ..execution.executors import ExecutionPlan, run_schedule
from ..ir.dependencies import read_accesses, written_access

__all__ = [
    "RaceRecord",
    "OracleReport",
    "ShadowState",
    "run_oracle",
]

Box = Tuple[Tuple[int, int], ...]

_NO_ADD = np.iinfo(np.int64).min


@dataclass(frozen=True)
class RaceRecord:
    """One detected race: an access observing (or destroying) the wrong value."""

    kind: str  # "stale-read" | "lost-update" | "duplicate-write"
    field: str
    t: int  # the timestep the access names
    found: int  # the timestep actually resident (reads) / involved (writes)
    point: Tuple[int, ...]
    actor: str  # who performed the offending access
    box: Optional[Box] = None

    def describe(self) -> str:
        return (
            f"{self.kind} on {self.field!r} at point {self.point}: {self.actor} "
            f"named timestep {self.t} but found timestep {self.found}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "field": self.field,
            "t": self.t,
            "found": self.found,
            "point": list(self.point),
            "actor": self.actor,
            "box": [list(b) for b in self.box] if self.box else None,
        }


@dataclass
class OracleReport:
    """Outcome of one shadow replay."""

    operator: str
    schedule: Dict
    sparse_mode: str
    races: List[RaceRecord] = field(default_factory=list)
    nraces: int = 0  # total, even past the recording cap
    reads_checked: int = 0
    writes_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.nraces == 0

    def races_on(self, field_name: str) -> List[RaceRecord]:
        return [r for r in self.races if r.field == field_name]

    def describe(self) -> str:
        head = (
            f"oracle[{self.operator} / {self.schedule.get('kind')} / "
            f"{self.sparse_mode}]: {self.reads_checked} reads, "
            f"{self.writes_checked} writes checked, {self.nraces} races"
        )
        return "\n".join([head] + ["  " + r.describe() for r in self.races])

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "schedule": dict(self.schedule),
            "sparse_mode": self.sparse_mode,
            "ok": self.ok,
            "races": self.nraces,
            "reads_checked": self.reads_checked,
            "writes_checked": self.writes_checked,
            "examples": [r.to_dict() for r in self.races],
        }


class _ShadowField:
    """Resident-timestep and pending-add shadow arrays for one TimeFunction."""

    def __init__(self, func: TimeFunction, first_write: int):
        self.name = func.name
        self.first_write = first_write
        self.buffers = int(func.buffers)
        shape = tuple(func.grid.shape)
        base = first_write - self.buffers
        # slot s initially holds the newest pre-existing timestep congruent to
        # s modulo the buffer count (the initial condition occupies the
        # buffers the first writes have not yet claimed)
        self.resident = np.empty((self.buffers,) + shape, dtype=np.int64)
        for s in range(self.buffers):
            self.resident[s] = base + ((s - base) % self.buffers)
        self.added = np.full((self.buffers,) + shape, _NO_ADD, dtype=np.int64)

    def slot(self, t: int) -> int:
        return t % self.buffers


class ShadowState:
    """All shadow fields plus the race log; the instrumentation target."""

    def __init__(self, grid, max_records: int = 64):
        self.grid = grid
        self.dim_names = [d.name for d in grid.dimensions]
        self.fields: Dict[str, _ShadowField] = {}
        self.races: List[RaceRecord] = []
        self.nraces = 0
        self.reads_checked = 0
        self.writes_checked = 0
        self.max_records = max_records

    def add_field(self, func: TimeFunction, first_write: int) -> None:
        if func.name not in self.fields:
            self.fields[func.name] = _ShadowField(func, first_write)

    def _record(self, race: RaceRecord) -> None:
        self.nraces += 1
        if len(self.races) < self.max_records:
            self.races.append(race)

    # -- region (box) accesses ---------------------------------------------------
    def _clip(self, box: Box, shifts: Dict[str, int]) -> Optional[Box]:
        region = []
        for (lo, hi), extent, name in zip(box, self.grid.shape, self.dim_names):
            s = shifts.get(name, 0)
            lo2, hi2 = max(lo + s, 0), min(hi + s, extent)
            if lo2 >= hi2:
                return None
            region.append((lo2, hi2))
        return tuple(region)

    def check_region_read(
        self, fname: str, t: int, box: Box, shifts: Dict[str, int], actor: str
    ) -> None:
        sf = self.fields.get(fname)
        if sf is None:
            return
        region = self._clip(box, shifts)
        if region is None:
            return
        self.reads_checked += 1
        sl = tuple(slice(lo, hi) for lo, hi in region)
        res = sf.resident[sf.slot(t)][sl]
        bad = res != t
        if bad.any():
            rel = np.argwhere(bad)[0]
            point = tuple(int(lo + r) for (lo, _), r in zip(region, rel))
            self._record(
                RaceRecord(
                    "stale-read", fname, t, int(res[tuple(rel)]), point, actor, box
                )
            )

    def region_assign(self, fname: str, t: int, box: Box, actor: str) -> None:
        sf = self.fields.get(fname)
        if sf is None:
            return
        self.writes_checked += 1
        s = sf.slot(t)
        sl = tuple(slice(lo, hi) for lo, hi in box)
        over = sf.added[s][sl] == t
        if over.any():
            rel = np.argwhere(over)[0]
            point = tuple(int(lo + r) for (lo, _), r in zip(box, rel))
            self._record(RaceRecord("lost-update", fname, t, t, point, actor, box))
        dup = sf.resident[s][sl] == t
        if dup.any():
            rel = np.argwhere(dup)[0]
            point = tuple(int(lo + r) for (lo, _), r in zip(box, rel))
            self._record(RaceRecord("duplicate-write", fname, t, t, point, actor, box))
        sf.resident[s][sl] = t
        sf.added[s][sl] = _NO_ADD

    # -- sparse (point set) accesses ----------------------------------------------
    def check_point_read(
        self, fname: str, t: int, points: np.ndarray, actor: str, box: Optional[Box]
    ) -> None:
        sf = self.fields.get(fname)
        if sf is None or points.size == 0:
            return
        self.reads_checked += 1
        idx = tuple(points[:, d] for d in range(points.shape[1]))
        res = sf.resident[sf.slot(t)][idx]
        bad = res != t
        if bad.any():
            i = int(np.argmax(bad))
            self._record(
                RaceRecord(
                    "stale-read", fname, t, int(res[i]),
                    tuple(int(c) for c in points[i]), actor, box,
                )
            )

    def point_add(
        self, fname: str, t: int, points: np.ndarray, actor: str, box: Optional[Box]
    ) -> None:
        sf = self.fields.get(fname)
        if sf is None or points.size == 0:
            return
        self.writes_checked += 1
        s = sf.slot(t)
        idx = tuple(points[:, d] for d in range(points.shape[1]))
        res = sf.resident[s][idx]
        bad = res != t
        if bad.any():
            i = int(np.argmax(bad))
            self._record(
                RaceRecord(
                    "lost-update", fname, t, int(res[i]),
                    tuple(int(c) for c in points[i]), actor, box,
                )
            )
        sf.added[s][idx] = t


class _ShadowSweep:
    """Duck-types :class:`BoundSweep` — ``evaluate(t, box)`` updates shadows."""

    def __init__(self, state: ShadowState, sweep, index: int):
        self.state = state
        self.index = index
        self.steps = []
        for eq in sweep.eqs:
            w = written_access(eq)
            reads = [
                a for a in read_accesses(eq) if isinstance(a.function, TimeFunction)
            ]
            self.steps.append((reads, w))

    def evaluate(self, t: int, box: Box, sparse: int = 0) -> None:
        state = self.state
        for reads, w in self.steps:
            for a in reads:
                state.check_region_read(
                    a.function.name,
                    t + a.time_offset,
                    box,
                    dict(a.space_offsets),
                    f"sweep {self.index} stencil read (t={t})",
                )
            state.region_assign(
                w.function.name,
                t + w.time_offset,
                box,
                f"sweep {self.index} stencil write (t={t})",
            )

    def invalidate_invariants(self) -> None:  # BoundSweep interface parity
        pass

    def sparse_table(self, injections, receivers) -> None:  # shadows run per instance
        return None


class _ShadowAlignedInjection:
    def __init__(self, state: ShadowState, aligned):
        self.state = state
        self.field_name = aligned.field.name
        self.time_offset = aligned.time_offset
        self.nt = aligned.nt
        self.masks = aligned.masks

    def apply(self, t: int, box: Optional[Box] = None) -> None:
        if not 0 <= t < self.nt or self.masks.npts == 0:
            return
        pts = self.masks.points
        if box is not None:
            ids = self.masks.points_in_box(box)
            if ids.size == 0:
                return
            pts = pts[ids]
        self.state.point_add(
            self.field_name, t + self.time_offset, pts,
            f"aligned injection (t={t})", box,
        )


class _ShadowAlignedReceiver:
    def __init__(self, state: ShadowState, aligned):
        self.state = state
        self.field_name = aligned.field.name
        self.time_offset = aligned.time_offset
        self.nt = aligned.output.shape[0]
        self.masks = aligned.masks

    def gather(self, t: int, box: Optional[Box] = None) -> None:
        if self.masks.npts == 0 or not 0 <= t + self.time_offset < self.nt:
            return
        pts = self.masks.points
        if box is not None:
            ids = self.masks.points_in_box(box)
            if ids.size == 0:
                return
            pts = pts[ids]
        self.state.check_point_read(
            self.field_name, t + self.time_offset, pts,
            f"aligned receiver gather (t={t})", box,
        )

    def finalize(self, t: int) -> None:
        pass


class _ShadowRawInjection:
    """Off-the-grid injection shadow: whole-grid only, like the real one."""

    def __init__(self, state: ShadowState, injection):
        self.state = state
        self.field_name = injection.field.name
        self.time_offset = injection.time_offset
        self.indices, _ = support_points(
            injection.sparse.coordinates, injection.sparse.grid
        )
        self.nt = injection.sparse.data.shape[0]

    def _corners(self) -> np.ndarray:
        return self.indices.reshape(-1, self.indices.shape[-1])

    def apply(self, t: int, box: Optional[Box] = None) -> None:
        if box is not None:
            raise ValueError(
                "off-the-grid injection cannot run inside a space-time tile; "
                "precompute it with repro.core (decompose_source) first"
            )
        if not 0 <= t < self.nt:
            return
        self.state.point_add(
            self.field_name, t + self.time_offset, self._corners(),
            f"off-grid injection (t={t})", None,
        )


class _ShadowUnsafeOffGridInjection(_ShadowRawInjection):
    """Shadow of :class:`~repro.execution.sparse.UnsafeOffGridInjection`: the
    deliberately wrong tiled off-grid scatter (negative-test vehicle)."""

    def apply(self, t: int, box: Optional[Box] = None) -> None:
        if box is None:
            return super().apply(t)
        if not 0 <= t < self.nt:
            return
        base = self.indices[:, 0, :]
        sel = np.ones(base.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(box):
            sel &= (base[:, d] >= lo) & (base[:, d] < hi)
        if not sel.any():
            return
        corners = self.indices[sel].reshape(-1, self.indices.shape[-1])
        self.state.point_add(
            self.field_name, t + self.time_offset, corners,
            f"unsafe off-grid injection (t={t})", box,
        )


class _ShadowRawInterpolation:
    def __init__(self, state: ShadowState, interpolation):
        self.state = state
        self.field_name = interpolation.field.name
        self.time_offset = interpolation.time_offset
        self.indices, _ = support_points(
            interpolation.sparse.coordinates, interpolation.sparse.grid
        )
        self.nt = interpolation.sparse.data.shape[0]

    def gather(self, t: int, box: Optional[Box] = None) -> None:
        if box is not None:
            raise ValueError(
                "off-the-grid interpolation cannot run inside a space-time "
                "tile; precompute it with repro.core (decompose_receiver) first"
            )

    def finalize(self, t: int) -> None:
        row = t + self.time_offset
        if not 0 <= row < self.nt:
            return
        corners = self.indices.reshape(-1, self.indices.shape[-1])
        self.state.check_point_read(
            self.field_name, row, corners, f"off-grid interpolation (t={t})", None
        )


def run_oracle(
    op,
    schedule: Optional[Schedule] = None,
    time_M: int = 8,
    time_m: int = 0,
    dt: float = 1.0,
    sparse_mode: str = "auto",
    unsafe_offgrid: bool = False,
    max_records: int = 64,
) -> OracleReport:
    """Shadow-replay *op* under *schedule* and report every race.

    The replay drives a genuine :class:`ExecutionPlan` through
    :func:`run_schedule` — identical traversal, instrumented kernels.
    ``unsafe_offgrid=True`` swaps raw injections for the deliberately wrong
    tiled variant so the prover's off-grid counterexamples can be confirmed
    dynamically (the paper's Fig. 4b violation).  Keep grids small (<= 64^3):
    shadow arrays hold one int64 per (buffer, point).
    """
    from .prover import resolve_sparse_mode

    schedule = schedule or NaiveSchedule()
    if unsafe_offgrid:
        mode = "offgrid"
    else:
        mode = resolve_sparse_mode(sparse_mode, schedule)
        if mode == "offgrid" and isinstance(schedule, WavefrontSchedule):
            mode = "precomputed"

    state = ShadowState(op.grid, max_records=max_records)
    for sweep in op.sweeps:
        for eq in sweep.eqs:
            w = written_access(eq)
            if not isinstance(w.function, TimeFunction):
                continue
            first = time_m + w.time_offset
            existing = state.fields.get(w.function.name)
            # multiple write offsets to one field: shadow from the earliest
            if existing is None or first < existing.first_write:
                state.fields.pop(w.function.name, None)
                state.add_field(w.function, first)

    plan = ExecutionPlan(
        grid=op.grid,
        sweeps=[_ShadowSweep(state, s, j) for j, s in enumerate(op.sweeps)],
        radii=list(op.sweep_radii),
    )
    for inj in op.injections():
        j = op._sweep_index_for(inj.field.name, inj.time_offset)
        if mode == "precomputed":
            shadow = _ShadowAlignedInjection(state, op._aligned_injection(inj, dt))
        elif unsafe_offgrid:
            shadow = _ShadowUnsafeOffGridInjection(state, inj)
        else:
            shadow = _ShadowRawInjection(state, inj)
        plan.injections.setdefault(j, []).append(shadow)
    tiled = isinstance(schedule, WavefrontSchedule)
    for itp in op.interpolations():
        j = op._sweep_index_for(itp.field.name, itp.time_offset)
        if mode == "precomputed" or (unsafe_offgrid and tiled):
            # the unsafe negative test corrupts only the injection side;
            # receivers ride the (legal) aligned path so the run completes
            shadow = _ShadowAlignedReceiver(state, op._aligned_receiver(itp))
        else:
            shadow = _ShadowRawInterpolation(state, itp)
        plan.receivers.setdefault(j, []).append(shadow)

    run_schedule(plan, time_m, time_M, schedule)
    return OracleReport(
        operator=op.name,
        schedule=schedule.describe(),
        sparse_mode="offgrid" if unsafe_offgrid else mode,
        races=state.races,
        nraces=state.nraces,
        reads_checked=state.reads_checked,
        writes_checked=state.writes_checked,
    )
