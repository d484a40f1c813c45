"""One lowering, one loop: what ``run_schedule`` executes is ``lower()``'s step
list, whatever is attached to the run.  Driven with a recording duck-typed plan
on degenerate geometry."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from repro.core.scheduler import (
    NO_SPARSE,
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    lower,
    time_tiles,
)
from repro.dsl import Grid
from repro.execution.executors import ExecutionPlan, run_schedule
from repro.runtime.abft import ABFTGuard
from repro.telemetry import Telemetry


def _npoints(box, shape):
    return int(np.prod(shape if box is None else [hi - lo for lo, hi in box]))


class _Sweep:
    beqs = ()  # no TimeFunctions: nothing for the ABFT guard to snapshot

    def __init__(self, log, j):
        self.log, self.j = log, j

    def __len__(self):  # equations in the sweep
        return self.j + 1

    def evaluate(self, t, box, sparse=0):
        self.log.append(("sweep", t, self.j, box))

    def sparse_table(self, injections, receivers):  # the operators run per instance
        return None


class _Sparse:
    field = None

    def __init__(self, log, j, shape, nt):
        self.log, self.j, self.shape = log, j, shape
        self.output = np.zeros((nt, 1))

    def apply(self, t, box=None):
        self.log.append(("inject", t, self.j, box))
        return _npoints(box, self.shape)

    def gather(self, t, box=None):
        self.log.append(("gather", t, self.j, box))
        return _npoints(box, self.shape)

    def finalize(self, t):
        self.log.append(("finalize", t, self.j, None))


def _plan(shape, radii, nt):
    log = []
    plan = ExecutionPlan(
        grid=Grid(shape=shape),
        sweeps=[_Sweep(log, j) for j in range(len(radii))],
        radii=list(radii),
    )
    for j in range(len(radii)):
        plan.injections[j] = [_Sparse(log, j, shape, nt)]
        plan.receivers[j] = [_Sparse(log, j, shape, nt)]
    return plan, log


def _region(t, j, box):
    return (t, j) + (tuple(slice(*b) for b in box) if box else (...,))


def _rows(steps):
    """(t, j, x, y) rows of 2-D ``(t, j, box)`` steps, in visiting order."""
    return [
        (t, j, x, y)
        for t, j, ((x0, x1), (y0, y1)) in steps
        for x in range(x0, x1)
        for y in range(y0, y1)
    ]


#: (grid shape, sweep radii, nt): a 2-D single-sweep and a 3-D two-sweep plan
PLANS = [((7, 5), (2,), 5), ((6, 5, 4), (1, 2), 7)]
SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(4, 3)),
    "spatial-block>grid": SpatialBlockSchedule(block=(16, 16)),
    "spatial-1d-block": SpatialBlockSchedule(block=(4,)),
    # nt is 5 or 7: never a multiple of the height
    "wavefront": WavefrontSchedule(tile=(4, 3), height=3),
    "wavefront-tile>grid": WavefrontSchedule(tile=(16, 16), height=2),
    "wavefront-height>nt": WavefrontSchedule(tile=(3, 3), height=9),
}


@pytest.mark.parametrize("shape,radii,nt", PLANS, ids=["2d", "3d-two-sweeps"])
@pytest.mark.parametrize("name", list(SCHEDULES))
def test_one_step_list_whatever_is_attached(name, shape, radii, nt):
    schedule = SCHEDULES[name]
    logs = []
    for telemetry, abft in product((None, Telemetry()), (None, ABFTGuard())):
        plan, log = _plan(shape, radii, nt)
        run_schedule(plan, 0, nt, schedule, telemetry=telemetry, abft=abft)
        logs.append(log)
    log = logs[0]
    assert all(other == log for other in logs[1:])

    # the log is lower()'s step list, tile by tile
    expected = []
    for t0, t1 in time_tiles(0, nt, schedule.height):
        for dt, j, box, sparse_box, _tile, npoints in lower(schedule, shape, radii, t1 - t0):
            assert npoints == _npoints(box, shape) > 0
            expected.append(("sweep", t0 + dt, j, box))
            if sparse_box is not NO_SPARSE:
                expected.append(("inject", t0 + dt, j, sparse_box))
                expected.append(("gather", t0 + dt, j, sparse_box))
        for t in range(t0, t1):
            expected += [("finalize", t, j, None) for j in range(len(radii))]
    assert log == expected

    # every (t, j) covers the grid exactly once, with sweeps and sparse ops
    # alike, and a sparse op never runs before its sweep wrote the points
    for kind in ("sweep", "inject", "gather"):
        cover = np.zeros((nt, len(radii)) + shape, dtype=int)
        for k, t, j, box in log:
            if k == kind:
                cover[_region(t, j, box)] += 1
        assert (cover == 1).all(), kind
    written = np.zeros((nt, len(radii)) + shape, dtype=bool)
    for k, t, j, box in log:
        if k == "sweep":
            written[_region(t, j, box)] = True
        elif k in ("inject", "gather"):
            assert written[_region(t, j, box)].all()

    # counters are what the operators returned
    tel = Telemetry()
    plan, _ = _plan(shape, radii, nt)
    run_schedule(plan, 0, nt, schedule, telemetry=tel)
    gpts = int(np.prod(shape))
    assert tel.counters["instances"] == sum(k == "sweep" for k, *_ in log)
    assert tel.counters["points_updated"] == nt * gpts * sum(len(s) for s in plan.sweeps)
    assert tel.counters["src_points_injected"] == nt * gpts * len(radii)
    assert tel.counters["rec_points_gathered"] == nt * gpts * len(radii)
    assert tel.counters["rec_rows_finalized"] == nt * len(radii)


@pytest.mark.parametrize("name", list(SCHEDULES))
def test_the_executor_runs_the_rows_lower_lists(name):
    shape, radii, nt = PLANS[0]
    schedule = SCHEDULES[name]
    plan, log = _plan(shape, radii, nt)
    run_schedule(plan, 0, nt, schedule)
    lowered = [
        (t0 + dt, j, box)
        for t0, t1 in time_tiles(0, nt, schedule.height)
        for dt, j, box, *_ in lower(schedule, shape, radii, t1 - t0)
    ]
    assert _rows([(t, j, box) for k, t, j, box in log if k == "sweep"]) == _rows(lowered)


def test_step_lists_never_cross_grids():
    """The lowered lists are memoised process-wide on the full ``(schedule,
    shape, radii, height)`` tuple, so two grids under one wavefront schedule
    in one process each replay their *own* boxes: both runs stay
    bit-identical to naive, the second shape lowers afresh, and a rebuilt
    operator of an already-seen shape replays without lowering at all."""
    from ..conftest import make_acoustic_operator, run_and_capture

    nt, dt = 6, 1.0
    wf = WavefrontSchedule(tile=(8, 8), height=2)
    lower.cache_clear()
    misses = []
    for n in (12, 20, 12):
        grid = Grid(shape=(n, n, n), extent=(10.0 * (n - 1),) * 3)
        op, u, m, src, rec = make_acoustic_operator(grid, nt=nt)
        ref_u, ref_rec = run_and_capture(op, u, rec, nt, dt, NaiveSchedule(), "precomputed")
        tel = Telemetry()
        u.data_with_halo[...] = 0.0
        rec.data[...] = 0.0
        op.apply(time_M=nt, dt=dt, schedule=wf, telemetry=tel)
        np.testing.assert_array_equal(u.interior(nt), ref_u)
        np.testing.assert_array_equal(rec.data, ref_rec)
        misses.append(tel.counters["step_cache_misses"])
        assert tel.counters["step_cache_hits"] + misses[-1] == nt // wf.height
    assert misses == [1, 1, 0]
