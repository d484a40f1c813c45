"""Checkpoint/restart: an interrupted-then-resumed run must be bit-identical
to the uninterrupted one — wavefields *and* receiver traces — on every
schedule and physics.  A snapshot holds only each field's live slots, so
the contract of the one snapshot is tested here too: its size, the
parent file format it still reads, and that the checkpoint cadence never
shares memory with the guard's entry snapshot."""

import weakref

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.errors import CheckpointCorruptError, InjectedFault
from repro.propagators import AcousticPropagator, SeismicModel, point_source, receiver_line
from repro.propagators.examples import EXAMPLES, build_example
from repro.runtime import (
    ABFTGuard,
    CheckpointConfig,
    CheckpointStore,
    Fault,
    FaultInjector,
    FileCheckpointStore,
    MemoryCheckpointStore,
    Snapshot,
    capture_snapshot,
    restore_snapshot,
)
from repro.execution.executors import run_schedule
from repro.runtime.checkpoint import SLOT_NAMES
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, needs_cc, run_and_capture

NT = 10
DT = 0.5
CRASH_T = 6

SCHEDULES = {
    "naive": NaiveSchedule(),
    "spatial": SpatialBlockSchedule(block=(5, 4)),
    "wavefront": WavefrontSchedule(tile=(6, 6), height=2),
}


def _schedule_param():
    return pytest.mark.parametrize(
        "schedule", list(SCHEDULES.values()), ids=list(SCHEDULES)
    )


def _mode(schedule):
    return "precomputed" if isinstance(schedule, WavefrontSchedule) else "auto"


def _store(kind, tmp_path):
    if kind == "memory":
        return MemoryCheckpointStore()
    return FileCheckpointStore(tmp_path / "ckpt")


@pytest.mark.faults
@pytest.mark.parametrize("physics", EXAMPLES)
@pytest.mark.parametrize("store_kind", ["memory", "file"])
@_schedule_param()
def test_restart_is_bit_identical(physics, store_kind, schedule, tmp_path):
    """Crash at CRASH_T, resume from the newest snapshot: receivers and every
    slot of every field equal the uninterrupted run's.  TTI mixes time
    orders 2 and 1; elastic couples two time-order-1 sweeps."""
    prop, dt = build_example(physics)
    run = dict(nt=NT, dt=dt, schedule=schedule, sparse_mode=_mode(schedule))
    ref_rec, _ = prop.forward(**run)
    ref_fields = [f.data_with_halo.copy() for f in prop.fields]

    # interrupted run: checkpoint every 2 steps, injected abort at CRASH_T
    store = _store(store_kind, tmp_path)
    faults = FaultInjector([Fault(t=CRASH_T, kind="raise")])
    with pytest.raises(InjectedFault):
        prop.forward(**run, checkpoint=CheckpointConfig(every=2, store=store),
                     faults=faults)
    snap = store.latest()
    assert snap is not None and 0 < snap.step <= CRASH_T
    # only the live slots are state: every other slot is rewritten before
    # anything reads it, so poisoning them all must not show
    for f in prop.fields:
        f.data[...] = np.nan

    # resume: the monitor restores the snapshot and replays the remainder
    rec, _ = prop.forward(
        **run, checkpoint=CheckpointConfig(every=2, store=store, resume=True)
    )
    np.testing.assert_array_equal(rec, ref_rec)
    for f, ref in zip(prop.fields, ref_fields):
        np.testing.assert_array_equal(f.data_with_halo, ref, err_msg=f.name)


@pytest.mark.parametrize("physics", EXAMPLES)
def test_snapshot_holds_only_the_live_slots(physics):
    prop, dt = build_example(physics)
    tel = Telemetry()
    _, plan = prop.forward(nt=NT, dt=dt, checkpoint=CheckpointConfig(every=4),
                           telemetry=tel)
    snap = capture_snapshot(plan, NT)
    assert {name: len(keep) for name, keep in snap.slots.items()} == {
        f.name: f.time_order for f in prop.fields
    }
    field_bytes = sum(a.nbytes for keep in snap.slots.values() for a in keep.values())
    full = {f.name: f.data_with_halo.nbytes for f in prop.fields}
    assert field_bytes == sum(
        full[f.name] * f.time_order // (f.time_order + 1) for f in prop.fields
    )
    if physics == "acoustic":
        assert 3 * field_bytes == 2 * sum(full.values())
    # the checkpoint.save event reports exactly this snapshot size
    saves = [e for e in tel.events if e.name == "checkpoint.save"]
    assert [e.attrs["step"] for e in saves] == [4, 8]
    assert saves[-1].attrs["bytes"] == snap.nbytes()
    rec_bytes = sum(
        r["output"].nbytes + sum(a.nbytes for a in r["staging"].values())
        for r in snap.receivers
    )
    assert snap.nbytes() == field_bytes + rec_bytes


@pytest.mark.faults
def test_parent_format_file_is_refused_and_the_rerun_is_bit_identical(grid2d, tmp_path):
    """A checkpoint of an earlier format (``ckpt_<step>.npz``: full circular
    buffers under ``field.<name>``, no trailer) is never restored: the store
    reads only its slots, so the file is passed over and the run restarts
    from ``time_m`` to the uninterrupted run's bits.  A slot holding such
    bytes is refused, and cleared as a job attempt does."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule())

    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    plan = op.apply(time_M=CRASH_T, dt=DT, schedule=NaiveSchedule())
    arrays = {"step": np.int64(CRASH_T), "field.u": u.data_with_halo.copy()}
    for i, saved in enumerate(capture_snapshot(plan, CRASH_T).receivers):
        arrays[f"rec{i}.output"] = saved["output"]
        for row, stage in saved["staging"].items():
            arrays[f"rec{i}.staging.{row}"] = stage
    with open(tmp_path / f"ckpt_{CRASH_T:010d}.npz", "wb") as fh:
        np.savez(fh, **arrays)
    store = FileCheckpointStore(tmp_path)
    assert store.latest() is None
    (tmp_path / SLOT_NAMES[0]).write_bytes((tmp_path / f"ckpt_{CRASH_T:010d}.npz").read_bytes())
    with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
        store.latest()
    store.clear()
    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    op.apply(time_M=NT, dt=DT, schedule=NaiveSchedule(),
             checkpoint=CheckpointConfig(every=2, store=store, resume=True))
    np.testing.assert_array_equal(u.interior(NT), ref_u)
    np.testing.assert_array_equal(rec.data, ref_rec)


def _arrays(snap):
    out = [a for keep in snap.slots.values() for a in keep.values()]
    for r in snap.receivers:
        out += [r["output"], *r["staging"].values()]
    return out


class _GuardDisjointStore(CheckpointStore):
    """Checks every saved snapshot against the guard's entry snapshot of
    the moment, then drops it."""

    def __init__(self, guard):
        self.guard = guard
        self.saves = 0

    def save(self, snapshot):
        held = _arrays(self.guard._snap)
        for a in _arrays(snapshot):
            assert not any(np.shares_memory(a, b) for b in held)
        self.saves += 1

    def latest(self):
        return None

    def clear(self):
        pass


def test_checkpoints_never_share_memory_with_the_guard_snapshot(grid2d):
    """The guard overwrites its entry snapshot's arrays in place every unit;
    a stored checkpoint must own its arrays or the next unit would rewrite
    it."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    guard = ABFTGuard()
    store = _GuardDisjointStore(guard)
    op.apply(time_M=NT, dt=DT, schedule=NaiveSchedule(), abft=guard,
             checkpoint=CheckpointConfig(every=1, store=store))
    assert store.saves == NT


@_schedule_param()
def test_checkpointed_run_unchanged_without_resume(grid2d, schedule):
    """Snapshotting must not perturb the run it observes."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, schedule, _mode(schedule))
    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    op.apply(
        time_M=NT, dt=DT, schedule=schedule, sparse_mode=_mode(schedule),
        checkpoint=CheckpointConfig(every=3),
    )
    np.testing.assert_array_equal(u.interior(NT), ref_u)
    np.testing.assert_array_equal(rec.data, ref_rec)


@pytest.mark.faults
def test_restart_from_file_store(grid2d, tmp_path):
    schedule = WavefrontSchedule(tile=(6, 6), height=2)
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, schedule, "precomputed")

    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    store = FileCheckpointStore(tmp_path / "ckpt")
    faults = FaultInjector([Fault(t=CRASH_T, kind="raise")])
    with pytest.raises(InjectedFault):
        op.apply(
            time_M=NT, dt=DT, schedule=schedule, sparse_mode="precomputed",
            checkpoint=CheckpointConfig(every=2, store=store), faults=faults,
        )
    assert 0 < FileCheckpointStore(tmp_path / "ckpt").latest().step <= CRASH_T

    op.apply(
        time_M=NT, dt=DT, schedule=schedule, sparse_mode="precomputed",
        checkpoint=CheckpointConfig(every=2, store=store, resume=True),
    )
    np.testing.assert_array_equal(u.interior(NT), ref_u)
    np.testing.assert_array_equal(rec.data, ref_rec)


def test_file_store_keeps_newest(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (2, 4, 6):
        store.save(
            Snapshot(step=step, slots={"u": {1: np.full((3, 3), step, np.float32)}},
                     receivers=[])
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == list(SLOT_NAMES)
    latest = store.latest()
    assert latest.step == 6
    np.testing.assert_array_equal(latest.slots["u"][1], np.full((3, 3), 6, np.float32))
    store.clear()
    assert store.latest() is None


@needs_cc
def test_a_restored_open_row_is_gathered_through_its_own_address(grid2d):
    """On the C rung a staging row is written and read through its address:
    a restored open row must be the restored array's, not the freed one's,
    and the run it resumes ends with the uninterrupted traces."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), "precomputed", "c")

    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    plan = op.apply(time_M=CRASH_T, dt=DT, schedule=NaiveSchedule(),
                    sparse_mode="precomputed", engine="c")
    (receiver,) = [r for lst in plan.receivers.values() for r in lst]
    receiver.gather(CRASH_T)  # an open row, as a mid-unit capture sees it
    (row,) = receiver.pending_rows()
    restore_snapshot(plan, capture_snapshot(plan, CRASH_T))
    assert receiver._stage_addr[row] == receiver._staging[row].ctypes.data
    run_schedule(plan, CRASH_T, NT, NaiveSchedule())
    np.testing.assert_array_equal(u.interior(NT), ref_u)
    np.testing.assert_array_equal(rec.data, ref_rec)


def test_memory_store_ring():
    # latest() is the store's only reader: an older snapshot is not kept
    store = MemoryCheckpointStore()
    first = Snapshot(step=1, slots={}, receivers=[])
    dropped = weakref.ref(first)
    store.save(first)
    del first
    store.save(Snapshot(step=3, slots={}, receivers=[]))
    assert dropped() is None and store.latest().step == 3
    store.clear()
    assert store.latest() is None


def test_stores_take_no_keep(tmp_path):
    with pytest.raises(TypeError):
        MemoryCheckpointStore(keep=2)
    with pytest.raises(TypeError):
        FileCheckpointStore(tmp_path, keep=2)


def test_resume_outside_range_restarts_clean(grid2d):
    """A stale snapshot beyond time_M must be ignored, not restored."""
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    store = MemoryCheckpointStore()
    op.apply(time_M=NT, dt=DT, checkpoint=CheckpointConfig(every=2, store=store))
    assert store.latest().step > 4
    ref_u, ref_rec = run_and_capture(op, u, rec, 4, DT, NaiveSchedule())
    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    op.apply(
        time_M=4, dt=DT,
        checkpoint=CheckpointConfig(every=2, store=MemoryCheckpointStore(), resume=True),
    )
    np.testing.assert_array_equal(u.interior(4), ref_u)


@pytest.mark.faults
def test_propagator_restart_bit_identical():
    """End-to-end: acoustic propagator crash/resume through forward()."""
    def build():
        model = SeismicModel((20, 20, 20), (10.0,) * 3, 2.0, nbl=4, space_order=4)
        dt = model.critical_dt("acoustic")
        nt = 12
        src = point_source("src", model.grid, nt + 2, [model.domain_center],
                           f0=0.03, dt=dt)
        recv = receiver_line("rec", model.grid, nt + 2, npoint=4, depth=60.0)
        return AcousticPropagator(model, space_order=4, source=src, receivers=recv), dt, nt

    schedule = WavefrontSchedule(tile=(8, 8), height=2)
    prop, dt, nt = build()
    ref_rec, _ = prop.forward(nt=nt, dt=dt, schedule=schedule)
    ref_u = prop.u.interior(nt).copy()

    prop2, dt2, _ = build()
    store = MemoryCheckpointStore()
    faults = FaultInjector([Fault(t=7, kind="raise")])
    with pytest.raises(InjectedFault):
        prop2.forward(
            nt=nt, dt=dt2, schedule=schedule,
            checkpoint=CheckpointConfig(every=2, store=store), faults=faults,
        )
    # resume: forward() skips the zero-field reset when a snapshot is present
    rec2, _ = prop2.forward(
        nt=nt, dt=dt2, schedule=schedule,
        checkpoint=CheckpointConfig(every=2, store=store, resume=True),
    )
    np.testing.assert_array_equal(prop2.u.interior(nt), ref_u)
    np.testing.assert_array_equal(rec2, ref_rec)
