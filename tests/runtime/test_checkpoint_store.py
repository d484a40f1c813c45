"""FileCheckpointStore crash-safety: two sealed slots overwritten in place,
structured corruption errors, fallback to the other slot.  The
batch-execution supervisor reads this directory for the first checkpoint
before SIGKILLing a worker, so "a torn slot is never taken for a snapshot"
is a load-bearing invariant, not a nicety."""

from __future__ import annotations

import hashlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.errors import CheckpointCorruptError
from repro.runtime.checkpoint import SLOT_NAMES, FileCheckpointStore, Snapshot
from repro.runtime.integrity import overwrite_sealed

def make_snapshot(step: int) -> Snapshot:
    rng = np.random.default_rng(step)
    return Snapshot(
        step=step,
        slots={
            "u": {2: rng.normal(size=(6, 6)), 0: rng.normal(size=(6, 6))},
            "v.x": {1: rng.normal(size=(6, 6))},
        },
        receivers=[rng.normal(size=(8, 4)), rng.normal(size=(8, 2)).astype(np.float32)],
    )


def assert_snapshots_equal(a: Snapshot, b: Snapshot) -> None:
    assert a.step == b.step
    assert set(a.slots) == set(b.slots)
    for name in a.slots:
        assert set(a.slots[name]) == set(b.slots[name])
        for idx in a.slots[name]:
            np.testing.assert_array_equal(a.slots[name][idx], b.slots[name][idx])
    assert len(a.receivers) == len(b.receivers)
    for ra, rb in zip(a.receivers, b.receivers):
        assert ra.dtype == rb.dtype
        np.testing.assert_array_equal(ra, rb)


def _sealed_slot(path, layout, *arrays):
    """Write a sealed slot by hand: length, JSON layout, raw arrays."""
    header = json.dumps(layout).encode()
    overwrite_sealed(path, [len(header).to_bytes(4, "little"), header, *arrays])


def test_round_trip_preserves_everything(tmp_path):
    store = FileCheckpointStore(tmp_path)
    snap = make_snapshot(8)
    store.save(snap)
    assert_snapshots_equal(store.latest(), snap)


def test_empty_store_returns_none(tmp_path):
    assert FileCheckpointStore(tmp_path).latest() is None


def test_save_leaves_no_tmp_files(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (4, 8, 12):
        store.save(make_snapshot(step))
    assert sorted(p.name for p in tmp_path.iterdir()) == list(SLOT_NAMES)


def test_two_slots_hold_the_newest_two(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (4, 8, 12, 16):
        store.save(make_snapshot(step))
    assert len(list(tmp_path.iterdir())) == 2
    assert store.latest().step == 16
    (tmp_path / SLOT_NAMES[1]).unlink()  # the slot of 16: 12 is still held
    assert store.latest().step == 12


def test_a_save_killed_mid_write_falls_back_to_the_other_slot(tmp_path):
    """A writer SIGKILLed mid-save: half of the older slot already holds the
    new snapshot's bytes, the rest and the seal are the old ones.  The torn
    slot is refused, the other returned, and the next save (of a fresh
    store, as a retried attempt makes) overwrites the torn slot, never the
    good one."""
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(4))
    store.save(make_snapshot(8))
    FileCheckpointStore(tmp_path / "image").save(make_snapshot(12))
    image = (tmp_path / "image" / SLOT_NAMES[0]).read_bytes()
    fd = os.open(tmp_path / SLOT_NAMES[0], os.O_WRONLY)
    try:
        os.pwrite(fd, image[: len(image) // 2], 0)
    finally:
        os.close(fd)
    retry = FileCheckpointStore(tmp_path)
    assert_snapshots_equal(retry.latest(), make_snapshot(8))
    retry.save(make_snapshot(12))
    assert FileCheckpointStore(tmp_path).latest().step == 12
    (tmp_path / SLOT_NAMES[0]).unlink()
    assert FileCheckpointStore(tmp_path).latest().step == 8


def test_truncated_snapshot_raises_structured_error(tmp_path):
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    path = tmp_path / SLOT_NAMES[0]
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    err = excinfo.value
    assert err.path == str(path)
    assert err.reason  # carries the underlying decode failure
    # errors cross process boundaries in the job service
    clone = pickle.loads(pickle.dumps(err))
    assert clone.path == err.path and clone.reason == err.reason


def test_garbage_snapshot_raises_structured_error(tmp_path):
    store = FileCheckpointStore(tmp_path)
    (tmp_path / SLOT_NAMES[0]).write_bytes(b"not a snapshot")
    with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
        store.latest()


def test_snapshot_missing_step_key_is_corrupt(tmp_path):
    store = FileCheckpointStore(tmp_path)
    _sealed_slot(
        tmp_path / SLOT_NAMES[0],
        {"slots": [["u", 0, "<f8", [3]]], "receivers": []},
        np.zeros(3),
    )
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "step" in excinfo.value.reason


def test_snapshot_missing_receiver_output_is_corrupt(tmp_path):
    """The layout names a receiver trace the bytes do not hold."""
    store = FileCheckpointStore(tmp_path)
    _sealed_slot(
        tmp_path / SLOT_NAMES[0],
        {"step": 4, "slots": [["u", 0, "<f8", [3]]], "receivers": [["<f8", [8, 4]]]},
        np.zeros(3),
    )
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert excinfo.value.reason.startswith("ValueError")


def test_clear_removes_both_slots(tmp_path):
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(4))
    store.save(make_snapshot(8))
    store.clear()
    assert list(tmp_path.iterdir()) == []
    assert store.latest() is None


def test_every_snapshot_is_sealed(tmp_path):
    """The trailer is the SHA-256 of the payload before it, and the store
    keeps exactly its two slots: no second file per snapshot."""
    store = FileCheckpointStore(tmp_path)
    for i, step in enumerate((8, 12, 16)):
        store.save(make_snapshot(step))
        blob = (tmp_path / SLOT_NAMES[i % 2]).read_bytes()
        assert hashlib.sha256(blob[:-32]).digest() == blob[-32:]
    assert len(list(tmp_path.iterdir())) == 2
    assert not list(tmp_path.glob("*.sha256"))


def _flip_middle_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # same length, one flipped bit
    path.write_bytes(bytes(raw))


def test_digest_mismatch_falls_back_to_the_previous_good_snapshot(tmp_path):
    """Bit rot the in-place write cannot prevent: the newest snapshot's
    bytes no longer match its seal.  ``latest`` must refuse it and fall back
    one checkpoint interval rather than restore damage into a live
    wavefield — or lose the whole run."""
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    store.save(make_snapshot(12))
    _flip_middle_byte(tmp_path / SLOT_NAMES[1])
    snap = store.latest()
    assert snap.step == 8
    assert_snapshots_equal(snap, make_snapshot(8))


def test_all_snapshots_damaged_raises_the_newest_failure(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (8, 12):
        store.save(make_snapshot(step))
    for name in SLOT_NAMES:
        _flip_middle_byte(tmp_path / name)
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert excinfo.value.path == str(tmp_path / SLOT_NAMES[1])  # step 12's
    assert "digest mismatch" in excinfo.value.reason


def test_an_unsealed_snapshot_is_refused(tmp_path):
    """A slot without its seal is never trusted."""
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    path = tmp_path / SLOT_NAMES[0]
    path.write_bytes(path.read_bytes()[:-32])
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "digest mismatch" in excinfo.value.reason
