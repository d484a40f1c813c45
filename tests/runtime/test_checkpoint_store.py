"""FileCheckpointStore crash-safety: atomic writes, structured corruption
errors, pruning.  The batch-execution supervisor polls this directory for
the first checkpoint before SIGKILLing a worker, so "a visible file is a
complete file" is a load-bearing invariant, not a nicety."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import CheckpointCorruptError
from repro.runtime.checkpoint import FILES_KEPT, FileCheckpointStore, Snapshot
from repro.runtime.integrity import write_sealed


def make_snapshot(step: int) -> Snapshot:
    rng = np.random.default_rng(step)
    return Snapshot(
        step=step,
        slots={
            "u": {2: rng.normal(size=(6, 6)), 0: rng.normal(size=(6, 6))},
            "v.x": {1: rng.normal(size=(6, 6))},
        },
        receivers=[
            {
                "output": rng.normal(size=(8, 4)),
                "staging": {2: rng.normal(size=4), 5: rng.normal(size=4)},
            }
        ],
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
        np.testing.assert_array_equal(ra["output"], rb["output"])
        assert set(ra["staging"]) == set(rb["staging"])
        for row in ra["staging"]:
            np.testing.assert_array_equal(ra["staging"][row], rb["staging"][row])


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
    assert list(tmp_path.glob("*.tmp")) == []


def test_prunes_to_keep_newest(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (4, 8, 12, 16):
        store.save(make_snapshot(step))
    names = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
    assert names == ["ckpt_0000000012.npz", "ckpt_0000000016.npz"]
    assert store.latest().step == 16


def test_stale_tmp_from_a_killed_writer_is_invisible_and_cleaned(tmp_path):
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(4))
    # simulate a writer SIGKILLed mid-save: a half-written temp sibling
    (tmp_path / "ckpt_0000000008.npz.tmp").write_bytes(b"\x00" * 37)
    assert store.latest().step == 4  # tmp never shadows a real snapshot
    store.save(make_snapshot(8))
    assert list(tmp_path.glob("*.tmp")) == []  # and the next save sweeps it


def test_truncated_snapshot_raises_structured_error(tmp_path):
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    path = tmp_path / "ckpt_0000000008.npz"
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
    (tmp_path / "ckpt_0000000004.npz").write_bytes(b"not a zip archive")
    with pytest.raises(CheckpointCorruptError, match="corrupt or truncated"):
        store.latest()


def test_snapshot_missing_step_key_is_corrupt(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write_sealed(
        tmp_path / "ckpt_0000000004.npz",
        lambda fh: np.savez(fh, **{"slot.u.0": np.zeros(3)}),
    )
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "step" in excinfo.value.reason


def test_snapshot_missing_receiver_output_is_corrupt(tmp_path):
    store = FileCheckpointStore(tmp_path)
    write_sealed(
        tmp_path / "ckpt_0000000004.npz",
        lambda fh: np.savez(
            fh,
            step=np.int64(4),
            **{"slot.u.0": np.zeros(3), "rec0.staging.2": np.zeros(4)},
        ),
    )
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "receiver 0" in excinfo.value.reason


def test_clear_removes_snapshots_and_stale_tmps(tmp_path):
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(4))
    (tmp_path / "ckpt_0000000008.npz.tmp").write_bytes(b"junk")
    store.clear()
    assert list(tmp_path.iterdir()) == []
    assert store.latest() is None


def test_every_snapshot_is_sealed(tmp_path):
    """The trailer is the SHA-256 of the payload before it, and pruning
    leaves exactly the kept snapshots: no second file per snapshot."""
    import hashlib

    store = FileCheckpointStore(tmp_path)
    for step in (8, 12, 16):
        store.save(make_snapshot(step))
        blob = (tmp_path / f"ckpt_{step:010d}.npz").read_bytes()
        assert hashlib.sha256(blob[:-32]).digest() == blob[-32:]
    assert len(list(tmp_path.iterdir())) == FILES_KEPT
    assert not list(tmp_path.glob("*.sha256"))


def test_digest_mismatch_falls_back_to_the_previous_good_snapshot(tmp_path):
    """Bit rot atomic rename cannot prevent: the newest snapshot's bytes
    no longer match its seal.  ``latest`` must refuse it and fall back
    one checkpoint interval rather than restore damage into a live
    wavefield — or lose the whole run."""
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    store.save(make_snapshot(12))
    newest = tmp_path / "ckpt_0000000012.npz"
    damaged = bytearray(newest.read_bytes())
    damaged[len(damaged) // 2] ^= 0xFF  # same length, one flipped bit
    newest.write_bytes(bytes(damaged))
    snap = store.latest()
    assert snap.step == 8
    assert_snapshots_equal(snap, make_snapshot(8))


def test_all_snapshots_damaged_raises_the_newest_failure(tmp_path):
    store = FileCheckpointStore(tmp_path)
    for step in (8, 12):
        store.save(make_snapshot(step))
        path = tmp_path / f"ckpt_{step:010d}.npz"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "ckpt_0000000012" in str(excinfo.value)
    assert "digest mismatch" in excinfo.value.reason


def test_an_unsealed_snapshot_is_refused(tmp_path):
    """A snapshot written without a seal (by older code) is never trusted."""
    store = FileCheckpointStore(tmp_path)
    store.save(make_snapshot(8))
    path = tmp_path / "ckpt_0000000008.npz"
    path.write_bytes(path.read_bytes()[:-32])  # the bytes older code wrote
    with pytest.raises(CheckpointCorruptError) as excinfo:
        store.latest()
    assert "digest mismatch" in excinfo.value.reason
