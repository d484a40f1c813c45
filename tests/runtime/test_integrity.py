"""The one sealed-file format: every durable artifact is written with its
SHA-256 as a 32-byte trailer, in one write with one sync."""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.jobs.worker import durable_result, write_result
from repro.runtime.checkpoint import SLOT_NAMES, FileCheckpointStore, Snapshot
from repro.runtime.integrity import read_sealed, write_sealed


def test_the_seal_is_the_payload_digest_and_any_damage_breaks_it(tmp_path):
    path = tmp_path / "artifact.bin"
    digest = write_sealed(path, [b"pay", np.frombuffer(b"load", np.uint8)])
    assert path.read_bytes() == b"payload" + hashlib.sha256(b"payload").digest()
    assert digest == hashlib.sha256(b"payload").hexdigest()
    assert read_sealed(path) == b"payload"
    blob = path.read_bytes()
    for damaged in (blob[:-1], blob[:5], b"", blob[:3] + b"P" + blob[4:]):
        path.write_bytes(damaged)
        assert read_sealed(path) is None
    assert read_sealed(tmp_path / "missing.bin") is None


def test_checkpoint_and_result_writes_fsync_once_and_leave_one_file(tmp_path, monkeypatch):
    synced = []
    for name in ("fsync", "fdatasync"):
        real = getattr(os, name)
        monkeypatch.setattr(
            os, name, lambda fd, real=real: (synced.append(fd), real(fd))[1]
        )

    resized = []
    real_truncate = os.ftruncate
    monkeypatch.setattr(
        os, "ftruncate", lambda fd, n: (resized.append(n), real_truncate(fd, n))[1]
    )

    # each save syncs once and touches only its slot, which is resized only
    # when it is created (same-shape snapshots are overwritten in place)
    store = FileCheckpointStore(tmp_path / "ckpt")
    for step in (4, 8, 12):
        store.save(Snapshot(step=step, slots={"u": {0: np.ones((3, 3))}}, receivers=[]))
        assert len(synced) == step // 4
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == list(SLOT_NAMES[: step // 4])
    assert len(resized) == 2
    synced.clear()

    job = tmp_path / "job"
    job.mkdir()
    digest = write_result(job, np.arange(6.0).reshape(2, 3), {"engine": "c"})
    assert len(synced) == 1
    assert [p.name for p in job.iterdir()] == ["result.npz"]
    rec, meta = durable_result(job, digest)
    np.testing.assert_array_equal(rec, np.arange(6.0).reshape(2, 3))
    assert meta == {"engine": "c"}
