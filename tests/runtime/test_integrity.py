"""The one sealed-file format: every durable artifact is published with its
SHA-256 as a 32-byte trailer, in one write with one fsync."""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.jobs.worker import durable_result, write_result
from repro.runtime.checkpoint import FileCheckpointStore, Snapshot
from repro.runtime.integrity import verify_sealed, write_sealed


def test_the_seal_is_the_payload_digest_and_any_damage_breaks_it(tmp_path):
    path = tmp_path / "artifact.bin"
    digest = write_sealed(path, lambda fh: fh.write(b"payload"))
    assert path.read_bytes() == b"payload" + hashlib.sha256(b"payload").digest()
    assert verify_sealed(path) == digest == hashlib.sha256(b"payload").hexdigest()
    blob = path.read_bytes()
    for damaged in (blob[:-1], blob[:5], b"", blob[:3] + b"P" + blob[4:]):
        path.write_bytes(damaged)
        assert verify_sealed(path) is None
    assert verify_sealed(tmp_path / "missing.bin") is None


def test_checkpoint_and_result_writes_fsync_once_and_leave_one_file(tmp_path, monkeypatch):
    synced = []
    real = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd))[1])

    store = FileCheckpointStore(tmp_path / "ckpt")
    store.save(Snapshot(step=4, slots={"u": {0: np.ones((3, 3))}}, receivers=[]))
    assert len(synced) == 1
    assert [p.name for p in (tmp_path / "ckpt").iterdir()] == ["ckpt_0000000004.npz"]

    job = tmp_path / "job"
    job.mkdir()
    digest = write_result(job, np.arange(6.0).reshape(2, 3), {"engine": "c"})
    assert len(synced) == 2
    assert [p.name for p in job.iterdir()] == ["result.npz"]
    rec, meta = durable_result(job, digest)
    np.testing.assert_array_equal(rec, np.arange(6.0).reshape(2, 3))
    assert meta == {"engine": "c"}
