"""ENOSPC hardening: storage exhaustion degrades a run, it does not kill it.

``FileCheckpointStore.save`` and ``BatchJournal.append`` translate a raw
``OSError(ENOSPC)`` into a structured
:class:`~repro.errors.StorageExhaustedError`; the runtime monitor reacts by
suspending the checkpoint cadence and letting the run finish.
"""

from __future__ import annotations

import errno
import os
import pickle

import numpy as np
import pytest

from repro.core import NaiveSchedule
from repro.errors import StorageExhaustedError
from repro.jobs import BatchJournal
from repro.runtime import CheckpointConfig
from repro.runtime.checkpoint import FileCheckpointStore, Snapshot

from ..conftest import make_acoustic_operator

NT = 8
DT = 0.5


def _enospc(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_checkpoint_store_wraps_enospc(tmp_path, monkeypatch):
    store = FileCheckpointStore(tmp_path)
    store.save(Snapshot(step=4, slots={"u": {0: np.ones((3, 3))}}, receivers=[]))
    monkeypatch.setattr(os, "pwritev", _enospc)
    with pytest.raises(StorageExhaustedError) as excinfo:
        store.save(Snapshot(step=8, slots={"u": {0: np.zeros((3, 3))}}, receivers=[]))
    err = excinfo.value
    assert err.context["op"] == "checkpoint_save"
    assert "checkpoint 8" in str(err) and err.context["path"].endswith("slot1.ckpt")
    # the slot the failed save was writing never shadows the good snapshot
    assert store.latest().step == 4


def test_storage_exhausted_error_survives_the_worker_pipe():
    err = StorageExhaustedError("disk full", path="/x/journal.jsonl",
                                op="journal_append")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, StorageExhaustedError)
    assert clone.context["op"] == "journal_append"


def test_journal_append_wraps_enospc(tmp_path):
    journal = BatchJournal(tmp_path / "journal.jsonl")

    class FullDisk:
        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def flush(self):
            pass

        def close(self):
            pass

    journal.append("drain", signal=None)  # healthy append first
    real = journal._fh
    journal._fh = FullDisk()
    try:
        with pytest.raises(StorageExhaustedError) as excinfo:
            journal.append("drain", signal=None)
        assert excinfo.value.context["op"] == "journal_append"
    finally:
        journal._fh = real
        journal.close()


def test_enospc_mid_run_suspends_checkpointing_not_the_run(
    grid2d, tmp_path, monkeypatch
):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    store = FileCheckpointStore(tmp_path)
    calls = []

    def full_save(snapshot):
        calls.append(snapshot.step)
        raise StorageExhaustedError("disk full", path="x", op="checkpoint_save")

    monkeypatch.setattr(store, "save", full_save)
    cfg = CheckpointConfig(every=2, store=store)
    # the run must complete despite every save failing with ENOSPC: the
    # monitor drops the cadence after the first failure
    op.apply(time_M=NT, dt=DT, schedule=NaiveSchedule(), checkpoint=cfg)
    assert len(calls) == 1
