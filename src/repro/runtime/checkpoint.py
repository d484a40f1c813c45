"""Snapshots of executing plans: the one capture of a run's state.

A snapshot captures everything a schedule mutates that a later timestep
reads: the ``time_order`` *live* padded slots of every
:class:`~repro.dsl.functions.TimeFunction` the plan touches (halo included —
resuming mid-run must reproduce halo state bit-for-bit), the receiver trace
arrays, and any in-flight receiver staging rows.  The other slot of each
circular buffer is rewritten before anything reads it, so it is not stored:
field bytes are ``time_order / (time_order + 1)`` of the full buffers.
Model fields, decomposed source wavelets and masks are immutable during a
run and deliberately not stored.

Snapshots are taken at *consistent* points only — the boundaries of the
containment units ``[t0, t1)``: timesteps for the naive and spatially
blocked schedules, time tiles for wavefront runs (inside a tile, different
grid regions sit at different timesteps, so a mid-tile snapshot would not be
a wavefield).  Because time tiles are arithmetic in ``height`` from
``time_m``, resuming from a tile boundary replays exactly the remaining
tiles of the uninterrupted run — which is what makes restart
*bit-identical*, not merely close.

One :func:`capture_snapshot` / :func:`restore_snapshot` pair serves both
the checkpoint cadence and the ABFT guard's tile-entry snapshot
(:mod:`repro.runtime.abft`).  Two stores hold checkpoints:
:class:`MemoryCheckpointStore` (default, zero-IO; the newest snapshot) and
:class:`FileCheckpointStore` (``.npz`` files, survives the process; the
newest :data:`FILES_KEPT`).
"""

from __future__ import annotations

import errno
import zipfile
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..dsl.functions import TimeFunction
from ..errors import CheckpointCorruptError, StorageExhaustedError
from .integrity import verify_sealed, write_sealed

__all__ = [
    "Snapshot",
    "CheckpointConfig",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "capture_snapshot",
    "restore_snapshot",
]

#: snapshot files a :class:`FileCheckpointStore` keeps: the newest, and the
#: previous good one :meth:`~FileCheckpointStore.latest` falls back to
FILES_KEPT = 2


@dataclass
class Snapshot:
    """State at a consistent point: ``step`` is the next timestep to execute."""

    step: int
    #: TimeFunction name -> {buffer slot index -> copy of that padded slot}
    slots: Dict[str, Dict[int, np.ndarray]]
    #: one entry per receiver executor (plan order): trace array + staging rows
    receivers: List[dict]

    def nbytes(self) -> int:
        total = sum(int(a.nbytes) for keep in self.slots.values() for a in keep.values())
        for rec in self.receivers:
            total += int(rec["output"].nbytes)
            total += sum(int(a.nbytes) for a in rec["staging"].values())
        return total


class CheckpointStore:
    """Interface: hold snapshots, hand back the most recent one."""

    def save(self, snapshot: Snapshot) -> None:
        raise NotImplementedError

    def latest(self) -> Optional[Snapshot]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-process store of the newest snapshot, the one :meth:`latest` reads."""

    def __init__(self):
        self._snap: Optional[Snapshot] = None

    def save(self, snapshot: Snapshot) -> None:
        self._snap = snapshot

    def latest(self) -> Optional[Snapshot]:
        return self._snap

    def clear(self) -> None:
        self._snap = None


class FileCheckpointStore(CheckpointStore):
    """``.npz`` snapshots under a directory, newest-``step`` wins.

    Array keys are flattened as ``slot.<name>.<idx>``, ``rec<i>.output`` and
    ``rec<i>.staging.<row>``; ``step`` rides along as a 0-d array.

    Every snapshot is sealed in the one write that publishes it
    (:func:`~repro.runtime.integrity.write_sealed`: temp sibling, SHA-256
    trailer, fsync, rename), so a snapshot file either exists complete or
    not at all — a worker SIGKILLed mid-save can never leave a truncated
    ``ckpt_*.npz`` behind (external observers, like the batch-pool
    supervisor polling for the first checkpoint, see only complete files) —
    and damage that atomic rename cannot prevent is detected on load rather
    than restored into a live wavefield.

    :meth:`latest` validates candidates newest-first and **falls back to
    the previous good snapshot** when the newest is corrupt or fails its
    seal (losing one checkpoint interval of work instead of the whole
    run); only when *every* on-disk snapshot is unusable does it raise a
    structured :class:`~repro.errors.CheckpointCorruptError` — never a raw
    ``zipfile``/numpy exception.  A snapshot written without a seal (by
    older code) is refused like a damaged one.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _paths(self) -> List[Path]:
        return sorted(self.directory.glob("ckpt_*.npz"))

    def save(self, snapshot: Snapshot) -> None:
        arrays: Dict[str, np.ndarray] = {"step": np.int64(snapshot.step)}
        for name, keep in snapshot.slots.items():
            for idx, slot in keep.items():
                arrays[f"slot.{name}.{idx}"] = slot
        for i, rec in enumerate(snapshot.receivers):
            arrays[f"rec{i}.output"] = rec["output"]
            for row, stage in rec["staging"].items():
                arrays[f"rec{i}.staging.{row}"] = stage
        path = self.directory / f"ckpt_{snapshot.step:010d}.npz"
        try:
            write_sealed(path, lambda fh: np.savez(fh, **arrays))
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            # the disk is full, not the snapshot corrupt: surface a
            # structured error the monitor can react to (suspend the
            # cadence) instead of crashing the run mid-timestep
            raise StorageExhaustedError(
                f"no space left on device while saving checkpoint {path.name}",
                path=str(path),
                op="checkpoint_save",
            ) from exc
        for old in self._paths()[:-FILES_KEPT]:
            old.unlink()
        for stale in self.directory.glob("ckpt_*.npz*.tmp"):
            stale.unlink(missing_ok=True)

    def latest(self) -> Optional[Snapshot]:
        """Newest *usable* snapshot: candidates are validated newest-first
        (seal, then structure) and a corrupt one falls back to the
        previous good one.  Raises :class:`CheckpointCorruptError` (for the
        newest failure) only when snapshots exist but none is usable."""
        paths = self._paths()
        if not paths:
            return None
        first_error: Optional[CheckpointCorruptError] = None
        for path in reversed(paths):
            try:
                return self._load(path)
            except CheckpointCorruptError as exc:
                if first_error is None:
                    first_error = exc
        raise first_error

    def _load(self, path: Path) -> Snapshot:
        if verify_sealed(path) is None:
            raise CheckpointCorruptError(
                f"checkpoint {path.name} is corrupt or truncated",
                path=str(path),
                reason="digest mismatch (torn write or on-disk damage)",
            )
        try:
            with np.load(path) as data:
                if "step" not in data.files:
                    raise KeyError("snapshot lacks the 'step' entry")
                slots: Dict[str, Dict[int, np.ndarray]] = {}
                receivers: Dict[int, dict] = {}
                for key in data.files:
                    if key == "step":
                        continue
                    head, _, tail = key.partition(".")
                    if head == "slot":
                        name, _, idx = tail.rpartition(".")
                        slots.setdefault(name, {})[int(idx)] = data[key]
                        continue
                    idx = int(head[len("rec"):])
                    entry = receivers.setdefault(idx, {"output": None, "staging": {}})
                    if tail == "output":
                        entry["output"] = data[key]
                    else:
                        entry["staging"][int(tail.split(".")[-1])] = data[key]
                step = int(data["step"])
            for idx, entry in receivers.items():
                if entry["output"] is None:
                    raise KeyError(f"receiver {idx} snapshot lacks its output array")
        except (zipfile.BadZipFile, OSError, EOFError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path.name} is corrupt or truncated",
                path=str(path),
                reason=f"{type(exc).__name__}: {exc}",
            ) from exc
        return Snapshot(
            step=step,
            slots=slots,
            receivers=[receivers[i] for i in sorted(receivers)],
        )

    def clear(self) -> None:
        for path in self._paths():
            path.unlink()
        for stale in self.directory.glob("ckpt_*.npz*.tmp"):
            stale.unlink(missing_ok=True)


@dataclass
class CheckpointConfig:
    """How a run checkpoints and whether it resumes.

    Parameters
    ----------
    every:
        Target number of timesteps between snapshots.  Wavefront runs round
        up to the next time-tile boundary (the first consistent point).
    store:
        Where snapshots live; defaults to a fresh in-memory store.
    resume:
        When True and the store holds a snapshot whose ``step`` lies inside
        the requested range, the run restores it and continues from there
        instead of starting at ``time_m``.
    """

    every: int = 8
    store: CheckpointStore = dc_field(default_factory=MemoryCheckpointStore)
    resume: bool = False

    def __post_init__(self):
        if self.every < 1:
            raise ValueError("checkpoint cadence must be >= 1 timestep")



def _wavefields(plan) -> Dict[str, TimeFunction]:
    """Every TimeFunction a plan reads or writes, keyed by name."""
    funcs: Dict[str, TimeFunction] = {}

    def add(func):
        if isinstance(func, TimeFunction):
            funcs.setdefault(func.name, func)

    for sweep in plan.sweeps:
        for beq in sweep.beqs:
            add(beq.lhs.function)
            for access in beq.reads:
                add(access.function)
    for lst in plan.injections.values():
        for op in lst:
            add(op.field)
    for lst in plan.receivers.values():
        for op in lst:
            add(op.field)
    return funcs


def _live_slots(func, boundary: int) -> List[int]:
    """Buffer indices of *func*'s live time slots at *boundary*, newest first:
    the ``time_order`` slots the next timestep may read.  The remaining slot
    is rewritten before anything reads it."""
    return [(boundary - k) % func.buffers for k in range(func.time_order)]


def _plan_receiver_executors(plan) -> list:
    """Receiver executors in deterministic (sweep index, position) order."""
    out = []
    for j in sorted(plan.receivers):
        out.extend(plan.receivers[j])
    return out


def _receiver_output(rec) -> np.ndarray:
    # AlignedReceiver exposes .output; RawInterpolation writes .data in place
    return rec.output if hasattr(rec, "output") else rec.data


def _copy(src: np.ndarray, donors: List[np.ndarray]) -> np.ndarray:
    while donors:
        buf = donors.pop()
        if buf.shape == src.shape and buf.dtype == src.dtype:
            np.copyto(buf, src)
            return buf
    return src.copy()


def capture_snapshot(plan, step: int, recycle: Optional[Snapshot] = None) -> Snapshot:
    """Copy the live state of *plan* at the consistent point *step*.

    *recycle* donates the buffers of a retired snapshot of the same plan
    (the ABFT guard's previous entry snapshot): its slots are overwritten
    in place instead of freshly allocated, so the steady-state per-tile cost
    is pure memcpy.  A snapshot handed to a checkpoint store must own its
    arrays, so the checkpoint cadence never passes *recycle*.
    """
    slots: Dict[str, Dict[int, np.ndarray]] = {}
    for name, func in _wavefields(plan).items():
        donors = list(recycle.slots.get(name, {}).values()) if recycle else []
        slots[name] = {
            idx: _copy(func._data[idx], donors) for idx in _live_slots(func, step)
        }
    receivers = []
    for rec in _plan_receiver_executors(plan):
        staging = getattr(rec, "_staging", {})
        receivers.append(
            {
                "output": _receiver_output(rec).copy(),
                "staging": {row: arr.copy() for row, arr in staging.items()},
            }
        )
    return Snapshot(step=int(step), slots=slots, receivers=receivers)


def restore_snapshot(plan, snapshot: Snapshot) -> int:
    """Write *snapshot* back into *plan*'s live buffers; return the resume step.

    Slots are filled in place (never reallocated) so cached views held by
    the compiled engines stay valid.
    """
    funcs = _wavefields(plan)
    for name, keep in snapshot.slots.items():
        func = funcs.get(name)
        if func is None:
            raise KeyError(f"snapshot field {name!r} not present in the plan")
        for idx, arr in keep.items():
            func._data[idx][...] = arr
    executors = _plan_receiver_executors(plan)
    if len(executors) != len(snapshot.receivers):
        raise ValueError(
            f"snapshot holds {len(snapshot.receivers)} receiver state(s), "
            f"plan has {len(executors)}"
        )
    for rec, saved in zip(executors, snapshot.receivers):
        _receiver_output(rec)[...] = saved["output"]
        if hasattr(rec, "_staging"):
            rec._staging = {row: arr.copy() for row, arr in saved["staging"].items()}
    return snapshot.step
