"""Snapshots of executing plans: the one capture of a run's state.

A snapshot captures everything a schedule mutates that a later timestep
reads: the ``time_order`` *live* padded slots of every
:class:`~repro.dsl.functions.TimeFunction` the plan touches (halo included —
resuming mid-run must reproduce halo state bit-for-bit) and the receiver
trace arrays.  A receiver's staging ring is not stored: every row a unit
gathers is reconstructed inside that unit, so none is open at a
consistent point.  The other slot of each
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
:class:`FileCheckpointStore` (two sealed slot files, survives the process;
the newest snapshot and the previous one it falls back to).
"""

from __future__ import annotations

import errno
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..dsl.functions import TimeFunction
from ..errors import CheckpointCorruptError, StorageExhaustedError
from .integrity import overwrite_sealed, read_sealed

__all__ = [
    "Snapshot",
    "CheckpointConfig",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "capture_snapshot",
    "restore_snapshot",
]

@dataclass
class Snapshot:
    """State at a consistent point: ``step`` is the next timestep to execute."""

    step: int
    #: TimeFunction name -> {buffer slot index -> copy of that padded slot}
    slots: Dict[str, Dict[int, np.ndarray]]
    #: one trace array per receiver executor (plan order)
    receivers: List[np.ndarray]

    def nbytes(self) -> int:
        total = sum(int(a.nbytes) for keep in self.slots.values() for a in keep.values())
        return total + sum(int(out.nbytes) for out in self.receivers)


class CheckpointStore:
    """Interface: hold snapshots, hand back the most recent one."""

    def save(self, snapshot: Snapshot, clock=None) -> Optional[float]:
        """Store *snapshot*.  A store that syncs reads *clock* (when given)
        once between its write and its sync and returns the reading."""
        raise NotImplementedError

    def latest(self) -> Optional[Snapshot]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """In-process store of the newest snapshot, the one :meth:`latest` reads."""

    def __init__(self):
        self._snap: Optional[Snapshot] = None

    def save(self, snapshot: Snapshot, clock=None) -> None:
        self._snap = snapshot

    def latest(self) -> Optional[Snapshot]:
        return self._snap

    def clear(self) -> None:
        self._snap = None


#: the two slot files of a :class:`FileCheckpointStore`
SLOT_NAMES = ("slot0.ckpt", "slot1.ckpt")


class FileCheckpointStore(CheckpointStore):
    """Two sealed slot files under a directory, newest-``step`` wins.

    A slot is a header — its length, then a JSON layout: the step and each
    array's place in the snapshot, dtype and shape — then the arrays' raw
    bytes in layout order, then the seal
    (:func:`~repro.runtime.integrity.overwrite_sealed`: written in place from
    the snapshot's arrays, one ``fdatasync``).  A save overwrites the slot
    that does not hold the newest good snapshot, so the other slot's sync
    has returned before a byte of this one changes: a save cut short (a
    SIGKILLed worker, a crashed disk) leaves a slot that fails its seal, and
    :meth:`latest` — which reads a slot once and slices its arrays out of
    the read bytes — **falls back to the other** (one checkpoint interval
    lost instead of the whole run).  Only when *every* slot is unusable does
    it raise a structured :class:`~repro.errors.CheckpointCorruptError`,
    never a raw decoding exception.  Other files in the directory are never
    read.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._paths = [self.directory / name for name in SLOT_NAMES]
        #: the slot the next save overwrites (None: not yet looked)
        self._target: Optional[int] = None

    def save(self, snapshot: Snapshot, clock=None) -> Optional[float]:
        if self._target is None:
            try:
                self.latest()  # aims the target away from the newest good slot
            except CheckpointCorruptError:
                pass
        layout = {"step": int(snapshot.step), "slots": [],
                  "receivers": [[out.dtype.str, out.shape] for out in snapshot.receivers]}
        arrays: List[np.ndarray] = []
        for name, keep in snapshot.slots.items():
            for idx, arr in keep.items():
                layout["slots"].append([name, int(idx), arr.dtype.str, arr.shape])
                arrays.append(arr)
        arrays += snapshot.receivers
        header = json.dumps(layout).encode()
        header += b" " * (-(4 + len(header)) % 8)  # arrays start 8-aligned
        path = self._paths[self._target]
        try:
            mark = overwrite_sealed(path, [len(header).to_bytes(4, "little"), header, *arrays], clock)
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            # the disk is full, not the snapshot corrupt: surface a
            # structured error the monitor can react to (suspend the
            # cadence) instead of crashing the run mid-timestep
            raise StorageExhaustedError(
                f"no space left on device while saving checkpoint {snapshot.step} to {path.name}",
                path=str(path),
                op="checkpoint_save",
            ) from exc
        self._target = 1 - self._target
        return mark

    def latest(self) -> Optional[Snapshot]:
        """Newest *usable* snapshot: a corrupt slot falls back to the other.
        Raises :class:`CheckpointCorruptError` (the failure of the slot
        written last) only when slots exist but none is usable."""
        found, failed = [], []
        for i, path in enumerate(self._paths):
            if not path.exists():
                continue
            try:
                found.append((self._load(path), i))
            except CheckpointCorruptError as exc:
                failed.append((path.stat().st_mtime_ns, i, exc))
        if found:
            snapshot, i = max(found, key=lambda f: f[0].step)
            self._target = 1 - i
            return snapshot
        self._target = 0
        if failed:
            raise max(failed, key=lambda f: f[:2])[2]
        return None

    def _load(self, path: Path) -> Snapshot:
        payload = read_sealed(path)
        if payload is None:
            raise CheckpointCorruptError(
                f"checkpoint {path.name} is corrupt or truncated",
                path=str(path),
                reason="digest mismatch (torn write or on-disk damage)",
            )
        offset = 4 + int.from_bytes(payload[:4], "little")

        def take(dtype, shape) -> np.ndarray:
            nonlocal offset
            arr = np.frombuffer(payload, dtype, math.prod(shape), offset)
            offset += arr.nbytes
            return arr.reshape(shape)

        try:
            layout = json.loads(bytes(payload[4:offset]))
            slots: Dict[str, Dict[int, np.ndarray]] = {}
            for name, idx, dtype, shape in layout["slots"]:
                slots.setdefault(name, {})[idx] = take(dtype, shape)
            receivers = [take(dtype, shape) for dtype, shape in layout["receivers"]]
            if offset != len(payload):
                raise ValueError(f"{len(payload) - offset} bytes past the layout's arrays")
            return Snapshot(step=int(layout["step"]), slots=slots, receivers=receivers)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint {path.name} is corrupt or truncated",
                path=str(path),
                reason=f"{type(exc).__name__}: {exc}",
            ) from exc

    def clear(self) -> None:
        for path in self._paths:
            path.unlink(missing_ok=True)
        self._target = 0


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
    _pending: object = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.every < 1:
            raise ValueError("checkpoint cadence must be >= 1 timestep")

    def resume_snapshot(self, consume: bool = False) -> Optional[Snapshot]:
        """The snapshot a resuming run restores (None: not resuming, or an
        empty store).  The store is read once per run: whoever asks ahead of
        the run (a job attempt, ``Propagator.forward``) and the run's
        restore, which asks with *consume*, share that read."""
        if self.resume and self._pending is None:
            self._pending = [self.store.latest()]  # boxed: None is a reading
        snapshot = self._pending[0] if self._pending else None
        if consume:
            self._pending = None
        return snapshot


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
    receivers = [_receiver_output(rec).copy() for rec in _plan_receiver_executors(plan)]
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
        _receiver_output(rec)[...] = saved
    return snapshot.step
