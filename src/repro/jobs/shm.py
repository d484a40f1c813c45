"""Zero-copy shared-memory registry for read-only model/geometry arrays.

The warm-worker pool preforks long-lived daemons and dispatches many jobs at
them; every job of a batch runs over the *same* velocity model and geometry.
Shipping those arrays inside each job payload (or rebuilding them per
attempt) pays a serialisation/compute cost per job that the paper's whole
premise says to amortise.  This module is the amortisation: the supervisor
:meth:`publishes <SharedArrayRegistry.publish>` each read-only array into a
POSIX shared-memory segment once per batch, job payloads carry only the
picklable :class:`SharedArrayHandle` (segment name + shape + dtype), and
workers :func:`attach <attach_array>` a read-only numpy view — zero copies,
zero pickled grids.

Ownership is strictly parent-side: the registry that created a segment is
the only thing that ever unlinks it (:meth:`SharedArrayRegistry.close`,
called from ``JobPool.run``'s ``finally``).  Workers only map and unmap;
worker-side attachments are explicitly *unregistered* from the
:mod:`multiprocessing.resource_tracker` (registration suppressed at attach)
so a SIGKILLed worker can never confuse the tracker into double-unlinking
or warning about segments it never owned.  A SIGKILL drops the worker's mapping with the process; the
parent's ``finally`` unlink is what guarantees no ``/dev/shm`` entry
outlives the batch (:func:`segment_exists` is the test hook for exactly
that invariant).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "SharedArrayHandle",
    "SharedArrayRegistry",
    "AttachedArrays",
    "attach_array",
    "segment_exists",
    "unlink_stale",
    "verify_handles",
]


@contextlib.contextmanager
def _attach_untracked():
    """Attach without becoming an owner in the resource tracker's eyes.

    The creating registry owns unlinking; an attacher must never be
    recorded, or (under fork, where parent and children share one tracker
    daemon) its registration would alias the parent's and the eventual
    unlink would double-unregister.  Python 3.11 SharedMemory has no
    ``track=False``, so registration is suppressed for the duration of the
    constructor instead — the standard pre-3.13 workaround.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        yield
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class SharedArrayHandle:
    """Picklable zero-copy reference to one published array.

    Carries everything needed to rebuild a read-only numpy view in another
    process: the POSIX segment name plus the array's shape and dtype — and
    the CRC-32 block checksum recorded at publish time, so an attacher can
    prove the segment's bytes are still the bytes the supervisor wrote (a
    flipped bit in ``/dev/shm`` otherwise poisons every job of the batch).
    """

    key: str
    name: str
    shape: Tuple[int, ...]
    dtype: str
    #: CRC-32 of the published bytes (None for handles from older pickles)
    checksum: Optional[int] = None

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def verify(self, array: np.ndarray) -> bool:
        """True iff *array*'s bytes still match the published checksum
        (vacuously true for handles that never carried one)."""
        if self.checksum is None:
            return True
        from ..runtime.integrity import array_checksum

        return array_checksum(array) == self.checksum


class AttachedArrays:
    """Worker-side view of a set of handles: ``key -> read-only ndarray``.

    Keeps the underlying :class:`~multiprocessing.shared_memory.SharedMemory`
    objects referenced for as long as the views are in use; :meth:`close`
    drops the views first (a buffer with live exports cannot be unmapped)
    and then unmaps every segment.  Never unlinks — that is the publishing
    registry's job.
    """

    def __init__(self, handles: Mapping[str, SharedArrayHandle]):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self.arrays: Dict[str, np.ndarray] = {}
        for key, handle in handles.items():
            with _attach_untracked():
                shm = shared_memory.SharedMemory(name=handle.name)
            view = np.ndarray(
                handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf
            )
            view.flags.writeable = False
            self._segments[key] = shm
            self.arrays[key] = view

    def close(self) -> None:
        self.arrays.clear()
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # a stray view still exports the buffer
                pass
        self._segments.clear()

    def __enter__(self) -> "AttachedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PinnedView(np.ndarray):
    """ndarray subclass that can carry the keepalive reference a plain
    ndarray cannot (no instance dict)."""


def attach_array(handle: SharedArrayHandle) -> np.ndarray:
    """One-shot convenience: attach *handle* and return its read-only view.

    The segment stays mapped for the life of the returned array (the
    :class:`AttachedArrays` wrapper is pinned onto it).
    """
    attached = AttachedArrays({handle.key: handle})
    view = attached.arrays[handle.key].view(_PinnedView)
    view._repro_shm_keepalive = attached
    view.flags.writeable = False
    return view


class SharedArrayRegistry:
    """Parent-side owner of the batch's published segments.

    ``publish`` copies an array into a fresh segment exactly once; ``close``
    (idempotent, always reached via ``JobPool.run``'s ``finally``) unmaps
    and unlinks everything, so no ``/dev/shm`` entry survives the batch even
    when workers were SIGKILLed mid-map.
    """

    def __init__(self):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._handles: Dict[str, SharedArrayHandle] = {}

    def publish(self, key: str, array: np.ndarray) -> SharedArrayHandle:
        if key in self._handles:
            raise ValueError(f"duplicate shared-array key {key!r}")
        from ..runtime.integrity import array_checksum

        arr = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
        handle = SharedArrayHandle(
            key=key,
            name=shm.name,
            shape=tuple(arr.shape),
            dtype=arr.dtype.str,
            checksum=array_checksum(arr),
        )
        self._segments[key] = shm
        self._handles[key] = handle
        return handle

    def handles(self) -> Dict[str, SharedArrayHandle]:
        return dict(self._handles)

    def segment_names(self) -> Tuple[str, ...]:
        return tuple(h.name for h in self._handles.values())

    def __len__(self) -> int:
        return len(self._handles)

    def close(self) -> None:
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._handles.clear()

    def __enter__(self) -> "SharedArrayRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def verify_handles(
    handles: Mapping[str, SharedArrayHandle], attached: AttachedArrays
) -> Tuple[str, ...]:
    """Keys whose attached segments fail their published checksum.

    Warm daemons run this at attempt start: a corrupted model array then
    fails *one attempt* with a structured
    :class:`~repro.errors.SilentCorruptionError` (classified ``sdc`` by the
    pool, which re-ships private copies on the retry) instead of silently
    poisoning every job that maps the segment.
    """
    return tuple(
        key
        for key, handle in handles.items()
        if key in attached.arrays and not handle.verify(attached.arrays[key])
    )


def segment_exists(name: str) -> bool:
    """True iff the named shared-memory segment is still linked (test hook
    for the no-leaked-``/dev/shm``-entries invariant)."""
    try:
        with _attach_untracked():
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


def unlink_stale(name: str) -> bool:
    """Unlink a segment leaked by a dead supervisor; True if one existed.

    The one sanctioned exception to parent-side ownership: a SIGKILLed
    supervisor never reaches its ``finally`` unlink, so the segment names it
    journaled (the batch journal's ``shm`` records) are orphans by
    definition — no process that could legitimately unlink them is alive.
    ``JobPool.resume`` reclaims them through this helper before publishing
    its own registry.
    """
    try:
        with _attach_untracked():
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        return False
    return True
