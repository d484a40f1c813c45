"""Integrity: the durable-write helpers and the one sealed-file format.

The durability layer trusts four kinds of files across a crash: checkpoint
slots, durable job results (``result.npz``), cached kernel objects
(``<key>.so``) and the write-ahead batch journal.  The journal embeds a
digest in every record; the binary artifacts are *sealed*: the SHA-256 of
the file's payload is stored as its last 32 raw bytes, hashed from the
buffers as they are written, never by re-reading the file.  ``zipfile``
(hence ``np.load``) and ``dlopen`` both ignore bytes past the end of their
image, so a sealed file reads as its payload (a digest that happens to
contain zip's end-of-directory signature, odds about 1e-8, makes
``np.load`` fail: the artifact is refused like a damaged one, never
misread).

Results and objects are published whole (:func:`write_sealed`); a
checkpoint slot is overwritten in place (:func:`overwrite_sealed`), its
caller keeping another good copy.  Damage neither prevents — a torn
in-place write, bit rot, a crashed filesystem replaying a partial extent —
fails :func:`read_sealed`, as does a file without a seal: callers fall back
to the previous good artifact or recompute.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, Optional, Sequence

__all__ = ["atomic_write", "write_sealed", "overwrite_sealed", "read_sealed"]

_SEAL = 32  # raw SHA-256 bytes at the end of a sealed file


def atomic_write(path, write, fsync: bool = True) -> None:
    """Publish *path* whole or not at all: ``write(fh)`` fills a binary
    temp sibling (``<name>.<pid>.tmp``, so writers in different processes
    never share one), which is flushed, fsynced and :func:`os.replace`-d over
    *path*; a failed write leaves no sibling behind.  ``fsync=False`` is for
    files that must never be *seen* torn but are not recovery state (the
    live status snapshots, rewritten twice a second)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+b") as fh:
            write(fh)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sealed(buffers: Sequence) -> list:
    """Byte views of *buffers* (C-contiguous), the seal of their bytes last."""
    views = [memoryview(b) for b in buffers]
    # an empty view cannot be cast when its shape holds a zero
    views = [v.cast("B") if v.nbytes else memoryview(b"") for v in views]
    h = hashlib.sha256()
    for view in views:
        h.update(view)
    return views + [memoryview(h.digest())]


def write_sealed(path, buffers: Sequence) -> str:
    """Publish *path* sealed (:func:`atomic_write`, fsynced): the bytes of
    *buffers*, then their seal.  Returns the payload's hex digest."""
    views = _sealed(buffers)
    atomic_write(path, lambda fh: fh.writelines(views))
    return views[-1].hex()


def overwrite_sealed(path, buffers: Sequence, clock: Optional[Callable[[], float]] = None):
    """Overwrite *path* in place with the bytes of *buffers* and their seal:
    ``pwritev`` from the buffers themselves (no joined copy), ``ftruncate``
    only when the size changes, one ``fdatasync``.  A write cut short leaves
    a file that fails :func:`read_sealed`.  *clock*, when given, is read
    once between the write and the sync, and the reading returned."""
    views = _sealed(buffers)
    size = sum(view.nbytes for view in views)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if os.fstat(fd).st_size != size:
            os.ftruncate(fd, size)
        offset = 0
        while views:  # a short write (a signal, a filling disk) resumes
            done = os.pwritev(fd, views, offset)
            offset += done
            while views and done >= views[0].nbytes:
                done -= views.pop(0).nbytes
            if done:
                views[0] = views[0][done:]
        mark = clock() if clock is not None else None
        os.fdatasync(fd)
    finally:
        os.close(fd)
    return mark


def read_sealed(path) -> Optional[memoryview]:
    """The payload of *path* (a read-only view of the one read, no copy) if
    the file is present and its seal matches; else None (missing, unsealed,
    truncated or damaged)."""
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return None
    payload = memoryview(blob)[:-_SEAL]
    if len(blob) < _SEAL or hashlib.sha256(payload).digest() != blob[-_SEAL:]:
        return None
    return payload
