"""Integrity: the one durable-write helper and the one sealed-file format.

The durability layer trusts four kinds of files across a crash: checkpoint
snapshots (``ckpt_*.npz``), durable job results (``result.npz``), cached
kernel objects (``<key>.so``) and the write-ahead batch journal.  The journal
embeds a digest in every record; the binary artifacts are *sealed*: the
SHA-256 of the file's payload is stored as its last 32 raw bytes, appended
inside the same temp file before the one fsync and the one
:func:`os.replace` that publish it.  ``zipfile`` (hence ``np.load``) and
``dlopen`` both ignore bytes past the end of their image, so a sealed file
reads as its payload (a digest that happens to contain zip's
end-of-directory signature, odds about 1e-8, makes ``np.load`` fail: the
artifact is refused like a damaged one, never misread).

A published file is therefore whole or absent, and damage that an atomic
rename cannot prevent — bit rot, a torn copy, a crashed filesystem replaying
a partial extent — fails :func:`verify_sealed`: the artifact must not be
trusted, and callers fall back to the previous good one or recompute.  A
file without a seal (written before this format) fails the same way.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

__all__ = ["atomic_write", "write_sealed", "verify_sealed"]

_CHUNK = 1 << 20
_SEAL = 32  # raw SHA-256 bytes at the end of a sealed file


def atomic_write(path, write, fsync: bool = True):
    """Publish *path* whole or not at all: ``write(fh)`` fills a binary
    temp sibling (``<name>.<pid>.tmp``, so writers in different processes
    never share one), which is flushed, fsynced and :func:`os.replace`-d over
    *path*; a failed write leaves no sibling behind.  Returns what *write*
    returned.  ``fsync=False`` is for files that must never be *seen* torn
    but are not recovery state (the live status snapshots, rewritten twice a
    second)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+b") as fh:
            result = write(fh)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return result


def _hash(fh, size: int):
    """SHA-256 of the next *size* bytes of *fh*, streamed in constant memory."""
    h = hashlib.sha256()
    while size > 0:
        chunk = fh.read(min(_CHUNK, size))
        if not chunk:
            break
        h.update(chunk)
        size -= len(chunk)
    return h


def write_sealed(path, write) -> str:
    """Publish *path* sealed (:func:`atomic_write`, fsynced): ``write(fh)``
    fills the temp sibling, which is re-read to hash it and gets the digest
    appended before the flush.  Returns the payload's hex digest."""

    def sealed(fh):
        write(fh)
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        h = _hash(fh, size)
        fh.write(h.digest())
        return h.hexdigest()

    return atomic_write(path, sealed)


def verify_sealed(path) -> Optional[str]:
    """The payload's hex digest if *path* is present and its seal matches,
    else None (missing, unsealed, truncated or damaged)."""
    try:
        with open(path, "rb") as fh:
            h = _hash(fh, os.fstat(fh.fileno()).st_size - _SEAL)
            if fh.read(_SEAL) != h.digest():  # short files fail here too
                return None
    except OSError:
        return None
    return h.hexdigest()
