"""Integrity checks: SHA-256 trailers for on-disk artifacts.

The durability layer trusts three kinds of files across a supervisor crash:
checkpoint snapshots (``ckpt_*.npz``), durable job results (``result.npz``)
and the write-ahead batch journal.  The journal embeds a digest in every
record; the binary artifacts carry theirs as an atomic *sidecar* file
(``<name>.sha256``) written after the artifact itself is in place.

The ordering makes torn writes fail safe in both directions: a crash after
the artifact but before the sidecar leaves a file that merely *cannot be
verified* (treated as not durable — recomputed, never trusted), and a crash
mid-sidecar leaves a ``.tmp`` that is invisible to readers.  A digest
mismatch means the artifact itself was torn or damaged and must not be
trusted; callers fall back to the previous good artifact or recompute.

Legacy artifacts written before this layer have no sidecar;
:func:`verify_digest` accepts them unless ``require=True`` — resume-time
decisions (skip a completed job?) require the digest, load-time decisions
(is this checkpoint usable?) merely refuse a *mismatching* one.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

__all__ = [
    "atomic_write",
    "DIGEST_SUFFIX",
    "file_digest",
    "digest_path",
    "write_digest",
    "read_digest",
    "verify_digest",
]

DIGEST_SUFFIX = ".sha256"

_CHUNK = 1 << 20


def atomic_write(path, write, fsync: bool = True) -> None:
    """Publish *path* whole or not at all: ``write(fh)`` fills a binary
    ``.tmp`` sibling, which is flushed, fsynced and :func:`os.replace`-d over
    *path*; a failed write leaves no sibling behind.  ``fsync=False`` is for
    files that must never be *seen* torn but are not recovery state (the live
    status snapshots, rewritten twice a second)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_digest(path) -> str:
    """Hex SHA-256 of the file's bytes (streamed, constant memory)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def digest_path(path) -> Path:
    """The sidecar path of *path* (``<name>.sha256``)."""
    path = Path(path)
    return path.with_name(path.name + DIGEST_SUFFIX)


def write_digest(path) -> str:
    """Compute and persist the sidecar digest of *path* (atomic, fsynced).

    Returns the hex digest.  A crash mid-write can never leave a torn
    sidecar (:func:`atomic_write`) — only a missing one, which verification
    treats as "not durable", never as "valid".
    """
    digest = file_digest(path)
    atomic_write(digest_path(path), lambda fh: fh.write(f"{digest}\n".encode()))
    return digest


def read_digest(path) -> Optional[str]:
    """The recorded sidecar digest of *path*, or None if absent/unreadable."""
    try:
        text = digest_path(path).read_text().strip()
    except OSError:
        return None
    return text or None


def verify_digest(path, require: bool = False) -> bool:
    """True iff *path* exists and matches its sidecar digest.

    A missing sidecar passes unless ``require=True`` (legacy artifacts have
    none); a present-but-mismatching sidecar always fails — the artifact was
    torn or damaged and must not be trusted.
    """
    path = Path(path)
    if not path.exists():
        return False
    recorded = read_digest(path)
    if recorded is None:
        return not require
    return file_digest(path) == recorded
