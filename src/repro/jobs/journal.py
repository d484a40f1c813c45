"""Write-ahead batch journal: the durable spine of a crash-safe batch.

PRs 2/5/6 made every *worker-side* fault domain survivable, but the
supervisor itself was a single point of failure: a ``JobPool`` parent
OOM-killed mid-batch abandoned every completed result, every in-flight
checkpoint and the batch's admission state.  The journal fixes that by
recording every state transition *before* it happens, in an append-only,
line-oriented, fsynced file (``journal.jsonl`` in the batch workdir) that a
later :meth:`repro.jobs.pool.JobPool.resume` replays to reconstruct the
batch exactly where it died.

Record format — one JSON object per line, canonical key order, with a
SHA-256 trailer over the rest of the record::

    {"kind": "admit", "seq": 3, "ts": 1723111845.031337, ..., "sha256": "<hex>"}

``ts`` is the wall-clock time (unix seconds, covered by the digest) of the
transition the record describes — the clock reading the supervisor applied
it at, shared by the records of one supervision sweep, so it need not grow
with ``seq`` — and folding the journal replays every attempt's latency as
the live supervisor measured it; that is what lets ``python -m
repro.jobs.status`` show a live, finished or crashed batch from the journal
alone.

Record kinds, in the order a batch emits them:

* ``batch``  — batch config header: seed, workers, capacity, retry policy,
  journal format version.  Always record 0.
* ``shm``    — no longer written: older supervisors journaled the names of
  the shared-memory segments they published here; such journals still fold.
* ``admit``  — one job admitted: full spec dict, submission index, and
  whether a stream yielded it.
* ``attempt``— an attempt is about to dispatch (job, attempt number,
  engine, resume step).  Written *before* the pipe send — write-ahead.
* ``outcome``— an attempt ended: ``completed``/``fault``/``crash``/
  ``timeout``, error summary, and for completions the SHA-256 digest of the
  durable ``result.npz`` plus the attempt's work (``points_updated``,
  ``stencil_s``).
* ``terminal`` — a job reached a terminal status.
* ``stream_failed`` — a user-supplied spec stream raised while pulled.
* ``sdc``    — silent data corruption detected (ABFT guard): job, attempt,
  detection/recovery events.  Forensics only.
* ``storage_degraded`` — checkpoint or journal storage hit ENOSPC; the
  batch continues degraded (no further checkpoints / journaling suspended).
* ``drain``  — graceful shutdown began (SIGTERM/SIGINT).
* ``resume`` — a later supervisor took over this journal.
* ``batch_end`` — the drive loop finished (possibly drained).

Torn-write recovery: :func:`load_journal` verifies every record's digest
and sequence number and stops at the first bad one.  A torn *tail* — the
expected result of SIGKILLing a writer mid-append — is simply dropped: the
replay is the longest verified prefix, and resume truncates the file back
to it before appending (so the journal never grows a corrupt interior).
The corruption is surfaced as a :class:`~repro.errors.JournalCorruptError`
on the replay object (or raised, with ``strict=True``); it is only *fatal*
when the batch header itself is unreadable.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional

from ..errors import JournalCorruptError, StorageExhaustedError

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_VERSION",
    "JOURNAL_KINDS",
    "BatchJournal",
    "JournalReplay",
    "load_journal",
]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1

#: every record ``kind`` the supervisor may emit.  All of them are handled by
#: :func:`repro.jobs.transitions.apply` — the one table the live supervisor
#: and :meth:`JobPool.resume`'s replay both drive — and the role says what the
#: handler does: a ``"replayed"`` kind changes batch state; an ``"audit"`` kind
#: is a forensic marker whose handler only returns events.
#: A kind without a handler (or a handler without a kind) is a ``KeyError``
#: when :mod:`repro.jobs.transitions` is imported.
JOURNAL_KINDS = {
    "batch": "replayed",
    "shm": "audit",
    "admit": "replayed",
    "attempt": "replayed",
    "outcome": "replayed",
    "terminal": "replayed",
    "stream_failed": "audit",
    "sdc": "audit",
    "storage_degraded": "audit",
    "drain": "replayed",
    "resume": "replayed",
    "batch_end": "audit",
}


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def record_digest(record: dict) -> str:
    """Hex SHA-256 over the record *without* its ``sha256`` trailer."""
    payload = {k: v for k, v in record.items() if k != "sha256"}
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass
class JournalReplay:
    """The longest verified prefix of a journal, plus what was cut off."""

    #: verified records in sequence order (``sha256`` trailers stripped)
    records: List[dict]
    #: the corruption that ended the replay, or None for a clean file
    corruption: Optional[JournalCorruptError] = None
    #: byte offset of the end of the last good record (truncation point)
    good_bytes: int = 0

    @property
    def header(self) -> dict:
        """The ``batch`` config header (record 0)."""
        if not self.records or self.records[0].get("kind") != "batch":
            raise JournalCorruptError(
                "journal has no usable batch header", reason="missing 'batch' record"
            )
        return self.records[0]

    def for_kind(self, kind: str) -> List[dict]:
        return [r for r in self.records if r.get("kind") == kind]

    def by_job(self, kind: str) -> dict:
        """``job_id -> [records]`` of the given kind, journal order."""
        out: dict = {}
        for rec in self.records:
            if rec.get("kind") == kind:
                out.setdefault(rec["job"], []).append(rec)
        return out


def load_journal(path, strict: bool = False) -> JournalReplay:
    """Replay *path*: verify digests and sequence, stop at the first bad
    record.  ``strict=True`` raises on any corruption; the default returns
    the good prefix with the corruption attached (resume's recovery mode).
    Raises :class:`JournalCorruptError` if the file is missing."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalCorruptError(
            f"journal {path} is unreadable",
            path=str(path),
            reason=f"{type(exc).__name__}: {exc}",
        ) from exc
    records: List[dict] = []
    corruption: Optional[JournalCorruptError] = None
    offset = 0
    lineno = 0
    while offset < len(data):
        lineno += 1
        end = data.find(b"\n", offset)
        if end < 0:  # torn tail: the writer died mid-append
            corruption = JournalCorruptError(
                f"journal record {lineno} is torn (no trailing newline)",
                path=str(path),
                line=lineno,
                reason="truncated append",
            )
            break
        raw = data[offset:end]
        try:
            record = json.loads(raw)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            if record.get("sha256") != record_digest(record):
                raise ValueError("SHA-256 trailer mismatch")
            if record.get("seq") != len(records):
                raise ValueError(
                    f"sequence break: expected {len(records)}, got {record.get('seq')}"
                )
        except ValueError as exc:
            corruption = JournalCorruptError(
                f"journal record {lineno} fails verification",
                path=str(path),
                line=lineno,
                reason=str(exc),
            )
            break
        record.pop("sha256", None)
        records.append(record)
        offset = end + 1
    if strict and corruption is not None:
        raise corruption
    return JournalReplay(records=records, corruption=corruption, good_bytes=offset)


class BatchJournal:
    """Append-only writer with per-record SHA-256 trailers and fsync.

    ``append`` is write-ahead: it returns only after the record is on disk
    (flushed and fsynced), so any state transition
    journaled before it is performed is recoverable after SIGKILL.  Opening
    with ``truncate_to`` (resume) cuts a torn tail back to the last
    verified record before the first append lands.
    """

    def __init__(
        self,
        path,
        seq_start: int = 0,
        truncate_to: Optional[int] = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = int(seq_start)
        self.records_written = 0
        self._fh: Optional[IO[bytes]] = open(self.path, "ab")
        if truncate_to is not None:
            self._fh.truncate(int(truncate_to))
            self._fh.seek(int(truncate_to))

    @property
    def seq(self) -> int:
        return self._seq

    def append(self, kind: str, ts: Optional[float] = None, **payload) -> dict:
        """Durably append one record stamped *ts* (default: now); returns it
        (without the trailer)."""
        if self._fh is None:
            raise ValueError("journal is closed")
        ts = time.time() if ts is None else ts
        record = {"kind": kind, "seq": self._seq, "ts": round(ts, 6)}
        record.update(payload)
        record["sha256"] = record_digest(record)
        try:
            self._fh.write(_canonical(record) + b"\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            raise StorageExhaustedError(
                f"no space left on device while appending to journal "
                f"{self.path.name}",
                path=str(self.path),
                op="journal_append",
            ) from exc
        self._seq += 1
        self.records_written += 1
        record.pop("sha256")
        return record

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()
