"""Write-ahead journal: append/replay round-trips, SHA-256 trailer and
sequence verification, torn-tail recovery — the durable spine that resume
trusts must reject every flavour of partial or tampered write."""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalCorruptError
from repro.jobs import BatchJournal, load_journal
from repro.jobs.journal import record_digest


def write_sample(path, n=3):
    with BatchJournal(path) as journal:
        journal.append("batch", version=1, batch_seed=7)
        for i in range(n):
            journal.append("admit", job=f"j{i}", index=i)
    return path


def test_append_load_round_trip(tmp_path):
    path = write_sample(tmp_path / "journal.jsonl")
    replay = load_journal(path)
    assert replay.corruption is None
    assert [r["kind"] for r in replay.records] == ["batch", "admit", "admit", "admit"]
    assert [r["seq"] for r in replay.records] == [0, 1, 2, 3]
    assert replay.header["batch_seed"] == 7
    assert replay.good_bytes == path.stat().st_size
    # trailers are stripped from the replay but present on disk
    assert all("sha256" not in r for r in replay.records)
    for line in path.read_bytes().splitlines():
        record = json.loads(line)
        assert record["sha256"] == record_digest(record)


def test_by_job_and_for_kind_views(tmp_path):
    path = tmp_path / "journal.jsonl"
    with BatchJournal(path) as journal:
        journal.append("batch", version=1)
        journal.append("attempt", job="a", attempt=0)
        journal.append("attempt", job="b", attempt=0)
        journal.append("attempt", job="a", attempt=1)
    replay = load_journal(path)
    assert len(replay.for_kind("attempt")) == 3
    by_job = replay.by_job("attempt")
    assert [r["attempt"] for r in by_job["a"]] == [0, 1]
    assert [r["attempt"] for r in by_job["b"]] == [0]


def test_tampered_record_stops_the_replay_at_the_good_prefix(tmp_path):
    path = write_sample(tmp_path / "journal.jsonl")
    lines = path.read_bytes().splitlines(keepends=True)
    # flip a payload byte in record 2 without touching its trailer
    lines[2] = lines[2].replace(b'"job":"j1"', b'"job":"jX"')
    path.write_bytes(b"".join(lines))
    replay = load_journal(path)
    assert [r["seq"] for r in replay.records] == [0, 1]
    assert replay.corruption is not None
    assert replay.corruption.line == 3
    assert "SHA-256" in replay.corruption.reason
    assert replay.good_bytes == len(lines[0]) + len(lines[1])


def test_torn_tail_is_dropped_and_truncation_point_reported(tmp_path):
    path = write_sample(tmp_path / "journal.jsonl")
    whole = path.read_bytes()
    good = whole[: whole.rindex(b"\n", 0, len(whole) - 1) + 1]
    path.write_bytes(whole[:-7])  # SIGKILL mid-append: no trailing newline
    replay = load_journal(path)
    assert len(replay.records) == 3
    assert replay.corruption.reason == "truncated append"
    assert replay.good_bytes == len(good)
    # resume reopens at the truncation point and appends cleanly
    with BatchJournal(
        path, seq_start=len(replay.records), truncate_to=replay.good_bytes
    ) as journal:
        journal.append("resume", jobs=3)
    healed = load_journal(path)
    assert healed.corruption is None
    assert [r["kind"] for r in healed.records] == ["batch", "admit", "admit", "resume"]
    assert [r["seq"] for r in healed.records] == [0, 1, 2, 3]


def test_sequence_break_is_corruption(tmp_path):
    path = tmp_path / "journal.jsonl"
    with BatchJournal(path) as journal:
        journal.append("batch", version=1)
    # a record with a valid trailer but the wrong seq (spliced journal)
    record = {"kind": "admit", "seq": 5, "job": "j0"}
    record["sha256"] = record_digest(record)
    with open(path, "ab") as fh:
        fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    replay = load_journal(path)
    assert len(replay.records) == 1
    assert "sequence break" in replay.corruption.reason
    with pytest.raises(JournalCorruptError) as excinfo:
        load_journal(path, strict=True)
    assert "sequence break" in excinfo.value.reason


def test_missing_file_and_missing_header_raise(tmp_path):
    with pytest.raises(JournalCorruptError, match="unreadable"):
        load_journal(tmp_path / "nope.jsonl")
    path = tmp_path / "journal.jsonl"
    with BatchJournal(path) as journal:
        journal.append("admit", job="j0")  # no batch header first
    with pytest.raises(JournalCorruptError, match="batch header"):
        load_journal(path).header


def test_closed_journal_refuses_appends(tmp_path):
    journal = BatchJournal(tmp_path / "journal.jsonl")
    journal.append("batch", version=1)
    journal.close()
    journal.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        journal.append("admit", job="j0")
