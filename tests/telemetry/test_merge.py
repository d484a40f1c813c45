"""Batch-trace merging: payload validation, clock-offset correction, and the
property that merged traces stay structurally valid — strict-LIFO B/E
nesting and monotonic timestamps per track — for arbitrary well-nested
attempt buffers under arbitrary per-payload clock offsets, with corrupt
(e.g. SIGKILL-torn) payloads dropped rather than corrupting the trace."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.jobs.spec import AttemptRecord, BatchReport, JobResult, JobSpec
from repro.telemetry import Telemetry
from repro.telemetry.merge import (
    PAYLOAD_VERSION,
    merge_batch_trace,
    telemetry_payload,
    validate_chrome_trace,
    validate_payload,
    write_batch_trace,
)
from repro.telemetry.export import to_chrome_trace


class FakeClock:
    """Strictly increasing deterministic clock for driving Telemetry."""

    def __init__(self, start: float = 0.0):
        self.t = start

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def drive_telemetry(ops, start=0.0, events_too=True) -> Telemetry:
    """Replay a (op, dt) program against a real Telemetry buffer — the
    buffer's own LIFO discipline guarantees the result is well-nested."""
    clock = FakeClock(start)
    tel = Telemetry(clock=clock)
    open_spans = []
    for op, dt in ops:
        clock.advance(dt)
        if op == "begin":
            open_spans.append(tel.begin(f"s{len(tel.spans)}-{len(open_spans)}",
                                        phase="stencil", k=len(open_spans)))
        elif op == "end" and open_spans:
            tel.end(open_spans.pop())
        elif op == "event" and events_too:
            tel.event(f"ev{len(tel.events)}", phase="jobs")
    while open_spans:
        clock.advance(0.5)
        tel.end(open_spans.pop())
    return tel


OPS = st.lists(
    st.tuples(
        st.sampled_from(["begin", "end", "event"]),
        # 0.0: the injectable clock may stand still between two operations,
        # which is how zero-duration and identical-extent spans arise
        st.just(0.0) | st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def make_report(payloads, statuses=None) -> BatchReport:
    results = []
    for i, payload in enumerate(payloads):
        rec = AttemptRecord(attempt=0, started=0.0, outcome="completed")
        rec.trace = payload
        status = (statuses or {}).get(i, "completed")
        results.append(
            JobResult(spec=JobSpec(f"j{i}", nt=4), status=status, attempts=[rec])
        )
    return BatchReport(results=results, wall_seconds=1.0, batch_id="t")


def supervisor_with_lifecycle(job_ids, start=100.0) -> Telemetry:
    clock = FakeClock(start)
    tel = Telemetry(clock=clock)
    root = tel.begin("batch", phase="jobs")
    for jid in job_ids:
        clock.advance(0.1)
        tel.event("job.queued", phase="jobs", job=jid)
    for jid in job_ids:
        clock.advance(0.2)
        tel.event("job.completed", phase="jobs", job=jid)
    clock.advance(0.1)
    tel.end(root)
    return tel


# -- payload serialization ---------------------------------------------------------------
def test_payload_roundtrip_carries_context_and_epoch():
    tel = drive_telemetry([("begin", 1.0), ("event", 0.5), ("end", 1.0)])
    payload = telemetry_payload(tel, job="j0", attempt=2, worker=3)
    assert payload["version"] == PAYLOAD_VERSION
    assert payload["context"] == {"job": "j0", "attempt": 2, "worker": 3}
    assert payload["epoch"] == tel.epoch
    assert len(payload["spans"]) == 1 and len(payload["events"]) == 1
    assert validate_payload(payload) is None


def test_validate_payload_rejects_malformations():
    tel = drive_telemetry([("begin", 1.0), ("end", 1.0)])
    good = telemetry_payload(tel)
    assert validate_payload("nope") is not None
    assert validate_payload({**good, "version": 99}) is not None
    bad_dur = {**good, "spans": [{**good["spans"][0], "dur": -1.0}]}
    assert "bad dur" in validate_payload(bad_dur)
    bad_ts = {**good, "spans": [{**good["spans"][0], "start": math.nan}]}
    assert "non-finite" in validate_payload(bad_ts)
    overlap = {
        **good,
        "spans": [
            {"name": "a", "phase": "", "start": 0.0, "dur": 2.0, "depth": 0, "attrs": {}},
            {"name": "b", "phase": "", "start": 1.0, "dur": 2.0, "depth": 0, "attrs": {}},
        ],
    }
    assert "not well-nested" in validate_payload(overlap)


# -- merged-trace structural properties --------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    programs=st.lists(OPS, min_size=1, max_size=4),
    offsets=st.lists(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
        min_size=4, max_size=4,
    ),
    epochs=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=4, max_size=4,
    ),
)
@example(
    # programs 0 and 3 share worker track 1 in identical clock frames: the
    # draw that overlapped two attempts on one track before the generator
    # serialised them
    programs=[[("begin", 1.0)] * 3, [("begin", 1.0)], [("begin", 1.0)], [("begin", 1.0)] * 2],
    offsets=[0.0] * 4,
    epochs=[0.0] * 4,
)
@example(
    # outer[0,2] ⊃ inner[1,1]: the zero-duration span whose E sorted before
    # its own B
    programs=[[("begin", 1.0), ("begin", 1.0), ("end", 0.0), ("end", 1.0)]],
    offsets=[0.0] * 4,
    epochs=[0.0] * 4,
)
def test_merged_trace_preserves_nesting_and_monotonicity(programs, offsets, epochs):
    """The acceptance property: arbitrary well-nested per-attempt buffers,
    each in its own clock frame with its own offset and sequential per
    worker track, merge into a trace whose per-track B/E streams stay
    strictly LIFO with non-decreasing timestamps (validate_chrome_trace
    checks exactly that) — and so does each buffer's own single-run trace."""
    payloads = []
    track_end = {}  # per worker track: when its last attempt ended, batch clock
    for i, ops in enumerate(programs):
        worker, offset = (i % 3) + 1, offsets[i % 4]
        # a daemon runs its attempts one after another, so an attempt starts
        # (in its own clock frame) a dispatch after the previous one on its
        # track ended
        start = max(epochs[i % 4], track_end.get(worker, -math.inf) - offset + 1e-3)
        tel = drive_telemetry(ops, start=start)
        assert validate_chrome_trace(to_chrome_trace(tel)) == []
        track_end[worker] = tel.now() + offset
        payload = telemetry_payload(tel, job=f"j{i}", attempt=0, worker=worker)
        payload["context"]["clock_offset_s"] = offset
        payloads.append(payload)
    report = make_report(payloads)
    sup = supervisor_with_lifecycle([f"j{i}" for i in range(len(payloads))])
    trace = merge_batch_trace(report, sup)
    problems = validate_chrome_trace(trace)
    assert problems == []
    assert trace["otherData"]["dropped_payloads"] == 0
    # every non-empty worker payload landed on its own worker track
    tids = {
        ev["tid"]
        for ev in trace["traceEvents"]
        if ev.get("pid") == 2 and ev.get("ph") != "M"
    }
    expected = {
        (i % 3) + 1
        for i, p in enumerate(payloads)
        if p["spans"] or p["events"]
    }
    assert tids == expected


@settings(max_examples=25, deadline=None)
@given(ops=OPS, offset=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_offset_correction_shifts_without_reordering(ops, offset):
    """Within one track, applying a clock offset must not change event
    order or span durations — only translate timestamps."""
    tel = drive_telemetry(ops)
    p0 = telemetry_payload(tel, job="j", attempt=0, worker=1)
    p0["context"]["clock_offset_s"] = 0.0
    p1 = telemetry_payload(tel, job="j", attempt=0, worker=1)
    p1["context"]["clock_offset_s"] = offset
    t0 = merge_batch_trace(make_report([p0]))
    t1 = merge_batch_trace(make_report([p1]))
    ev0 = [e for e in t0["traceEvents"] if e.get("ph") in ("B", "E", "i")]
    ev1 = [e for e in t1["traceEvents"] if e.get("ph") in ("B", "E", "i")]
    assert [e["name"] for e in ev0] == [e["name"] for e in ev1]
    for a, b in zip(ev0, ev1):
        assert b["ts"] - a["ts"] == pytest.approx(offset * 1e6, abs=0.01)


@settings(max_examples=25, deadline=None)
@given(ops=OPS, data=st.data())
def test_corrupt_payload_dropped_without_corrupting_trace(ops, data):
    """A SIGKILL-torn / bit-flipped payload arriving alongside good ones is
    dropped (counted) and the surviving trace still validates."""
    good_tel = drive_telemetry([("begin", 1.0)] + list(ops) + [("end", 1.0)])
    good = telemetry_payload(good_tel, job="good", attempt=0, worker=1)
    good["context"]["clock_offset_s"] = -float(good_tel.epoch or 0.0)

    bad = telemetry_payload(good_tel, job="bad", attempt=0, worker=2)
    bad["context"]["clock_offset_s"] = 0.0
    corruption = data.draw(st.sampled_from(
        ["overlap", "nan_ts", "neg_dur", "missing_offset", "version"]
    ))
    if corruption == "overlap":
        bad["spans"] = [
            {"name": "a", "phase": "", "start": 0.0, "dur": 2.0, "depth": 0, "attrs": {}},
            {"name": "b", "phase": "", "start": 1.0, "dur": 2.0, "depth": 0, "attrs": {}},
        ]
    elif corruption == "nan_ts":
        bad["events"] = [
            {"name": "e", "phase": "", "start": math.inf, "dur": 0.0, "depth": 0, "attrs": {}}
        ]
    elif corruption == "neg_dur":
        bad["spans"] = [
            {"name": "a", "phase": "", "start": 0.0, "dur": -1.0, "depth": 0, "attrs": {}}
        ]
    elif corruption == "missing_offset":
        del bad["context"]["clock_offset_s"]
    else:
        bad["version"] = 999

    trace = merge_batch_trace(make_report([good, bad]))
    assert trace["otherData"]["dropped_payloads"] == 1
    assert validate_chrome_trace(trace) == []
    # the good payload survived on its track; the bad one left nothing
    tids = {
        e["tid"] for e in trace["traceEvents"]
        if e.get("pid") == 2 and e.get("ph") != "M"
    }
    assert tids == {1}


# -- supervisor track --------------------------------------------------------------------
def test_supervisor_track_is_epoch_relative_with_async_job_bars():
    sup = supervisor_with_lifecycle(["a", "b"], start=5000.0)
    trace = merge_batch_trace(make_report([]), sup)
    assert validate_chrome_trace(trace) == []
    sup_events = [
        e for e in trace["traceEvents"]
        if e.get("pid") == 1 and e.get("ph") != "M"
    ]
    # epoch-normalised: everything starts at ~0, not at 5000 s
    assert min(e["ts"] for e in sup_events) == pytest.approx(0.0, abs=1.0)
    bars = [e for e in sup_events if e["ph"] in ("b", "e")]
    assert {(e["ph"], e["id"]) for e in bars} == {
        ("b", "a"), ("e", "a"), ("b", "b"), ("e", "b")
    }
    ends = {e["id"]: e for e in bars if e["ph"] == "e"}
    assert ends["a"]["args"]["outcome"] == "completed"


def test_write_batch_trace_roundtrips(tmp_path):
    tel = drive_telemetry([("begin", 1.0), ("end", 1.0)])
    payload = telemetry_payload(tel, job="j0", attempt=0, worker=1)
    payload["context"]["clock_offset_s"] = 0.0
    report = make_report([payload])
    path = tmp_path / "trace.json"
    trace = write_batch_trace(report, path)
    import json

    on_disk = json.loads(path.read_text())
    assert on_disk == trace
    assert validate_chrome_trace(on_disk) == []


def test_validate_chrome_trace_catches_violations():
    base = {"pid": 1, "tid": 0, "cat": "x"}
    bad_nesting = {"traceEvents": [
        {**base, "name": "a", "ph": "B", "ts": 0},
        {**base, "name": "b", "ph": "B", "ts": 1},
        {**base, "name": "a", "ph": "E", "ts": 2},  # closes b's frame
        {**base, "name": "b", "ph": "E", "ts": 3},
    ]}
    assert any("nesting" in p for p in validate_chrome_trace(bad_nesting))
    decreasing = {"traceEvents": [
        {**base, "name": "e1", "ph": "i", "ts": 5, "s": "t"},
        {**base, "name": "e2", "ph": "i", "ts": 1, "s": "t"},
    ]}
    assert any("decreases" in p for p in validate_chrome_trace(decreasing))
    unclosed = {"traceEvents": [{**base, "name": "a", "ph": "B", "ts": 0}]}
    assert any("unclosed" in p for p in validate_chrome_trace(unclosed))
    orphan_async = {"traceEvents": [
        {**base, "name": "j", "ph": "e", "ts": 0, "id": "1"},
    ]}
    assert any("never opened" in p for p in validate_chrome_trace(orphan_async))
