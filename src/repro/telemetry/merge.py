"""Batch-wide trace merging: stitch supervisor + per-attempt span trees.

Warm daemons run attempts under their own :class:`Telemetry` buffer (their
process, their ``perf_counter`` clock).  With tracing enabled the daemon
serializes that buffer with :func:`telemetry_payload` and ships it back over
the result pipe inside the attempt ``meta``; the supervisor stamps each
payload with a **clock offset** derived from the pipe handshake and
:func:`merge_batch_trace` stitches everything into one Chrome/Perfetto
``trace_event`` JSON with per-worker tracks.

Clock-offset correction
-----------------------
``perf_counter`` epochs are per-process, so child timestamps are meaningless
in the supervisor's frame until corrected.  The dispatch message carries the
parent's ``perf_counter`` reading taken immediately before the pipe write;
the child reads its own clock immediately after the pipe read.  Equating the
two instants (they differ by the one-way pipe latency, well under a
millisecond for these payloads)::

    offset = (dispatch_parent - batch_epoch) - recv_child

maps any child timestamp ``t`` to batch-relative seconds as ``t + offset``.
The error is bounded by the pipe latency and — crucially for trace sanity —
is *constant per payload*, so within-track ordering and span nesting are
preserved exactly (:func:`validate_chrome_trace` checks both).

Track layout
------------
* ``pid 1`` — the supervisor: lifecycle instants (``job.queued``,
  ``worker.crash`` …) plus one **async** ``b``/``e`` pair per job spanning
  queue-entry to terminal state.  Async events are keyed by ``id`` and
  exempt from B/E stack nesting, which matters because job lifetimes
  overlap arbitrarily.
* ``pid 2`` — the workers: one track (``tid`` = worker id) per daemon,
  carrying the corrected per-attempt span trees.  Serial (``workers=0``)
  attempts land on ``tid 0``.

Partial payloads from SIGKILLed daemons never reach the supervisor (the
result message dies with the process) — but a half-written or corrupt
payload that *does* arrive is dropped by :func:`validate_payload` rather
than corrupting the batch trace; drops are counted in
``otherData.dropped_payloads``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from .export import track_events
from .spans import Telemetry

__all__ = [
    "PAYLOAD_VERSION",
    "telemetry_payload",
    "validate_payload",
    "merge_batch_trace",
    "write_batch_trace",
    "validate_chrome_trace",
]

#: version stamp of the span-payload wire format (bump on breaking change)
PAYLOAD_VERSION = 1


def telemetry_payload(tel: Telemetry, **context) -> dict:
    """Serialize one attempt's buffer for the result pipe.

    Timestamps stay in the *recording process's* clock frame; the receiver
    applies the handshake offset.  ``context`` carries trace identity
    (job id, attempt, worker) plus the child-side handshake reading
    (``recv_perf``).  Only JSON-able attrs survive (the pipe uses pickle,
    but the payload must also round-trip through ``--trace`` JSON export).
    """
    return {
        "version": PAYLOAD_VERSION,
        "context": dict(context),
        "spans": [s.to_dict() for s in tel.spans],
        "events": [e.to_dict() for e in tel.events],
        "phase_seconds": {k: v for k, v in tel.phase_seconds.items() if v},
        "counters": tel.counters.to_dict(),
        "epoch": tel.epoch,
    }


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def validate_payload(payload) -> Optional[str]:
    """Why this payload must be dropped, or ``None`` if it is sound.

    Checks shape, finite timestamps, non-negative durations, and — the
    property the merger depends on — that the span set is a *well-nested
    forest*: replaying spans in (start, -dur) order against a stack must
    close every span in strict LIFO order.  A daemon SIGKILLed mid-attempt
    that somehow flushed half a buffer fails here instead of producing a
    trace Perfetto rejects.
    """
    if not isinstance(payload, dict):
        return "payload is not a dict"
    if payload.get("version") != PAYLOAD_VERSION:
        return f"unknown payload version {payload.get('version')!r}"
    spans = payload.get("spans")
    events = payload.get("events")
    if not isinstance(spans, list) or not isinstance(events, list):
        return "spans/events are not lists"
    for kind, rows in (("span", spans), ("event", events)):
        for row in rows:
            if not isinstance(row, dict):
                return f"non-dict {kind}"
            if not _finite(row.get("start")):
                return f"{kind} {row.get('name')!r}: non-finite start"
            if not _finite(row.get("dur")) or row["dur"] < 0:
                return f"{kind} {row.get('name')!r}: bad dur"
            if not isinstance(row.get("name"), str) or not row["name"]:
                return f"{kind} without a name"
    # well-nested forest check: sweep span boundaries with a stack
    ordered = sorted(spans, key=lambda s: (s["start"], -s["dur"]))
    stack: List[Tuple[float, float]] = []  # (start, end)
    eps = 1e-9
    for s in ordered:
        start, end = s["start"], s["start"] + s["dur"]
        while stack and stack[-1][1] <= start + eps:
            stack.pop()
        if stack and end > stack[-1][1] + eps:
            return (
                f"span {s['name']!r} [{start:.6f}, {end:.6f}] overlaps its "
                f"enclosing span's end {stack[-1][1]:.6f} (not well-nested)"
            )
        stack.append((start, end))
    return None


_SUPERVISOR_PID = 1
_WORKER_PID = 2

#: terminal lifecycle kinds that close a job's async track event — the
#: ``job.<kind>`` marks :meth:`JobPool._finish` emits per terminal status
_TERMINAL_EVENTS = {
    "job.completed",
    "job.timeout",
    "job.exhausted",
    "job.quarantined",
    "job.interrupted",
}


def merge_batch_trace(report, supervisor_telemetry: Optional[Telemetry] = None) -> dict:
    """Stitch a :class:`~repro.jobs.spec.BatchReport` into one Chrome trace.

    Consumes the per-attempt ``trace`` payloads stored on attempt records
    (each already stamped with ``clock_offset_s`` by the supervisor) plus
    the supervisor's own lifecycle events/spans.  Invalid payloads are
    dropped, not fatal; the count lands in ``otherData.dropped_payloads``.
    """
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": _SUPERVISOR_PID, "tid": 0,
         "args": {"name": "supervisor"}},
        {"name": "process_name", "ph": "M", "pid": _WORKER_PID, "tid": 0,
         "args": {"name": "workers"}},
        {"name": "thread_name", "ph": "M", "pid": _SUPERVISOR_PID, "tid": 0,
         "args": {"name": "pool"}},
    ]

    # -- supervisor track: lifecycle instants + async per-job lifetime bars ----
    job_open: Dict[str, float] = {}
    sup_keyed: List[tuple] = []
    if supervisor_telemetry is not None:
        # the supervisor's buffer records absolute perf_counter readings;
        # its epoch is the batch-relative zero the worker offsets map into
        epoch = supervisor_telemetry.epoch or 0.0
        sup_keyed = track_events(
            [s.to_dict() for s in supervisor_telemetry.spans],
            [e.to_dict() for e in supervisor_telemetry.events],
            -epoch, _SUPERVISOR_PID, 0,
        )
        for ev in [ev for _, ev in sup_keyed if ev["ph"] == "i"]:
            ts, jid = ev["ts"], ev.get("args", {}).get("job")
            if jid is None:
                continue
            # async job-lifetime bars interleave with the B/E/i stream; sort
            # keys slot e before B-opens and b after E-closes at equal ts
            if ev["name"] == "job.queued" and jid not in job_open:
                job_open[jid] = ts
                sup_keyed.append(((0, ts, 1.5), {
                    "name": f"job {jid}", "cat": "jobs", "ph": "b", "ts": ts,
                    "pid": _SUPERVISOR_PID, "tid": 0, "id": str(jid),
                }))
            elif ev["name"] in _TERMINAL_EVENTS and jid in job_open:
                end_ts = max(ts, job_open.pop(jid))
                sup_keyed.append(((0, end_ts, 0.5), {
                    "name": f"job {jid}", "cat": "jobs", "ph": "e", "ts": end_ts,
                    "pid": _SUPERVISOR_PID, "tid": 0, "id": str(jid),
                    "args": {"outcome": ev["name"].split(".", 1)[1]},
                }))
    sup_keyed.sort(key=lambda kv: kv[0])
    events.extend(ev for _, ev in sup_keyed)

    # -- worker tracks: corrected per-attempt span trees -----------------------
    dropped = 0
    worker_keyed: List[tuple] = []
    named_tracks: Dict[int, str] = {}
    for result in report.results:
        for rec in result.attempts:
            payload = getattr(rec, "trace", None)
            if payload is None:
                continue
            reason = validate_payload(payload)
            ctx = payload.get("context", {})
            offset = ctx.get("clock_offset_s")
            if reason is not None or not _finite(offset):
                dropped += 1
                continue
            tid = int(ctx.get("worker") or 0)
            named_tracks.setdefault(
                tid, "serial" if tid == 0 else f"worker {tid}"
            )
            worker_keyed.extend(track_events(
                payload["spans"], payload["events"], float(offset), _WORKER_PID, tid,
                base_args={k: ctx[k] for k in ("job", "attempt") if k in ctx},
            ))
    for tid, name in sorted(named_tracks.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": _WORKER_PID,
                       "tid": tid, "args": {"name": name}})
    worker_keyed.sort(key=lambda kv: kv[0])
    events.extend(ev for _, ev in worker_keyed)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "batch_id": getattr(report, "batch_id", None),
            "wall_seconds": report.wall_seconds,
            "jobs": len(report.results),
            "dropped_payloads": dropped,
        },
    }


def write_batch_trace(report, path, supervisor_telemetry=None) -> dict:
    """Serialise :func:`merge_batch_trace` to *path*; returns the trace."""
    trace = merge_batch_trace(report, supervisor_telemetry)
    with open(path, "w") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return trace


def validate_chrome_trace(trace) -> List[str]:
    """Schema + structural check of a Chrome ``trace_event`` object.

    Returns a list of problems (empty == valid): required keys per event
    phase, finite timestamps, per-track (pid, tid) B/E stack balance with
    matching names, non-decreasing timestamps per track, and async b/e
    pairing per (pid, cat, id).  This is the validator the property tests
    and the CI smoke both run against ``--trace`` output.
    """
    problems: List[str] = []
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        return ["trace is not a dict with a traceEvents list"]
    stacks: Dict[tuple, List[str]] = {}
    last_ts: Dict[tuple, float] = {}
    async_open: Dict[tuple, int] = {}
    for i, ev in enumerate(trace["traceEvents"]):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not a dict")
            continue
        ph = ev.get("ph")
        if ph not in ("B", "E", "i", "M", "b", "e", "X"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"event {i}: missing name")
            continue
        if ph == "M":
            continue
        if "pid" not in ev or "tid" not in ev or not _finite(ev.get("ts")):
            problems.append(f"event {i} ({ev['name']!r}): missing pid/tid/finite ts")
            continue
        track = (ev["pid"], ev["tid"])
        if ev["ts"] + 1e-9 < last_ts.get(track, -math.inf):
            problems.append(
                f"event {i} ({ev['name']!r}): ts {ev['ts']} decreases on track {track}"
            )
        last_ts[track] = max(last_ts.get(track, -math.inf), ev["ts"])
        if ph == "B":
            stacks.setdefault(track, []).append(ev["name"])
        elif ph == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                problems.append(f"event {i}: E {ev['name']!r} with empty stack on {track}")
            elif stack[-1] != ev["name"]:
                problems.append(
                    f"event {i}: E {ev['name']!r} does not match open "
                    f"{stack[-1]!r} on {track} (nesting violated)"
                )
                stack.pop()
            else:
                stack.pop()
        elif ph in ("b", "e"):
            if "id" not in ev:
                problems.append(f"event {i}: async {ph} without id")
                continue
            key = (ev["pid"], ev.get("cat", ""), str(ev["id"]))
            if ph == "b":
                async_open[key] = async_open.get(key, 0) + 1
            else:
                if async_open.get(key, 0) <= 0:
                    problems.append(f"event {i}: async e {ev['name']!r} never opened")
                else:
                    async_open[key] -= 1
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} unclosed B span(s): {stack}")
    for key, n in async_open.items():
        if n:
            problems.append(f"async {key}: {n} unclosed b event(s)")
    return problems
