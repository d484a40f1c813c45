"""Exporters: JSON, human-readable phase table, Chrome-trace/Perfetto.

Three views of one :class:`~repro.telemetry.spans.Telemetry` buffer:

* :func:`telemetry_to_json` — everything (phases, counters, derived metrics,
  spans, events) as one JSON-able dict; this is what ``repro.profile --json``
  prints.
* :func:`render_phase_table` — the per-phase breakdown as a fixed-width
  table (via :func:`repro.analysis.report.render_table`) with the achieved
  GPts/s row joined in from the measured sweep time.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the
  ``trace_event`` format Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing`` load: matched ``B``/``E`` duration events per span,
  microsecond timestamps relative to the trace epoch, instantaneous ``i``
  events for checkpoint/fallback marks.  Load the file in Perfetto to see
  the tile/sweep timeline of a wavefront run.  :func:`track_events` is the
  one place spans become events; :mod:`repro.telemetry.merge` builds the
  batch-wide trace's tracks with it too.
"""

from __future__ import annotations

import json
from typing import List

from .counters import derived_metrics
from .spans import PHASES, Telemetry

__all__ = [
    "telemetry_to_json",
    "render_phase_table",
    "track_events",
    "to_chrome_trace",
    "write_chrome_trace",
]


def telemetry_to_json(tel: Telemetry, spans: bool = True) -> dict:
    """The whole buffer as a JSON-able dict (machine-readable report)."""
    out = {
        "detail": tel.detail,
        "meta": {k: v for k, v in tel.meta.items()},
        "total_seconds": tel.total_seconds(),
        "phase_seconds": tel.phase_totals(),
        "phase_sum": tel.phase_sum(),
        "coverage": tel.coverage(),
        "counters": tel.counters.to_dict(),
        "derived": derived_metrics(tel),
        "nspans": len(tel.spans),
        "nevents": len(tel.events),
    }
    if spans:
        out["spans"] = [s.to_dict() for s in tel.spans]
        out["events"] = [e.to_dict() for e in tel.events]
    return out


def render_phase_table(tel: Telemetry, title: str = "") -> str:
    """Phase breakdown + achieved throughput, ready to print.

    The ``share`` column is each phase's fraction of the outermost span's
    wall-time; the residual row makes the coverage explicit (the boundary
    accounting of the executors keeps it small).
    """
    from ..analysis.report import render_table

    total = tel.total_seconds()
    totals = tel.phase_totals()
    rows = []
    for phase in totals:
        secs = totals[phase]
        if secs == 0.0 and phase not in PHASES:
            continue
        share = secs / total if total > 0 else 0.0
        rows.append([phase, f"{secs * 1e3:.3f}", f"{share:.1%}"])
    residual = max(total - tel.phase_sum(), 0.0)
    rows.append(["(unattributed)", f"{residual * 1e3:.3f}",
                 f"{residual / total:.1%}" if total > 0 else "-"])
    rows.append(["total", f"{total * 1e3:.3f}", "100.0%"])
    table = render_table(["phase", "ms", "share"], rows,
                         title=title or "phase breakdown")
    lines = [table]
    if "engine" in tel.meta:
        lines.append(
            f"engine rung         : {tel.meta['engine']} ({tel.meta['threads']} thread(s))"
        )
    derived = derived_metrics(tel)
    if derived["gpoints_per_s"] is not None:
        lines.append(
            f"achieved throughput : {derived['gpoints_per_s']:.4f} GPts/s "
            "(measured stencil time)"
        )
    if derived["gflops_per_s"] is not None:
        lines.append(f"achieved compute    : {derived['gflops_per_s']:.3f} GFLOP/s")
    if derived["intensity_flops_per_byte"] is not None:
        lines.append(
            "achieved intensity  : "
            f"{derived['intensity_flops_per_byte']:.3f} flop/byte (min-traffic model)"
        )
    caches = []
    for label, key in (
        ("kernel", "kernel_cache"), ("c", "c_cache"), ("step", "step_cache"),
        ("view", "view_cache"),
    ):
        hits = int(tel.counters.get(f"{key}_hits", 0))
        misses = int(tel.counters.get(f"{key}_misses", 0))
        if hits or misses:
            caches.append(f"{label} {hits}/{hits + misses}")
    if caches:
        lines.append("cache hits          : " + "  ".join(caches))
    return "\n".join(lines)


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def track_events(spans, events, shift_s: float, pid: int, tid: int, base_args=None) -> List[tuple]:
    """One buffer's rows as sort-keyed Chrome events on track ``(pid, tid)``.

    *spans* / *events* are :meth:`Span.to_dict` rows; *shift_s* moves their
    clock into the trace's frame; *base_args* (trace identity) is merged
    under each row's own attrs.  Every span becomes a matched ``B``/``E``
    pair, every event a thread-scoped ``i``.  Sorting the returned ``(key,
    event)`` pairs by key — ``(tid, ts, kind, extent, depth)`` — replays the
    completion-ordered rows as a valid stream: at a shared timestamp closes
    sort before opens, longer (then shallower) spans open first, shorter
    (then deeper) spans close first.  A span of no width at the trace's
    resolution would close before it opened under that rule; its pair shares
    one key instead, placed after the opens, and the stable sort keeps it
    adjacent.
    """
    base_args = base_args or {}

    def us(t: float) -> float:
        return round((t + shift_s) * 1e6, 3)

    def event(row: dict, ph: str, ts: float) -> dict:
        ev = {"name": row["name"], "cat": row.get("phase") or "structural"}
        if ph == "i":
            ev.update(ph=ph, ts=ts, pid=pid, tid=tid, s="t")  # thread-scoped instant
        else:
            ev.update(pid=pid, tid=tid, ph=ph, ts=ts)
        if ph != "E":
            args = {**base_args, **{k: _jsonable(v) for k, v in row.get("attrs", {}).items()}}
            if args:
                ev["args"] = args
        return ev

    keyed: List[tuple] = []
    for s in spans:
        start, end = us(s["start"]), us(s["start"] + s["dur"])
        dur, depth = s["dur"], s.get("depth", 0)
        if end > start:
            open_key, close_key = (tid, start, 1, -dur, depth), (tid, end, 0, dur, -depth)
        else:
            open_key = close_key = (tid, start, 1, 0.0, depth)
        keyed.append((open_key, event(s, "B", start)))
        keyed.append((close_key, event(s, "E", end)))
    for ev in events:
        ts = us(ev["start"])
        keyed.append(((tid, ts, 2, 0.0, 0), event(ev, "i", ts)))
    return keyed


#: member order of the single-run file's events, which differs from the
#: batch trace's; restored so the file stays byte-identical
_SINGLE_RUN_KEYS = ("name", "cat", "ph", "ts", "pid", "tid", "args", "s")


def to_chrome_trace(tel: Telemetry) -> dict:
    """Spans and events as Chrome ``trace_event`` JSON (Perfetto-loadable):
    one track, timestamps in microseconds since the trace epoch."""
    keyed = track_events(
        [s.to_dict() for s in tel.spans], [e.to_dict() for e in tel.events],
        -(tel.epoch or 0.0), pid=1, tid=1,
    )
    keyed.sort(key=lambda kv: kv[0])
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "repro run"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": str(tel.meta.get("schedule", {}).get("kind", "executor"))
                  if isinstance(tel.meta.get("schedule"), dict) else "executor"}},
    ]
    trace_events.extend(
        {k: ev[k] for k in _SINGLE_RUN_KEYS if k in ev} for _, ev in keyed
    )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(tel: Telemetry, path) -> None:
    """Serialise :func:`to_chrome_trace` to *path* (open it in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tel), fh)
        fh.write("\n")
