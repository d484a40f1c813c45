"""Exporters: JSON, human-readable phase table, Chrome-trace/Perfetto.

Three views of one :class:`~repro.telemetry.spans.Telemetry` buffer:

* :func:`telemetry_to_json` — everything (phases, counters, derived metrics,
  spans, events) as one JSON-able dict; this is what ``repro.profile --json``
  prints and what ``bench_engine.py --telemetry`` folds into
  ``BENCH_engine.json``.
* :func:`render_phase_table` — the per-phase breakdown as a fixed-width
  table (via :func:`repro.analysis.report.render_table`) with the achieved
  GPts/s row joined in from the measured sweep time.
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the
  ``trace_event`` format Perfetto (https://ui.perfetto.dev) and Chrome's
  ``about:tracing`` load: matched ``B``/``E`` duration events per span,
  microsecond timestamps relative to the trace epoch, instantaneous ``i``
  events for checkpoint/fallback marks.  Load the file in Perfetto to see
  the tile/sweep timeline of a wavefront run.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .counters import derived_metrics
from .spans import PHASES, Span, Telemetry

__all__ = [
    "telemetry_to_json",
    "render_phase_table",
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
    from ..analysis.metrics import achieved_gpoints_per_s
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
        lines.append(f"engine rung         : {tel.meta['engine']}")
    gpts = achieved_gpoints_per_s(tel)
    if gpts is not None:
        lines.append(f"achieved throughput : {gpts:.4f} GPts/s (measured stencil time)")
    derived = derived_metrics(tel)
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


def _event(span: Span, ph: str, ts: float, pid: int = 1, tid: int = 1) -> dict:
    ev = {
        "name": span.name,
        "cat": span.phase or "structural",
        "ph": ph,
        "ts": ts,
        "pid": pid,
        "tid": tid,
    }
    if ph in ("B", "i") and span.attrs:
        ev["args"] = {k: _jsonable(v) for k, v in span.attrs.items()}
    if ph == "i":
        ev["s"] = "t"  # thread-scoped instant
    return ev


def _jsonable(v):
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def to_chrome_trace(tel: Telemetry) -> dict:
    """Spans and events as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Every span becomes a matched ``B``/``E`` pair; timestamps are
    microseconds since the trace epoch.  The single-threaded executors
    guarantee proper nesting, so sorting by ``(ts, kind, extent)`` — closes
    before opens at a shared boundary, longer spans opening first, shorter
    spans closing first — reconstructs a valid event stream from the
    completion-ordered span list.
    """
    epoch = tel.epoch if tel.epoch is not None else 0.0

    def us(t: float) -> float:
        return round((t - epoch) * 1e6, 3)

    keyed: List[tuple] = []
    for span in tel.spans:
        # sort kind: E=0 before B=1 at equal ts; among Bs longer first
        # (parents open before children), among Es shorter first (children
        # close before parents)
        keyed.append(((us(span.end), 0, span.dur), _event(span, "E", us(span.end))))
        keyed.append(((us(span.start), 1, -span.dur), _event(span, "B", us(span.start))))
    for ev in tel.events:
        keyed.append(((us(ev.start), 2, 0.0), _event(ev, "i", us(ev.start))))
    keyed.sort(key=lambda kv: kv[0])
    trace_events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "repro run"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": str(tel.meta.get("schedule", {}).get("kind", "executor"))
                  if isinstance(tel.meta.get("schedule"), dict) else "executor"}},
    ]
    trace_events.extend(ev for _, ev in keyed)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(tel: Telemetry, path) -> None:
    """Serialise :func:`to_chrome_trace` to *path* (open it in Perfetto)."""
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(tel), fh)
        fh.write("\n")
