"""Exporter integrity: JSON report, phase table, Chrome-trace round-trip."""

from __future__ import annotations

import json

from repro.core import WavefrontSchedule
from repro.telemetry import (
    Telemetry,
    render_phase_table,
    telemetry_to_json,
    to_chrome_trace,
    write_chrome_trace,
)

from ..conftest import make_acoustic_operator

NT = 8


def _traced_run(grid):
    op, u, m, src, rec = make_acoustic_operator(grid, nt=NT)
    tel = Telemetry(detail="trace")
    op.apply(
        time_M=NT, dt=0.4,
        schedule=WavefrontSchedule(tile=(6, 6), height=2),
        telemetry=tel,
    )
    return tel


def test_telemetry_to_json_roundtrips(grid3d):
    tel = _traced_run(grid3d)
    report = telemetry_to_json(tel)
    encoded = json.dumps(report)  # must be JSON-able as-is
    decoded = json.loads(encoded)
    assert decoded["detail"] == "trace"
    assert decoded["meta"]["operator"] == "acoustic-test"
    assert decoded["phase_seconds"]["stencil"] > 0
    assert decoded["counters"]["points_updated"] > 0
    assert decoded["total_seconds"] > 0
    assert len(decoded["spans"]) == len(tel.spans)
    # spans=False strips the bulky part but keeps the aggregates
    slim = telemetry_to_json(tel, spans=False)
    assert "spans" not in json.loads(json.dumps(slim))
    assert slim["phase_seconds"] == report["phase_seconds"]


def test_phase_table_contents(grid3d):
    tel = _traced_run(grid3d)
    table = render_phase_table(tel, title="unit-test run")
    assert "unit-test run" in table
    for phase in ("stencil", "injection", "receivers", "precompute"):
        assert phase in table
    assert "GPts/s" in table  # achieved throughput is rendered in the table
    assert "(unattributed)" in table and "total" in table


def test_chrome_trace_well_formed(grid3d, tmp_path):
    tel = _traced_run(grid3d)
    path = tmp_path / "trace.json"
    write_chrome_trace(tel, path)
    doc = json.loads(path.read_text())
    assert doc == to_chrome_trace(tel)  # file is the exact serialisation
    assert doc.get("displayTimeUnit") == "ms"
    events = doc["traceEvents"]
    assert events

    # timeline events: monotonically non-decreasing timestamps, all relative
    # to the run epoch (no absolute perf_counter leakage)
    timeline = [e for e in events if e["ph"] in ("B", "E", "i", "I", "X")]
    ts = [e["ts"] for e in timeline]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)

    # every B has a matching E at the same nesting level (stack replay)
    stack = []
    for e in timeline:
        if e["ph"] == "B":
            stack.append(e["name"])
        elif e["ph"] == "E":
            assert stack, f"E event without open B: {e}"
            stack.pop()
    assert stack == [], f"unclosed B events: {stack}"

    # the span tree made it across: apply, run, tiles and sweep instances
    names = {e["name"] for e in timeline if e["ph"] == "B"}
    assert "apply" in names and "run" in names and "tile" in names
    assert any(n.startswith("sweep") for n in names)


def test_chrome_trace_empty_telemetry_still_valid(tmp_path):
    tel = Telemetry()
    path = tmp_path / "empty.json"
    write_chrome_trace(tel, path)
    doc = json.loads(path.read_text())
    timeline = [e for e in doc["traceEvents"] if e["ph"] in ("B", "E")]
    assert timeline == []
