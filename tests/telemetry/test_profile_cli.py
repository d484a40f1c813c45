"""The ``python -m repro.profile`` CLI: exit codes, table output, trace and
JSON modes."""

from __future__ import annotations

import json

import pytest

from repro.profile import main, profile_example


def test_quickstart_phase_table(capsys):
    assert main(["quickstart", "--nt", "6"]) == 0
    out = capsys.readouterr().out
    assert "quickstart (wavefront, nt=6)" in out
    assert "stencil" in out and "precompute" in out
    assert "GPts/s" in out


def test_naive_schedule_flag(capsys):
    assert main(["acoustic", "--schedule", "naive", "--nt", "4"]) == 0
    out = capsys.readouterr().out
    assert "acoustic (naive, nt=4)" in out


def test_bound_rung_is_printed(capsys):
    """The rung decision is the system's, so the profile says which bound."""
    assert main(["quickstart", "--nt", "4", "--engine", "fused"]) == 0
    assert "engine rung         : fused" in capsys.readouterr().out
    assert main(["quickstart", "--nt", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["engine"] in ("c", "fused")  # fused: no compiler on PATH
    assert "c_cache_hits" in doc["counters"] and "c_compile_s" in doc["meta"]


def test_json_output_parses(capsys):
    assert main(["quickstart", "--nt", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["schedule"]["kind"] == "wavefront"
    assert doc["phase_seconds"]["stencil"] > 0
    assert doc["counters"]["points_updated"] > 0
    assert "spans" not in doc


def test_trace_file_is_valid_chrome_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["quickstart", "--nt", "4", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "ui.perfetto.dev" in out
    doc = json.loads(trace.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] in ("B", "E")]
    assert events, "trace mode must record spans"
    assert len([e for e in events if e["ph"] == "B"]) == \
        len([e for e in events if e["ph"] == "E"])


def test_unknown_example_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code != 0


def test_profile_example_returns_buffer():
    tel = profile_example("quickstart", schedule="spatial", nt=4)
    assert tel.detail == "phase"
    assert tel.root_span().name in ("forward", "apply")
    assert tel.counters["instances"] > 0
