"""``python -m repro.verify``: exit codes, JSON envelope, warning baseline."""

import json
from types import SimpleNamespace

import pytest

import repro.verify.__main__ as cli
from repro.core.scheduler import SCHEDULES


def test_single_example_human_output(capsys):
    assert cli.main(["acoustic"]) == 0
    out = capsys.readouterr().out
    assert "acoustic: OK" in out
    assert "bounds [acoustic]" in out
    assert "scratch: slab-safe=True" in out
    assert "analyzer" in out


def test_requires_example_or_all(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


def test_json_envelope_schema(capsys):
    assert cli.main(["acoustic", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == cli.JSON_SCHEMA_VERSION
    assert data["tool"] == "repro.verify"
    entry = data["results"]["acoustic"]
    assert entry["ok"] is True
    assert entry["analyzer_seconds"] > 0
    # one halo certificate per example: it holds under every schedule
    assert entry["bounds"]["safe"] is True and entry["bounds"]["operator"]
    assert not {"schedule", "sparse_mode", "params"} & set(entry["bounds"])
    # one legality certificate per schedule of the shared CLI sweep
    assert set(entry["certificates"]) == set(SCHEDULES)
    assert entry["lint"]["errors"] == 0
    # scratch analysis travels with the lint report
    assert entry["lint"]["scratch"]["safe_for_slab"] is True


def test_json_output_is_sorted(capsys):
    assert cli.main(["acoustic", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert json.dumps(data, indent=2, sort_keys=True) == out.rstrip("\n")


# -- baseline regression logic ---------------------------------------------------


def _payload(*warnings):
    return {
        "version": 1,
        "tool": "repro.verify",
        "results": {
            "demo": {
                "lint": {
                    "diagnostics": [
                        {
                            "severity": "warning",
                            "code": code,
                            "sweep": sweep,
                            "statement": stmt,
                        }
                        for code, sweep, stmt in warnings
                    ]
                }
            }
        },
    }


def test_warning_keys_are_stable_identities():
    payload = _payload(("W201", 0, "eq"), ("W302", 1, "dead"))
    keys = cli._warning_keys(payload)
    assert keys == {
        ("demo", "W201", 0, "eq"),
        ("demo", "W302", 1, "dead"),
    }
    # errors are gated directly via "ok", never via the baseline
    payload["results"]["demo"]["lint"]["diagnostics"].append(
        {"severity": "error", "code": "E101", "sweep": 0, "statement": "x"}
    )
    assert cli._warning_keys(payload) == keys


def test_missing_baseline_warns_but_passes(capsys):
    assert cli.main(["acoustic", "--json", "--baseline", "/nonexistent.json"]) == 0
    err = capsys.readouterr().err
    assert "not found" in err


def test_new_warning_vs_baseline_fails(tmp_path, capsys, monkeypatch):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_payload()))  # committed: zero warnings

    def fake_verify(kind):
        entry = _payload(("W201", 0, "eq"))["results"]["demo"]
        entry.update({"bounds": {}, "analyzer_seconds": 0.0, "ok": True})
        return SimpleNamespace(ok=True, to_dict=lambda: entry)

    monkeypatch.setattr(cli, "verify_example", fake_verify)
    monkeypatch.setattr(cli, "EXAMPLES", ("demo",))
    assert cli.main(["--all", "--json", "--baseline", str(baseline)]) == 1
    captured = capsys.readouterr()
    assert "new warning vs baseline" in captured.err


def test_known_warning_in_baseline_passes(tmp_path, capsys, monkeypatch):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_payload(("W201", 0, "eq"))))

    def fake_verify(kind):
        entry = _payload(("W201", 0, "eq"))["results"]["demo"]
        entry.update({"bounds": {}, "analyzer_seconds": 0.0, "ok": True})
        return SimpleNamespace(ok=True, to_dict=lambda: entry)

    monkeypatch.setattr(cli, "verify_example", fake_verify)
    monkeypatch.setattr(cli, "EXAMPLES", ("demo",))
    assert cli.main(["--all", "--json", "--baseline", str(baseline)]) == 0
    # a *fixed* warning must not fail either: the baseline is an upper bound
    baseline.write_text(
        json.dumps(_payload(("W201", 0, "eq"), ("W302", 1, "dead")))
    )
    assert cli.main(["--all", "--json", "--baseline", str(baseline)]) == 0


def test_committed_baseline_matches_current_tree(capsys):
    """The repo's checked-in verify_baseline.json gates CI: the current tree
    must pass against it."""
    from pathlib import Path

    repo_baseline = Path(__file__).resolve().parents[2] / "verify_baseline.json"
    assert repo_baseline.exists()
    assert cli.main(["--all", "--json", "--baseline", str(repo_baseline)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["results"]) == {"acoustic", "tti", "elastic"}
    for entry in data["results"].values():
        assert entry["ok"] is True


def test_illegal_schedule_fails_and_is_reported(capsys, monkeypatch):
    """A refuted legality proof is a finding like any other: recorded in the
    example's ``certificates`` entry, printed, exit code 1."""
    from repro.errors import ScheduleLegalityError
    from repro.ir.operator import Operator

    proved = Operator.certificate_for

    def refuse_wavefront(self, schedule=None, sparse_mode="auto"):
        if schedule.kind == "wavefront":
            raise ScheduleLegalityError("synthetic: edge violates the skew")
        return proved(self, schedule, sparse_mode)

    monkeypatch.setattr(Operator, "certificate_for", refuse_wavefront)
    entry = cli.verify_example("acoustic").to_dict()
    assert entry["ok"] is False
    assert entry["certificates"]["wavefront"] == {
        "legal": False, "error": "synthetic: edge violates the skew",
    }
    assert entry["certificates"]["naive"]["legal"] is True
    assert cli.main(["acoustic"]) == 1
    assert "certificate[wavefront]: ILLEGAL — synthetic" in capsys.readouterr().out


def test_bounds_certificates_do_not_depend_on_the_hash_seed():
    """The halo certificate walks each statement's reads in one order: two
    processes with different ``PYTHONHASHSEED`` print the same ``checks`` and
    ``counterexample`` for every example."""
    import os
    import subprocess
    import sys

    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.verify", "--all", "--json"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        out.append({
            name: (r["bounds"]["checks"], r["bounds"]["counterexample"])
            for name, r in results.items()
        })
    assert out[0] == out[1] and len(out[0]) == 3
