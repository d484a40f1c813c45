"""Smoke test of the stack benchmark (``pytest benchmarks/stack``, <1 min).

Outside ``testpaths``, so tier-1 time is unchanged.  Runs the harness at its
``--quick`` size and checks the contract between ``BENCHMARK.json``, the
documents the harness writes and the result line the driver reads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_sets() -> dict:
    """One ``run.py --quick`` (which itself asserts determinism, the oracle
    self-test and a clean second seed) and the two set documents it wrote."""
    proc = subprocess.run(RUN + ["--quick", "--seed", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "quick checks passed" in proc.stdout
    out = HERE / "out"
    return {
        "end_to_end": json.loads((out / "stack-seed0x1-quick-untraced-0.json").read_text()),
        "per_layer": json.loads((out / "stack-seed0x1-quick-traced.json").read_text()),
    }


def test_benchmark_json_meets_the_contract(catalog):
    assert set(catalog) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert catalog["paths"] == ["benchmarks/stack"]
    assert isinstance(catalog["run_seconds"], int) and 1 <= catalog["run_seconds"] <= 60
    assert 2 <= len(catalog["workloads"]) <= 8
    assert 1 <= len(catalog["end_to_end"]) <= 16 and 1 <= len(catalog["per_layer"]) <= 128
    names = []
    for w in catalog["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in catalog["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
    for m in catalog["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in catalog["end_to_end"] + catalog["per_layer"]:
        assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME_RE.match(n) for n in names) and len(names) == len(set(names))
    setup = next(m for m in catalog["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # 4 + 22 x workloads runs, each a window plus set-up, inside the driver's cap
    runs = 4 + 22 * len(catalog["workloads"])
    assert runs * (catalog["run_seconds"] + 12) <= 3420


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_every_named_metric_is_emitted_with_its_unit(catalog, quick_sets, section):
    wanted = {m["name"]: m["unit"] for m in catalog[section]}
    doc = quick_sets[section]
    assert set(doc["workloads"]) == {w["name"] for w in catalog["workloads"]}
    measured = set()
    for name, entry in doc["workloads"].items():
        assert {k: v["unit"] for k, v in entry[section].items()} == wanted, name
        assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0, name
        measured |= set(wanted) - set(entry["not_applicable"])
    assert measured == set(wanted), f"measured on no workload: {sorted(set(wanted) - measured)}"
    if section == "end_to_end":  # the driver rejects metrics that read 0
        assert all(v["value"] > 0 for e in doc["workloads"].values() for v in e[section].values())


def test_result_line_is_what_the_driver_reads(catalog):
    proc = subprocess.run(
        RUN + ["--workload", "acoustic_spatial", "--seed", "7", "--seconds", "1", "--trace", "0", "--quick"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in catalog["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "stack", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload", "survey", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_compare_flags_a_regression_and_an_unresolved_spread(catalog):
    sys.path.insert(0, str(HERE))
    try:
        from compare import verdict
    finally:
        sys.path.remove(str(HERE))
    steady = [1.00, 1.01, 0.99, 1.00, 1.01]
    assert verdict(steady, [1.02, 1.03, 1.01, 1.02, 1.03], "lower", 0.10) == "ok"
    assert verdict(steady, [1.20, 1.21, 1.19, 1.20, 1.22], "lower", 0.10) == "worse"
    assert verdict(steady, [0.80, 1.25, 0.95, 1.00, 1.30], "lower", 0.10) == "unresolved"
    assert verdict([1.0], [0.85], "higher", 0.10) == "worse"
