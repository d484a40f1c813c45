"""Metrics registry: instrument semantics on catalogue families, the family
catalogue's self-check, the snapshot schema, and the phase accountant's
exclusivity."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from repro.telemetry.metrics import (
    CATALOGUE,
    DEFAULT_BUCKETS,
    SNAPSHOT_VERSION,
    MetricsRegistry,
    PhaseAccountant,
)


# -- instruments -------------------------------------------------------------------------
def test_counter_monotonic_and_labelled():
    c = MetricsRegistry().instrument("jobs_retried_total")
    c.inc()
    c.inc(2.5)
    assert c.value() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_label_set_is_enforced():
    c = MetricsRegistry().instrument("jobs_terminal_total")
    c.inc(status="completed")
    assert c.value(status="completed") == 1.0
    assert c.value(status="timeout") == 0.0
    with pytest.raises(ValueError):
        c.inc()  # missing a declared label
    with pytest.raises(ValueError):
        c.inc(status="completed", job="j0")  # undeclared label


def test_gauge_set_inc_dec_remove():
    g = MetricsRegistry().instrument("supervisor_seconds")
    g.set(1, bucket="journal")
    g.set(2, bucket="journal")
    assert g.value(bucket="journal") == 2.0
    assert g.value(bucket="dispatch") == 0.0


def test_histogram_buckets_sum_count_quantile():
    h = MetricsRegistry().instrument("attempt_seconds")
    assert h.buckets == DEFAULT_BUCKETS
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v, outcome="completed")
    assert h.count(outcome="completed") == 4
    assert h.sum(outcome="completed") == pytest.approx(6.05)
    # p50 falls in the (0.25, 0.5] bucket
    q = h.quantile(0.5, outcome="completed")
    assert 0.25 <= q <= 0.5
    assert h.quantile(0.0, outcome="completed") == pytest.approx(0.0, abs=0.05)
    assert h.count(outcome="crash") == 0


def test_histogram_overflow_saturates_to_last_edge():
    h = MetricsRegistry().instrument("attempt_seconds")
    h.observe(500.0, outcome="hang")
    assert h.quantile(0.99, outcome="hang") == 60.0


def test_histogram_empty_quantile_is_none():
    h = MetricsRegistry().instrument("attempt_seconds")
    assert h.quantile(0.5, outcome="completed") is None


# -- export ------------------------------------------------------------------------------
def test_snapshot_is_versioned_and_json_roundtrips():
    reg = MetricsRegistry()
    reg.instrument("jobs_terminal_total").inc(status="completed")
    reg.instrument("attempt_seconds").observe(0.2, outcome="completed")
    snap = reg.snapshot()
    assert snap["version"] == SNAPSHOT_VERSION
    assert snap["namespace"] == "repro"
    snap2 = json.loads(json.dumps(snap))
    assert set(snap2["metrics"]) == {f"repro_{family}" for family in CATALOGUE}
    fam = snap2["metrics"]["repro_jobs_terminal_total"]
    assert fam["type"] == "counter"
    assert fam["labelnames"] == ["status"]
    assert fam["series"] == [{"labels": {"status": "completed"}, "value": 1.0}]
    hist = snap2["metrics"]["repro_attempt_seconds"]["series"][0]
    assert hist["labels"] == {"outcome": "completed"}
    assert hist["count"] == 1 and hist["sum"] == 0.2
    assert hist["buckets"]["0.1"] == 0 and hist["buckets"]["0.25"] == 1
    assert hist["buckets"]["+Inf"] == 1  # cumulative
    assert snap2["metrics"]["repro_workers_busy"]["series"] == []  # nothing set


def test_write_json_atomic(tmp_path):
    reg = MetricsRegistry()
    reg.instrument("jobs_retried_total").inc()
    path = tmp_path / "m.json"
    path.write_text("an older snapshot")
    reg.write_json(path, extra={"a": 1})
    snap = json.loads(path.read_text())
    assert snap["a"] == 1 and snap["version"] == SNAPSHOT_VERSION
    assert snap["metrics"]["repro_jobs_retried_total"]["series"] == [
        {"labels": {}, "value": 1.0}
    ]
    assert not (tmp_path / "m.json.tmp").exists()


# -- the family catalogue ----------------------------------------------------------------
def test_instrument_creates_exactly_what_the_catalogue_declares():
    reg = MetricsRegistry()
    for family, (kind, labels, _reader, doc) in CATALOGUE.items():
        metric = reg.instrument(family)
        assert (metric.name, metric.kind, metric.labelnames, metric.help) == (
            f"repro_{family}", kind, labels, doc
        )
        assert metric is reg.instrument(family)  # a lookup, not a new instrument
    with pytest.raises(KeyError):
        reg.instrument("retries_total")  # deleted: nobody read it


def test_every_catalogue_family_has_its_reader_and_its_design_row():
    """A family is catalogued with who reads it, and the claim is checked:
    ``status`` means ``jobs status`` renders it, ``test`` that a tier-1 test
    asserts its value against the batch report.  DESIGN.md §7's family table
    is the catalogue, row for row."""
    root = Path(__file__).resolve().parents[2]
    readers = {
        "status": (root / "src/repro/jobs/status.py").read_text(),
        "test": "".join(
            path.read_text()
            for path in sorted((root / "tests" / "jobs").glob("test_*.py"))
        ),
    }
    design = (root / "DESIGN.md").read_text()
    section = design[design.index("### Batch-wide tracing & metrics"):]
    rows = {
        m.group(1): (m.group(2), m.group(3), m.group(4))
        for m in re.finditer(
            r"^\| `repro_(\w+)` \| (\w+) \| ([^|]*?) \| (\w+) \|", section, re.M
        )
    }
    assert set(rows) == set(CATALOGUE)
    for family, (kind, labels, reader, doc) in CATALOGUE.items():
        assert doc, family
        assert f'"repro_{family}"' in readers[reader], (family, reader)
        listed = ", ".join(f"`{name}`" for name in labels) or "—"
        assert rows[family] == (kind, listed, reader), family


# -- phase accounting --------------------------------------------------------------------
def test_phase_accountant_exclusive_nesting():
    clock = iter(range(100))
    acct = PhaseAccountant(clock=lambda: float(next(clock)))
    acct.push("supervise")  # t=0
    acct.push("admission")  # t=1 (supervise charged 1)
    acct.pop()              # t=2 (admission charged 1)
    with acct.phase("journal"):  # t=3..4
        pass
    acct.pop()              # t=5 (supervise charged 2+1 more)
    total = sum(acct.seconds.values())
    assert total == pytest.approx(5.0)  # covers [0, 5] exactly, no overlap
    assert acct.seconds["admission"] == pytest.approx(1.0)
    assert acct.seconds["journal"] == pytest.approx(1.0)
    assert acct.seconds["supervise"] == pytest.approx(3.0)


def test_phase_accountant_flush_keeps_stack_usable():
    clock = iter(range(100))
    acct = PhaseAccountant(clock=lambda: float(next(clock)))
    acct.push("supervise")  # t=0
    totals = acct.flush()   # t=1
    assert totals["supervise"] == pytest.approx(1.0)
    acct.pop()              # t=2
    assert acct.seconds["supervise"] == pytest.approx(2.0)
    assert not math.isnan(sum(acct.seconds.values()))
