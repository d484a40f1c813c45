"""Metrics registry: instrument semantics, the family catalogue's
self-check, exposition format, snapshot schema, the HTTP endpoint, and the
phase accountant's exclusivity."""

from __future__ import annotations

import json
import math
import re
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.telemetry.metrics import (
    CATALOGUE,
    DEFAULT_BUCKETS,
    SNAPSHOT_VERSION,
    MetricsRegistry,
    MetricsServer,
    PhaseAccountant,
    validate_exposition,
)


# -- instruments -------------------------------------------------------------------------
def test_counter_monotonic_and_labelled():
    reg = MetricsRegistry()
    c = reg.counter("things_total", "things", ("kind",))
    c.inc(kind="a")
    c.inc(2.5, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 3.5
    assert c.value(kind="b") == 1.0
    assert c.value(kind="never") == 0.0
    with pytest.raises(ValueError):
        c.inc(-1, kind="a")


def test_label_set_is_enforced():
    reg = MetricsRegistry()
    c = reg.counter("x_total", "", ("lane",))
    with pytest.raises(ValueError):
        c.inc()  # missing the declared label
    with pytest.raises(ValueError):
        c.inc(lane="a", tenant="t")  # undeclared label


def test_gauge_set_inc_dec_remove():
    reg = MetricsRegistry()
    g = reg.gauge("depth", "", ("lane",))
    g.set(3, lane="batch")
    g.set(2, lane="batch")
    assert g.value(lane="batch") == 2.0
    assert g.value(lane="bulk") == 0.0


def test_histogram_buckets_sum_count_quantile():
    reg = MetricsRegistry()
    h = reg.histogram("lat", "", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.count() == 4
    assert h.sum() == pytest.approx(6.05)
    # p50 falls in the (0.1, 1.0] bucket
    q = h.quantile(0.5)
    assert 0.1 <= q <= 1.0
    assert h.quantile(0.0) == pytest.approx(0.0, abs=0.1)


def test_histogram_overflow_saturates_to_last_edge():
    reg = MetricsRegistry()
    h = reg.histogram("lat2", "", buckets=(0.1, 1.0))
    h.observe(50.0)
    assert h.quantile(0.99) == 1.0


def test_histogram_empty_quantile_is_none():
    reg = MetricsRegistry()
    h = reg.histogram("lat3", "")
    assert h.quantile(0.5) is None


def test_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a_total") is reg.counter("a_total")
    with pytest.raises(ValueError):
        reg.gauge("a_total")  # same name, different kind
    with pytest.raises(ValueError):
        reg.counter("a_total", labelnames=("x",))  # different labels


def test_invalid_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("ok_total", labelnames=("bad-label",))


# -- export ------------------------------------------------------------------------------
def test_snapshot_is_versioned_and_json_roundtrips():
    reg = MetricsRegistry()
    reg.counter("jobs_total", "jobs", ("lane",)).inc(lane="batch")
    reg.histogram("lat", "latency").observe(0.2)
    snap = reg.snapshot()
    assert snap["version"] == SNAPSHOT_VERSION
    assert snap["namespace"] == "repro"
    snap2 = json.loads(json.dumps(snap))
    fam = snap2["metrics"]["repro_jobs_total"]
    assert fam["type"] == "counter"
    assert fam["series"][0] == {"labels": {"lane": "batch"}, "value": 1.0}
    hist = snap2["metrics"]["repro_lat"]["series"][0]
    assert hist["count"] == 1
    assert hist["buckets"]["+Inf"] == 1  # cumulative


def test_exposition_is_valid_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("jobs_total", "total jobs", ("lane",)).inc(lane="batch")
    reg.gauge("depth", "queue depth").set(3)
    reg.histogram("lat", "latency", ("outcome",)).observe(0.01, outcome="ok")
    text = reg.exposition()
    families = validate_exposition(text)
    assert families["repro_jobs_total"]["type"] == "counter"
    assert families["repro_lat"]["type"] == "histogram"
    # histogram renders one bucket line per edge plus +Inf, sum, count
    assert families["repro_lat"]["samples"] == len(DEFAULT_BUCKETS) + 1 + 2
    assert 'lane="batch"' in text


def test_validate_exposition_rejects_malformations():
    with pytest.raises(ValueError):
        validate_exposition("repro_x 1\n")  # sample without TYPE
    with pytest.raises(ValueError):
        validate_exposition("# TYPE repro_x wat\nrepro_x 1\n")
    good = "# TYPE x histogram\n"
    with pytest.raises(ValueError):  # histogram without +Inf
        validate_exposition(good + 'x_bucket{le="1"} 1\nx_sum 1\nx_count 1\n')
    with pytest.raises(ValueError):  # cumulative counts decrease
        validate_exposition(
            good + 'x_bucket{le="1"} 2\nx_bucket{le="+Inf"} 1\nx_sum 1\nx_count 1\n'
        )


def test_exposition_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("esc_total", "", ("msg",)).inc(msg='he said "hi"\nbye')
    validate_exposition(reg.exposition())  # must still parse


def test_write_json_atomic(tmp_path):
    reg = MetricsRegistry()
    reg.counter("hits_total", "hits").inc()
    path = tmp_path / "m.json"
    path.write_text("an older snapshot")
    reg.write_json(path, extra={"a": 1})
    snap = json.loads(path.read_text())
    assert snap["a"] == 1 and snap["version"] == SNAPSHOT_VERSION
    assert "repro_hits_total" in snap["metrics"]
    assert not (tmp_path / "m.json.tmp").exists()


# -- HTTP endpoint -----------------------------------------------------------------------
def test_metrics_server_serves_exposition_snapshot_and_health():
    reg = MetricsRegistry()
    reg.counter("hits_total", "hits").inc()
    with MetricsServer(reg, port=0) as server:
        assert server.port > 0
        text = urllib.request.urlopen(f"{server.url}/metrics").read().decode()
        families = validate_exposition(text)
        assert families["repro_hits_total"]["samples"] == 1
        snap = json.loads(
            urllib.request.urlopen(f"{server.url}/metrics.json").read()
        )
        assert snap["version"] == SNAPSHOT_VERSION
        ok = urllib.request.urlopen(f"{server.url}/healthz").read()
        assert ok == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{server.url}/nope")


def test_metrics_server_scrape_while_recording():
    """The server thread scrapes concurrently with a writer without
    torn/invalid exposition output."""
    reg = MetricsRegistry()
    c = reg.counter("spin_total", "")
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            c.inc()

    t = threading.Thread(target=writer)
    t.start()
    try:
        with MetricsServer(reg, port=0) as server:
            for _ in range(10):
                text = urllib.request.urlopen(f"{server.url}/metrics").read()
                validate_exposition(text.decode())
    finally:
        stop.set()
        t.join()


# -- the family catalogue ----------------------------------------------------------------
def test_instrument_creates_exactly_what_the_catalogue_declares():
    reg = MetricsRegistry()
    for family, (kind, labels, _reader, doc) in CATALOGUE.items():
        metric = reg.instrument(family)
        assert (metric.kind, metric.labelnames, metric.help) == (kind, labels, doc)
        assert metric is reg.instrument(family)  # get-or-create
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
