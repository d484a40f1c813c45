"""Batch-wide metrics registry: counters, gauges, histograms — no new deps.

The per-run :class:`~repro.telemetry.spans.Telemetry` buffer answers "where
did *this run's* wall-time go"; it dies with the run.  A
:class:`MetricsRegistry` is the complementary *service-level* surface: the
supervisor-wide set of named, labelled instruments the whole ``jobs/``
service records into — exactly the families of :data:`CATALOGUE`: job
counts, attempt latencies, busy workers, … — with one
encoding, the versioned JSON snapshot (:meth:`MetricsRegistry.snapshot`,
written as ``metrics.json`` by :meth:`MetricsRegistry.write_json`) that
``python -m repro.jobs.status`` reads.

Instrument semantics follow the Prometheus conventions:

* :class:`Counter` — monotonically non-decreasing totals (``*_total``);
* :class:`Gauge` — a value that goes both ways (busy workers, phase seconds);
* :class:`Histogram` — fixed-bucket observation counts with ``sum`` and
  ``count``; :func:`histogram_quantile` estimates quantiles by linear
  interpolation inside the bucket the rank falls in (exactly what a
  Prometheus ``histogram_quantile`` would do server-side), from a live
  instrument and from a snapshot alike.

Labels are declared per family (``labelnames``) and passed by keyword at
record time; each distinct label-value combination is one time series.
Every series is guarded by one registry lock.

:class:`PhaseAccountant` is the supervisor-side analogue of the executors'
boundary-to-boundary phase accounting: a stack of *exclusive* wall-time
buckets (``admission``/``journal``/``dispatch``/``execute``/``idle``/
``drain`` under a ``supervise`` root) where entering an inner bucket pauses
the outer one — the bucket sum covers the supervised interval exactly,
which is what lets ``BatchReport.phase_totals`` reconcile batch wall time.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SNAPSHOT_VERSION",
    "NAMESPACE",
    "DEFAULT_BUCKETS",
    "CATALOGUE",
    "Counter",
    "Gauge",
    "Histogram",
    "histogram_quantile",
    "MetricsRegistry",
    "PhaseAccountant",
]

#: version stamp of the JSON snapshot schema (bump on breaking change)
SNAPSHOT_VERSION = 1

#: prefix of every family's name in the snapshot (``jobs_completed_total``
#: → ``repro_jobs_completed_total``)
NAMESPACE = "repro"

#: latency buckets (seconds) of every histogram — spans pipe dispatches
#: (~100us) to multi-second attempts, the service's whole dynamic range
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: The one place metric families are declared: ``family -> (kind, labels,
#: reader, help)``.  :class:`MetricsRegistry` creates every entry, the
#: transition effects of :mod:`repro.jobs.transitions` are checked against it
#: at import, and DESIGN.md §7's family table is checked against it by
#: ``tests/telemetry/test_metrics.py``.  *reader* names who consumes the
#: family — ``"status"`` (``python -m repro.jobs.status`` renders it) or
#: ``"test"`` (a tier-1 test asserts its value against the batch report) —
#: and the same test holds every entry to its claim: a family nobody reads
#: is deleted, not catalogued.
CATALOGUE: Dict[str, Tuple[str, Tuple[str, ...], str, str]] = {
    "jobs_admitted_total": (
        "counter", (), "test", "jobs admitted into the batch"),
    "jobs_completed_total": (
        "counter", (), "test", "jobs that reached completed"),
    "jobs_terminal_total": (
        "counter", ("status",), "test", "jobs per terminal status"),
    "jobs_retried_total": (
        "counter", (), "status", "attempt retries scheduled"),
    "attempt_seconds": (
        "histogram", ("outcome",), "status", "attempt latency per outcome"),
    "workers_busy": (
        "gauge", (), "test", "daemons with a job in flight"),
    "workers_spawned_total": (
        "counter", (), "test", "daemons preforked (initial + replacements)"),
    "supervisor_seconds": (
        "gauge", ("bucket",), "status", "exclusive supervisor wall-time per bucket"),
    "sdc_detections_total": (
        "counter", ("detector",), "status", "silent-data-corruption detections"),
    "sdc_recoveries_total": (
        "counter", (), "status",
        "attempts that recovered in-run from silent corruption"),
    "sdc_tiles_reexecuted_total": (
        "counter", (), "status",
        "containment units re-executed after an ABFT violation"),
    "storage_degraded_total": (
        "counter", (), "test",
        "batches degraded by ENOSPC on the journal/checkpoint path"),
    "jobs_points_updated_total": (
        "counter", (), "status", "grid points updated by completed attempts"),
    "jobs_stencil_seconds_total": (
        "counter", (), "status", "stencil seconds of completed attempts"),
}


class _Metric:
    """Shared series bookkeeping of one named instrument."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str], lock):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = lock
        #: label-value tuple -> series state (float, or histogram dict)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: dict) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"declared {sorted(self.labelnames)}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def series_labels(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))


class Counter(_Metric):
    """Monotonically non-decreasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Gauge(_Metric):
    """A value that can go up and down (depth, occupancy, age)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(self._key(labels), 0.0))


class Histogram(_Metric):
    """Fixed-bucket observation histogram with sum/count and quantiles."""

    kind = "histogram"
    buckets = DEFAULT_BUCKETS  # +Inf is implicit

    def _blank(self) -> dict:
        return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        v = float(value)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = self._series[key] = self._blank()
            idx = len(self.buckets)
            for i, edge in enumerate(self.buckets):
                if v <= edge:
                    idx = i
                    break
            state["counts"][idx] += 1
            state["sum"] += v
            state["count"] += 1

    def count(self, **labels) -> int:
        with self._lock:
            state = self._series.get(self._key(labels))
            return int(state["count"]) if state else 0

    def sum(self, **labels) -> float:
        with self._lock:
            state = self._series.get(self._key(labels))
            return float(state["sum"]) if state else 0.0

    def quantile(self, q: float, **labels) -> Optional[float]:
        """:func:`histogram_quantile` of one series — None with no
        observations."""
        with self._lock:
            state = self._series.get(self._key(labels))
            counts = list(state["counts"]) if state else []
        return histogram_quantile(
            list(zip([*self.buckets, math.inf], itertools.accumulate(counts))), q
        )


def histogram_quantile(cumulative: Sequence[Tuple[float, float]], q: float) -> Optional[float]:
    """Estimated *q*-quantile (0..1) of a fixed-bucket histogram given as
    ascending ``(upper edge, cumulative count)`` pairs ending at ``+Inf`` —
    the shape of a live :class:`Histogram` and of a snapshot's ``buckets``
    alike.  Linear interpolation inside the bucket the rank lands in (what a
    Prometheus ``histogram_quantile`` does server-side); a rank in the
    overflow bucket reports the last finite edge; None with no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = cumulative[-1][1] if cumulative else 0
    if not total:
        return None
    rank = q * total
    lo, below = 0.0, 0
    for edge, cum in cumulative:
        if cum > below and cum >= rank:
            if edge == math.inf:  # overflow bucket: saturate
                break
            frac = (rank - below) / (cum - below)
            return lo + (edge - lo) * min(1.0, max(0.0, frac))
        lo, below = edge, cum
    return lo


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Every :data:`CATALOGUE` family, created once and named
    ``repro_<family>`` (:data:`NAMESPACE`)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {
            family: _KINDS[kind](f"{NAMESPACE}_{family}", doc, labels, self._lock)
            for family, (kind, labels, _reader, doc) in CATALOGUE.items()
        }

    def instrument(self, family: str) -> _Metric:
        """The instrument of *family* (``KeyError`` for an undeclared one)."""
        return self._metrics[family]

    # -- export --------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Versioned JSON-able snapshot of every series."""
        metrics = {}
        for metric in self._metrics.values():
            with self._lock:
                series_items = list(metric._series.items())
            series = []
            for key, state in sorted(series_items):
                entry: dict = {"labels": metric.series_labels(key)}
                if metric.kind == "histogram":
                    edges = [*metric.buckets, math.inf]
                    cumulative = 0
                    bucket_counts = {}
                    for edge, c in zip(edges, state["counts"]):
                        cumulative += c
                        bucket_counts["+Inf" if edge == math.inf else repr(edge)] = cumulative
                    entry.update(
                        buckets=bucket_counts,
                        sum=state["sum"],
                        count=state["count"],
                    )
                else:
                    entry["value"] = state
                series.append(entry)
            metrics[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": series,
            }
        return {
            "version": SNAPSHOT_VERSION,
            "namespace": NAMESPACE,
            "generated_unix": time.time(),
            "metrics": metrics,
        }

    def write_json(self, path, extra: Optional[dict] = None) -> None:
        """Atomically write the snapshot (plus *extra* top-level keys) — a
        reader never sees a torn one; not fsynced, it is not recovery state."""
        from ..runtime.integrity import atomic_write

        payload = self.snapshot()
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True) + "\n"
        atomic_write(path, lambda fh: fh.write(text.encode()), fsync=False)


# -- supervisor phase accounting --------------------------------------------------------


class PhaseAccountant:
    """Exclusive wall-time buckets with pause-on-nest semantics.

    ``push("journal")`` inside an ``admission`` section charges the elapsed
    admission time so far and starts charging ``journal``; ``pop`` resumes
    the outer bucket at the current clock.  The bucket sum therefore covers
    the root interval exactly (no double counting), which is the property
    ``BatchReport.phase_totals`` needs to reconcile batch wall time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.seconds: Dict[str, float] = {}
        self._stack: List[List] = []  # [name, resumed_at]

    def _charge_top(self, now: float) -> None:
        if self._stack:
            name, since = self._stack[-1]
            self.seconds[name] = self.seconds.get(name, 0.0) + (now - since)
            self._stack[-1][1] = now

    def push(self, name: str) -> None:
        now = self._clock()
        self._charge_top(now)
        self._stack.append([name, now])

    def pop(self) -> None:
        now = self._clock()
        name, since = self._stack.pop()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - since)
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def phase(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def flush(self) -> Dict[str, float]:
        """Charge everything open up to now and return the totals (the
        stack stays usable — this is a cadence snapshot, not a close)."""
        now = self._clock()
        for frame in self._stack:
            name, since = frame
            self.seconds[name] = self.seconds.get(name, 0.0) + (now - since)
            frame[1] = now
        return dict(self.seconds)
