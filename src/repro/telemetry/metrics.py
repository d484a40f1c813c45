"""Batch-wide metrics registry: counters, gauges, histograms — no new deps.

The per-run :class:`~repro.telemetry.spans.Telemetry` buffer answers "where
did *this run's* wall-time go"; it dies with the run.  A
:class:`MetricsRegistry` is the complementary *service-level* surface: a
process-wide (well, supervisor-wide) set of named, labelled instruments the
whole ``jobs/`` service records into — the families of :data:`CATALOGUE`:
queue depths per lane, attempt latencies, breaker transitions, … —
snapshottable at any instant as versioned JSON
(:meth:`MetricsRegistry.snapshot`) or Prometheus text exposition format
(:meth:`MetricsRegistry.exposition`), and servable over a stdlib HTTP
endpoint (:class:`MetricsServer`, ``--metrics-port`` on the jobs CLI).

Instrument semantics follow the Prometheus conventions:

* :class:`Counter` — monotonically non-decreasing totals (``*_total``);
* :class:`Gauge` — a value that goes both ways (queue depth, busy workers);
* :class:`Histogram` — fixed-bucket observation counts with ``sum`` and
  ``count``; :func:`histogram_quantile` estimates quantiles by linear
  interpolation inside the bucket the rank falls in (exactly what a
  Prometheus ``histogram_quantile`` would do server-side), from a live
  instrument and from a snapshot alike.

Labels are declared per instrument (``labelnames``) and passed by keyword
at record time; each distinct label-value combination is one time series.
Everything is guarded by one registry lock, so the HTTP server thread can
scrape while the supervisor records.

:class:`PhaseAccountant` is the supervisor-side analogue of the executors'
boundary-to-boundary phase accounting: a stack of *exclusive* wall-time
buckets (``admission``/``journal``/``dispatch``/``execute``/``idle``/
``drain`` under a ``supervise`` root) where entering an inner bucket pauses
the outer one — the bucket sum covers the supervised interval exactly,
which is what lets ``BatchReport.phase_totals`` reconcile batch wall time.

:func:`validate_exposition` is a strict-enough parser of the text format
used by the tests and the CI smoke to prove the endpoint speaks actual
Prometheus exposition, not something that merely looks like it.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SNAPSHOT_VERSION",
    "DEFAULT_BUCKETS",
    "CATALOGUE",
    "Counter",
    "Gauge",
    "Histogram",
    "histogram_quantile",
    "MetricsRegistry",
    "MetricsServer",
    "PhaseAccountant",
    "validate_exposition",
]

#: version stamp of the JSON snapshot schema (bump on breaking change)
SNAPSHOT_VERSION = 1

#: default latency buckets (seconds) — spans pipe dispatches (~100us) to
#: multi-second attempts, the service's whole dynamic range
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: The one place metric families are declared: ``family -> (kind, labels,
#: reader, help)``.  :meth:`MetricsRegistry.instrument` creates from it, the
#: transition effects of :mod:`repro.jobs.transitions` are checked against it
#: at import, and DESIGN.md §7's family table is checked against it by
#: ``tests/telemetry/test_metrics.py``.  *reader* names who consumes the
#: family — ``"status"`` (``python -m repro.jobs.status`` renders it) or
#: ``"test"`` (a tier-1 test asserts its value against the batch report) —
#: and the same test holds every entry to its claim: a family nobody reads
#: is deleted, not catalogued.
CATALOGUE: Dict[str, Tuple[str, Tuple[str, ...], str, str]] = {
    "jobs_admitted_total": (
        "counter", ("lane", "tenant"), "test", "jobs admitted into the batch"),
    "jobs_completed_total": (
        "counter", (), "test", "jobs that reached completed"),
    "jobs_terminal_total": (
        "counter", ("status",), "test", "jobs per terminal status"),
    "jobs_retried_total": (
        "counter", (), "status", "attempt retries scheduled"),
    "queue_depth": (
        "gauge", ("lane",), "status", "ready-to-dispatch jobs per priority lane"),
    "tenant_active_jobs": (
        "gauge", ("tenant",), "status", "admitted-but-unfinished jobs per tenant"),
    "tenant_quota": (
        "gauge", (), "status", "per-tenant admission quota (0 = unlimited)"),
    "attempt_seconds": (
        "histogram", ("outcome",), "status", "attempt latency per outcome"),
    "workers_busy": (
        "gauge", (), "test", "daemons with a job in flight"),
    "workers_spawned_total": (
        "counter", (), "test", "daemons preforked (initial + replacements)"),
    "shm_bytes_published_total": (
        "counter", (), "status", "shared-memory bytes published per batch"),
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
    "breaker_state": (
        "gauge", ("engine",), "status",
        "circuit-breaker state: 0=closed, 1=open, 2=half_open"),
    "breaker_transitions_total": (
        "counter", ("engine", "state"), "test", "circuit-breaker state transitions"),
}


def _format_value(v: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _escape_label(v: object) -> str:
    return str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(v: str) -> str:
    return v.replace("\\", "\\\\").replace("\n", "\\n")


class _Metric:
    """Shared series bookkeeping of one named instrument."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str], lock):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
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

    def __init__(self, name, help, labelnames, lock, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, lock)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError(f"{self.name}: need at least one bucket")
        if any(e1 >= e2 for e1, e2 in zip(edges, edges[1:])):
            raise ValueError(f"{self.name}: bucket edges must strictly increase")
        self.buckets = edges  # +Inf is implicit

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


class MetricsRegistry:
    """Named, labelled instruments with get-or-create semantics.

    ``namespace`` prefixes every metric name (``jobs_completed_total`` →
    ``repro_jobs_completed_total``), keeping the exposition greppable and
    collision-free next to other exporters.
    """

    def __init__(self, namespace: str = "repro"):
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        full = self._full(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {full!r} re-registered as {cls.kind} with "
                        f"labels {tuple(labelnames)!r}; it is {existing.kind} "
                        f"with {existing.labelnames!r}"
                    )
                return existing
        metric = cls(full, help, labelnames, self._lock, **kwargs)
        with self._lock:
            return self._metrics.setdefault(full, metric)

    def counter(self, name, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name, help: str = "", labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def instrument(self, family: str) -> _Metric:
        """Get-or-create the :data:`CATALOGUE` entry *family* (``KeyError``
        for an undeclared one)."""
        kind, labels, _reader, doc = CATALOGUE[family]
        return getattr(self, kind)(family, doc, labels)

    # -- export --------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Versioned JSON-able snapshot of every series."""
        metrics = {}
        with self._lock:
            items = list(self._metrics.items())
        for full, metric in items:
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
            metrics[full] = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
                "series": series,
            }
        return {
            "version": SNAPSHOT_VERSION,
            "namespace": self.namespace,
            "generated_unix": time.time(),
            "metrics": metrics,
        }

    def exposition(self) -> str:
        """Prometheus text exposition format (content type
        ``text/plain; version=0.0.4``)."""
        lines: List[str] = []
        with self._lock:
            items = sorted(self._metrics.items())
        for full, metric in items:
            with self._lock:
                series_items = sorted(metric._series.items())
            if metric.help:
                lines.append(f"# HELP {full} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {full} {metric.kind}")
            for key, state in series_items:
                labels = metric.series_labels(key)
                base = _render_labels(labels)
                if metric.kind == "histogram":
                    cumulative = 0
                    for edge, c in zip([*metric.buckets, math.inf], state["counts"]):
                        cumulative += c
                        le = "+Inf" if edge == math.inf else _format_value(edge)
                        bl = _render_labels({**labels, "le": le})
                        lines.append(f"{full}_bucket{bl} {cumulative}")
                    lines.append(f"{full}_sum{base} {_format_value(state['sum'])}")
                    lines.append(f"{full}_count{base} {state['count']}")
                else:
                    lines.append(f"{full}{base} {_format_value(state)}")
        return "\n".join(lines) + "\n"

    def write_json(self, path, extra: Optional[dict] = None) -> None:
        """Atomically write the snapshot (plus *extra* top-level keys) — a
        reader never sees a torn one; not fsynced, it is not recovery state."""
        from ..runtime.integrity import atomic_write

        payload = self.snapshot()
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True) + "\n"
        atomic_write(path, lambda fh: fh.write(text.encode()), fsync=False)


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


# -- exposition validation --------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def validate_exposition(text: str) -> Dict[str, dict]:
    """Strictly parse Prometheus text exposition; raise ``ValueError`` on
    any malformed line, TYPE-less sample, or histogram whose cumulative
    ``le`` buckets decrease or lack ``+Inf``.  Returns ``family name ->
    {"type", "samples": n}`` on success (used by tests and the CI smoke).
    """
    types: Dict[str, str] = {}
    samples: Dict[str, int] = {}
    histogram_buckets: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = m.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        if family not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE declaration")
        samples[family] = samples.get(family, 0) + 1
        if types[family] == "histogram" and name.endswith("_bucket"):
            labels = dict(_LABEL_PAIR_RE.findall(m.group("labels") or ""))
            le = labels.pop("le", None)
            if le is None:
                raise ValueError(f"line {lineno}: histogram bucket without le label")
            series_id = (family, json.dumps(labels, sort_keys=True))
            edge = math.inf if le == "+Inf" else float(le)
            histogram_buckets.setdefault(series_id, []).append(
                (edge, float(m.group("value")))
            )
    for (family, labels_id), rows in histogram_buckets.items():
        edges = [e for e, _ in rows]
        counts = [c for _, c in rows]
        if edges != sorted(edges):
            raise ValueError(f"{family}{labels_id}: le edges out of order")
        if math.inf not in edges:
            raise ValueError(f"{family}{labels_id}: histogram lacks +Inf bucket")
        if any(c1 > c2 for c1, c2 in zip(counts, counts[1:])):
            raise ValueError(f"{family}{labels_id}: cumulative bucket counts decrease")
    return {f: {"type": t, "samples": samples.get(f, 0)} for f, t in types.items()}


# -- HTTP endpoint ----------------------------------------------------------------------


class MetricsServer:
    """stdlib HTTP endpoint over one registry (``--metrics-port``).

    ``GET /metrics`` serves the text exposition, ``GET /metrics.json`` the
    versioned snapshot, ``GET /healthz`` a liveness ``ok``.  Port 0 binds an
    ephemeral port — read the real one from :attr:`port`.  Runs in a daemon
    thread; request logging is suppressed (the supervisor's stdout is the
    batch report, not an access log).
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0,
                 host: str = "127.0.0.1"):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        reg = registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 — http.server API
                if self.path.split("?")[0] == "/metrics":
                    body = reg.exposition().encode()
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path.split("?")[0] == "/metrics.json":
                    body = (json.dumps(reg.snapshot(), sort_keys=True) + "\n").encode()
                    ctype = "application/json"
                elif self.path.split("?")[0] == "/healthz":
                    body, ctype = b"ok\n", "text/plain"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence access logging
                pass

        self._server = ThreadingHTTPServer((host, int(port)), Handler)
        self._server.daemon_threads = True
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True, name="repro-metrics"
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
