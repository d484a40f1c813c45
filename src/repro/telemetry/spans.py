"""Nested wall-clock spans and per-phase time accounting for one run.

A :class:`Telemetry` object is the per-run buffer everything records into.
It is threaded through the execution stack exactly like the
:class:`~repro.runtime.monitor.RuntimeMonitor`: ``Operator.apply(...,
telemetry=tel)`` / ``Propagator.forward(..., telemetry=tel)`` hand it down to
the executors, whose hot loops keep a single ``telemetry is not None`` branch
— with no telemetry attached nothing is constructed and nothing is timed.

Two kinds of record coexist:

* **Spans** — nested intervals with structured attributes (``schedule``,
  ``engine``, ``t``-range, tile id, sweep name).  Structural spans (``apply``
  > ``bind``/``preflight``/``run`` > ``tile``/``step`` > ``instance``) give
  the Chrome-trace/Perfetto timeline its shape.  Per-*instance* spans are
  only recorded at ``detail="trace"`` — they cost one object per sweep
  instance and exist for timeline inspection, not for accounting.
* **Phase seconds** — a flat ``phase -> seconds`` accumulation fed by the
  executors with *boundary-to-boundary* timing: each measurement picks up
  from the previous clock reading, so loop overhead is absorbed into the
  adjacent phase and the phase sum covers the run wall-time almost exactly
  (the ≥95% coverage contract: :meth:`Telemetry.coverage` here,
  ``bench.unattributed_frac`` in ``benchmarks/stack``, which CI gates).

Phases are the paper-facing cost centres: ``precompute`` (masks, wavelet
decomposition, kernel binding, preflight, step-plan geometry), ``stencil``
(sweep evaluation), ``injection`` (grid-aligned or raw source scatter),
``receivers`` (gather + trace reconstruction), ``checkpoint+guard`` (the
runtime monitor: guard scans, snapshots, fault hooks), ``jobs`` (batch
supervisor work — admission, journaling, dispatch, drain — recorded by
:mod:`repro.jobs.pool`, not the executors) and ``other``.

The clock is injectable (``Telemetry(clock=...)``) so tests can drive spans
deterministically; it defaults to :func:`time.perf_counter`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .counters import Counters

__all__ = ["Span", "Telemetry", "PHASES", "DETAIL_LEVELS"]

#: the run cost centres, in reporting order
PHASES = (
    "precompute",
    "stencil",
    "injection",
    "receivers",
    "checkpoint+guard",
    "jobs",
    "other",
)

#: ``"phase"`` — per-phase seconds + structural spans only (the low-overhead
#: default); ``"trace"`` — additionally one span per executed sweep instance
#: (the timeline the Chrome-trace exporter renders).
DETAIL_LEVELS = ("phase", "trace")


@dataclass
class Span:
    """One completed (or in-flight) interval on the telemetry clock."""

    name: str
    phase: str = ""
    start: float = 0.0
    dur: float = 0.0
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.dur

    def to_dict(self) -> dict:
        return {**vars(self), "attrs": dict(self.attrs)}


class Telemetry:
    """Per-run buffer of spans, phase seconds, counters and events.

    Parameters
    ----------
    detail:
        ``"phase"`` (default) or ``"trace"`` (adds per-instance spans).
    clock:
        Monotonic float-second clock; injectable for deterministic tests.
    """

    def __init__(self, detail: str = "phase", clock: Callable[[], float] = time.perf_counter):
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"unknown detail {detail!r}; expected one of {DETAIL_LEVELS}")
        self.detail = detail
        self._clock = clock
        #: completed spans, in completion order (children before parents)
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: instantaneous marks (checkpoint saves, engine fallbacks, ...)
        self.events: List[Span] = []
        self.counters = Counters()
        self.phase_seconds: Dict[str, float] = {p: 0.0 for p in PHASES}
        #: static context set by the entry points: schedule/engine descriptors,
        #: per-sweep flop and access counts from :mod:`repro.analysis.metrics`
        self.meta: Dict[str, object] = {}
        #: clock value of the first ``begin`` — the trace epoch
        self.epoch: Optional[float] = None

    # -- clock -------------------------------------------------------------------
    def now(self) -> float:
        return self._clock()

    @property
    def trace(self) -> bool:
        return self.detail == "trace"

    # -- spans -------------------------------------------------------------------
    def begin(self, name: str, phase: str = "", **attrs) -> Span:
        """Open a nested span; must be closed with :meth:`end` (LIFO)."""
        start = self._clock()
        if self.epoch is None:
            self.epoch = start
        span = Span(name, phase, start, depth=len(self._stack), attrs=attrs)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close *span* (the innermost open span) and record it."""
        top = self._stack.pop()
        if top is not span:
            self._stack.append(top)
            raise ValueError(
                f"span nesting violated: closing {span.name!r} while "
                f"{top.name!r} is innermost"
            )
        span.dur = self._clock() - span.start
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, phase: str = "", **attrs):
        """Context-managed :meth:`begin`/:meth:`end` pair."""
        span = self.begin(name, phase, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def record(self, name: str, phase: str, start: float, dur: float, depth: int, attrs: dict) -> None:
        """Append an already-timed span (the executors' per-instance path:
        the boundary clock readings double as span timestamps, so a traced
        instance costs no extra clock calls)."""
        if self.epoch is None:
            self.epoch = start
        self.spans.append(Span(name, phase, start, dur, depth, attrs))

    def event(self, name: str, phase: str = "", **attrs) -> Span:
        """An instantaneous mark (zero-duration) at the current clock."""
        ts = self._clock()
        if self.epoch is None:
            self.epoch = ts
        ev = Span(name, phase, ts, 0.0, len(self._stack), attrs)
        self.events.append(ev)
        return ev

    # -- phase accounting ----------------------------------------------------------
    def add_phase(self, phase: str, seconds: float) -> None:
        """Accumulate *seconds* of wall-time into *phase*."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def phase_totals(self) -> Dict[str, float]:
        """Phase -> seconds, reporting order, zero phases included."""
        out = {p: self.phase_seconds.get(p, 0.0) for p in PHASES}
        for p, s in self.phase_seconds.items():  # custom phases, if any
            if p not in out:
                out[p] = s
        return out

    def phase_sum(self) -> float:
        return float(sum(self.phase_seconds.values()))

    # -- whole-run queries ----------------------------------------------------------
    def root_span(self) -> Optional[Span]:
        """The outermost completed span (depth 0) — normally ``apply``."""
        for span in reversed(self.spans):
            if span.depth == 0:
                return span
        return None

    def total_seconds(self) -> float:
        """Wall-time of the outermost span (0.0 before any run completed)."""
        root = self.root_span()
        return root.dur if root is not None else 0.0

    def coverage(self) -> float:
        """Fraction of the outermost span's wall-time the phase sum explains."""
        total = self.total_seconds()
        return self.phase_sum() / total if total > 0 else 0.0

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def __repr__(self) -> str:
        return (
            f"Telemetry(detail={self.detail!r}, spans={len(self.spans)}, "
            f"events={len(self.events)}, phases={ {k: round(v, 6) for k, v in self.phase_seconds.items() if v} })"
        )
