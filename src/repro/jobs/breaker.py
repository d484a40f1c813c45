"""Circuit breaker around a failing execution engine.

Without it, every job that requests a compiled rung pays the full
compilation-failure cost (attempt compile, catch
:class:`~repro.errors.EngineCompilationError` / ``KernelLintError``, warn,
degrade) even when the last ten jobs already proved that rung's compiler is
broken.  The breaker remembers: after ``threshold`` consecutive failures it
*opens* and subsequent jobs are dispatched straight at the next rung of the
ladder (:attr:`CircuitBreaker.fallback`); after ``cooldown`` seconds it goes
*half-open* and lets exactly one probe through — success closes it again,
failure re-opens it.

One attachment point: the :class:`~repro.jobs.pool.JobPool` supervisor owns
the breaker.  At dispatch ``allow`` decides whether a job asking for the
tracked rung runs on it or on :attr:`~CircuitBreaker.fallback` (journaled in
the ``attempt`` record, flagged ``degraded``); the attempt's report feeds
``record_failure`` / ``record_success`` from the fallbacks it saw, or
``record_inconclusive`` when it ended without a result — whichever fleet ran
it.  The engine ladder (:meth:`repro.ir.operator.Operator.apply`) knows
nothing of it.

The clock is injectable so tests drive the cooldown deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..execution.evalbox import ENGINES

__all__ = ["CircuitBreaker"]

CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: gauge encoding of the state series: the live value of
#: ``repro_breaker_state{engine=...}`` at any instant
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one tracked engine.

    Parameters
    ----------
    threshold:
        Consecutive failures of the tracked engine that trip the breaker.
    cooldown:
        Seconds an open breaker waits before allowing a half-open probe.
    engine:
        The compiled rung being tracked (default ``"fused"``); every other
        engine is always allowed, and the terminal interpreter rung cannot be
        tracked — so :attr:`fallback` always exists and is never blocked.
    clock:
        Monotonic float-second clock, injectable for tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        engine: str = "fused",
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if engine not in ENGINES[:-1]:
            raise ValueError(
                f"engine must be a compiled rung, one of {ENGINES[:-1]}, got {engine!r}"
            )
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.engine = engine
        self._clock = clock
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        #: (clock, transition) log: ("open", ...), ("half_open", ...), ("closed", ...)
        self.transitions: List[tuple] = []
        self._m_state = None
        self._m_transitions = None

    # -- state -------------------------------------------------------------------
    @property
    def fallback(self) -> str:
        """The rung a job is rerouted to while the breaker is open: the one
        after :attr:`engine` in :data:`~repro.execution.evalbox.ENGINES`."""
        return ENGINES[ENGINES.index(self.engine) + 1]

    @property
    def state(self) -> str:
        """Current state, advancing ``open`` → ``half_open`` when the
        cooldown has elapsed (observation triggers the transition)."""
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown:
            self._transition(HALF_OPEN)
            self._probe_inflight = False
        return self._state

    def _transition(self, state: str) -> None:
        self._state = state
        self.transitions.append((self._clock(), state))
        if self._m_state is not None:
            self._m_state.set(STATE_CODES[state], engine=self.engine)
            self._m_transitions.inc(engine=self.engine, state=state)

    def bind_metrics(self, registry) -> None:
        """Publish this breaker's state into *registry* (a
        :class:`~repro.telemetry.metrics.MetricsRegistry`): the
        ``breaker_state`` gauge (0=closed, 1=open, 2=half_open) tracks the
        live state, ``breaker_transitions_total{engine,state}`` counts
        every transition — together they are ``metrics.json``'s view of the
        :attr:`transitions` log."""
        self._m_state = registry.instrument("breaker_state")
        self._m_transitions = registry.instrument("breaker_transitions_total")
        self._m_state.set(STATE_CODES[self._state], engine=self.engine)

    # -- supervisor hooks --------------------------------------------------------
    def allow(self, engine: str) -> bool:
        """May *engine* be attempted right now?

        Untracked engines: always.  Tracked engine: yes while closed; no
        while open (pre-cooldown); exactly one caller gets a yes per
        half-open period (the probe) until its outcome is recorded.
        """
        if engine != self.engine:
            return True
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self, engine: str) -> None:
        if engine != self.engine:
            return
        self._failures = 0
        self._probe_inflight = False
        if self._state != CLOSED:
            self._transition(CLOSED)

    def record_failure(self, engine: str) -> None:
        if engine != self.engine:
            return
        self._failures += 1
        probe_failed = self._probe_inflight
        self._probe_inflight = False
        if probe_failed or self._failures >= self.threshold:
            if self._state != OPEN:
                self._transition(OPEN)
            self._opened_at = self._clock()

    def record_inconclusive(self, engine: str) -> None:
        """The attempt ended before the engine outcome was knowable (fault,
        crash, hang, timeout): release a half-open probe slot without judging."""
        if engine != self.engine:
            return
        self._probe_inflight = False

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.engine!r}, state={self.state}, "
            f"failures={self._failures}/{self.threshold})"
        )
