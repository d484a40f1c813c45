"""The observability half of :class:`~repro.jobs.pool.JobPool`: exclusive
supervisor phase accounting, the stamping of per-attempt trace payloads and
the folding of in-process attempts' phases into the telemetry buffer.

:class:`PoolObservability` is a base class, not a component: it reads the
pool's own attributes (``fleet``, ``telemetry``, ``_epoch``) and nothing here
changes batch state.  What a batch *did* is not kept here: the write-ahead
journal is its one record, which ``python -m repro.jobs.status`` folds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List

from .spec import AttemptRecord

__all__ = ["PhaseAccountant", "PoolObservability"]


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

    def push(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self.seconds[top[0]] = self.seconds.get(top[0], 0.0) + (now - top[1])
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


class PoolObservability:
    """Supervisor accounting and trace plumbing of a :class:`JobPool`."""

    def _init_observability(self) -> None:
        self._jobs_phase_added = 0.0
        self._attempt_phase_folded = 0.0  # in-process attempts' phase seconds
        self._acct = PhaseAccountant()

    def _attach_trace(self, record: AttemptRecord, meta: dict) -> None:
        """Pop the attempt's serialized span payload out of *meta* (it must
        not bloat ``result.npz``), stamp it with the handshake clock
        offset, and hang it on the attempt record for the merger."""
        payload = meta.pop("telemetry", None)
        if payload is None:
            return
        # the batch-relative zero every merged span is measured from
        epoch = self._epoch
        if self.telemetry is not None and self.telemetry.epoch is not None:
            epoch = self.telemetry.epoch
        ctx = payload.setdefault("context", {})
        dispatch = ctx.get("dispatch_perf")
        recv = ctx.get("recv_perf")
        if isinstance(dispatch, float) and isinstance(recv, float):
            # equate the pipe-write and pipe-read instants: child time t is
            # batch-relative t + offset, error bounded by the pipe latency
            ctx["clock_offset_s"] = (dispatch - epoch) - recv
        else:
            # an in-process attempt: recorder and supervisor share one clock
            ctx["clock_offset_s"] = -epoch
        record.trace = payload

    def _observe_completion(self, meta: dict) -> None:
        """Fold an in-process attempt's phase seconds into the pool buffer:
        it ran on this process's clock, so batch coverage holds.  A daemon's
        attempt keeps its phases on its ``AttemptRecord``."""
        if self.telemetry is None or not self.fleet.in_process:
            return
        for ph_name, secs in (meta.get("phase_seconds") or {}).items():
            self.telemetry.add_phase(ph_name, float(secs))
            self._attempt_phase_folded += float(secs)

    def _charge_jobs_phase(self) -> None:
        """Charge the supervisor's own exclusive time (everything but the
        attempts' execute bucket, which the attempt phases already cover) to
        the telemetry buffer's ``jobs`` cost centre — as a delta, so repeated
        ``run()`` calls never double-charge."""
        if self.telemetry is None:
            return
        total = sum(s for b, s in self._acct.seconds.items() if b != "execute")
        if self.fleet.in_process:
            # the attempts ran on this clock; what their engine phases
            # leave of the execute bucket (problem set-up, result
            # marshalling, failed attempts) is jobs time too — a fixed cost
            # per job that would otherwise eat into coverage as the kernels
            # get faster
            total += max(
                0.0,
                self._acct.seconds.get("execute", 0.0) - self._attempt_phase_folded,
            )
        self.telemetry.add_phase("jobs", total - self._jobs_phase_added)
        self._jobs_phase_added = total
