"""The observability half of :class:`~repro.jobs.pool.JobPool`: metric
instruments, exclusive supervisor phase accounting, the live ``metrics.json``
status snapshot, and the stamping of per-attempt trace payloads.

:class:`PoolObservability` is a base class, not a component: it reads the
pool's own attributes (``state``, ``fleet``, ``workers``, ``telemetry``,
``workdir``, ``batch_id``, ``resumed``, ``storage_degraded``, ``_streams``,
``_epoch``) and nothing here changes batch state.
"""

from __future__ import annotations

import time

from ..telemetry.metrics import CATALOGUE, MetricsRegistry, PhaseAccountant
from .spec import AttemptRecord

__all__ = ["METRICS_NAME", "PoolObservability"]

#: live metrics snapshot, atomically refreshed in the batch workdir on the
#: ``status_interval`` cadence (what ``python -m repro.jobs.status`` reads)
METRICS_NAME = "metrics.json"


class PoolObservability:
    """Metrics, status and trace plumbing of a :class:`JobPool`."""

    def _init_observability(self, status_interval: float) -> None:
        self.status_interval = float(status_interval)
        self._last_status = 0.0
        self._jobs_phase_added = 0.0
        self._attempt_phase_folded = 0.0  # in-process attempts' phase seconds
        self.metrics = MetricsRegistry()
        self._acct = PhaseAccountant()
        #: family -> instrument, for every :data:`CATALOGUE` entry
        self._m = {family: self.metrics.instrument(family) for family in CATALOGUE}

    def _measure(self, op: str, family: str, value: float, labels: dict) -> None:
        """Perform one ``count`` / ``observe`` effect of a transition."""
        instrument = self._m[family]
        (instrument.inc if op == "count" else instrument.observe)(value, **labels)

    def _refresh_gauges(self) -> None:
        """Recompute every level-style gauge from supervisor state."""
        self._m["workers_busy"].set(sum(1 for w in self.fleet.workers if w.busy))
        for bucket, secs in self._acct.flush().items():
            self._m["supervisor_seconds"].set(secs, bucket=bucket)

    def _status_summary(self) -> dict:
        state, fleet = self.state, self.fleet
        return {
            "jobs": len(state.jobs),
            "terminal": state.terminals,
            "completed": sum(1 for j in state.jobs if j.status == "completed"),
            "active": state.active,
            "ready": len(state.ready),
            "delayed": len(state.delayed),
            "streams_open": len(self._streams),
            "workers": {
                "configured": self.workers,
                "alive": sum(1 for w in fleet.workers if w.alive),
                "busy": sum(1 for w in fleet.workers if w.busy),
                "spawned": fleet.spawned,
                "hung": fleet.hung,
            },
            "draining": state.draining,
            "resumed": self.resumed,
            "storage_degraded": self.storage_degraded is not None,
            "elapsed_seconds": time.perf_counter() - self._epoch,
        }

    def _write_status(self, final: bool = False) -> None:
        """Atomically refresh ``metrics.json`` in the batch dir.
        Best-effort: a full disk must not take the batch down."""
        self._refresh_gauges()
        try:
            self.metrics.write_json(
                self.workdir / METRICS_NAME,
                extra={
                    "batch_id": self.batch_id,
                    "final": final,
                    "status": self._status_summary(),
                },
            )
        except OSError:
            pass

    def _maybe_status(self) -> None:
        """Refresh the live ``metrics.json`` when the cadence is due."""
        if self.status_interval <= 0:
            return
        now = time.perf_counter()
        if now - self._last_status >= self.status_interval:
            self._last_status = now
            self._write_status()

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

    def _observe_completion(self, record: AttemptRecord, meta: dict) -> None:
        """Work counters, per-worker warm/cold attempt counters and
        aggregated cache tallies of one completed attempt."""
        work = meta.get("work") or {}
        if work.get("points_updated"):
            self._m["jobs_points_updated_total"].inc(float(work["points_updated"]))
        if work.get("stencil_seconds"):
            self._m["jobs_stencil_seconds_total"].inc(float(work["stencil_seconds"]))
        if self.telemetry is None:
            return
        if self.fleet.in_process:
            # the attempt ran on this process's clock — fold its phase
            # seconds into the pool buffer so batch coverage holds
            for ph_name, secs in (meta.get("phase_seconds") or {}).items():
                self.telemetry.add_phase(ph_name, float(secs))
                self._attempt_phase_folded += float(secs)
        counters = self.telemetry.counters
        kind = "warm" if record.warm else "cold"
        counters.add(f"jobs_{kind}_attempts")
        if record.worker is not None:
            counters.add(f"worker{record.worker}.jobs")
            counters.add(f"worker{record.worker}.{kind}_attempts")
        for key, n in record.caches.items():
            counters.add(f"jobs_{key}", n)

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
