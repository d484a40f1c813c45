"""The runtime monitor: one object the executor consults during a run.

Bundles the three optional resilience facilities — the ABFT guard,
checkpoint/restart and fault injection — behind four hooks, all at the
boundaries of the containment units ``[t0, t1)`` (a time tile under
wavefront blocking, one timestep otherwise), the only points where the
state is a wavefield; nothing runs inside a unit:

* :meth:`begin` — once per run, before timestep 0; validates the
  programmed faults against the plan, restores the latest snapshot when the
  checkpoint config asks to resume and returns the (possibly advanced)
  start timestep.
* :meth:`tile_entry` — entering a unit: the guard's entry amplitudes and
  entry snapshot.
* :meth:`after_tile` — a unit completed (stencil + sparse + receiver
  finalize): due faults fire into its exit state, then the guard's verdict
  (blow-up or silent corruption), then the checkpoint cadence (never
  snapshot unverified state).
* :meth:`contain` — on a detected corruption, restore the unit's entry
  snapshot so the executor re-executes just that unit.

The executor keeps a single ``monitor is not None`` branch per hook site;
with no facility configured no monitor is built at all.

A checkpoint save that hits storage exhaustion (ENOSPC) does not kill the
run: the monitor suspends the checkpoint cadence, remembers the condition on
:attr:`storage_degraded` and lets the run finish unprotected — losing future
restart granularity is strictly better than losing the job.
"""

from __future__ import annotations

from typing import Optional

from ..errors import StorageExhaustedError
from .checkpoint import CheckpointConfig, capture_snapshot, restore_snapshot
from .faults import FaultInjector

__all__ = ["RuntimeMonitor"]


class RuntimeMonitor:
    def __init__(
        self,
        checkpoint: Optional[CheckpointConfig] = None,
        faults: Optional[FaultInjector] = None,
        telemetry=None,
        abft=None,
    ):
        self.checkpoint = checkpoint
        self.faults = faults
        #: optional :class:`~repro.runtime.abft.ABFTGuard`
        self.abft = abft
        #: the :class:`~repro.errors.StorageExhaustedError` that suspended
        #: checkpointing, or None while storage is healthy
        self.storage_degraded: Optional[StorageExhaustedError] = None
        #: optional :class:`~repro.telemetry.Telemetry` buffer; checkpoint
        #: saves and restores emit events/counters into it
        self.telemetry = telemetry
        self._last_saved: Optional[int] = None

    # -- lifecycle ---------------------------------------------------------------------
    def begin(self, plan, time_m: int, time_M: int) -> int:
        """Validate faults, restore if resuming; returns the timestep the
        run starts from."""
        self._last_saved = time_m
        if self.faults is not None:
            self.faults.validate(plan)
        cfg = self.checkpoint
        snapshot = cfg.resume_snapshot(consume=True) if cfg is not None else None
        if snapshot is None or not time_m <= snapshot.step <= time_M:
            return time_m
        start = restore_snapshot(plan, snapshot)
        self._last_saved = start
        if self.telemetry is not None:
            self.telemetry.counters.add("checkpoint_restores")
            self.telemetry.event(
                "checkpoint.restore", phase="checkpoint+guard", step=start
            )
        return start

    # -- executor hooks ----------------------------------------------------------------
    def after_tile(self, plan, t0: int, t1: int) -> None:
        faults = self.faults
        if faults is not None:
            fired = len(faults.log)
            try:
                faults.fire(plan, t0, t1)
            finally:
                # a kind="raise" fault logs then raises: record it too
                if self.telemetry is not None:
                    for ft, kind, field in faults.log[fired:]:
                        self.telemetry.counters.add("faults_fired")
                        self.telemetry.event(
                            "fault.fired", phase="checkpoint+guard",
                            t=ft, kind=kind, field=field,
                        )
        if self.abft is not None:
            self.abft.tile_check(plan, t0, t1)
        self._maybe_save(plan, t1)

    # -- ABFT containment --------------------------------------------------------------
    def tile_entry(self, plan, t0: int, t1: int) -> None:
        """Entering the containment unit ``[t0, t1)``: record entry
        amplitudes and capture the snapshot re-execution restores."""
        if self.abft is not None:
            self.abft.tile_entry(plan, t0, t1)

    def contain(self, plan, t0: int, attempt: int) -> bool:
        """Try to contain a detected corruption to the unit entered at *t0*.

        Returns True when the entry snapshot was restored and the
        executor should re-execute the unit (*attempt* counts re-executions
        of this unit, starting at 1); False hands the error back to the
        checkpoint-restart layer.
        """
        restored = self.abft is not None and self.abft.restore(plan, t0, attempt)
        if restored and self.telemetry is not None:
            self.telemetry.counters.add("abft_reexecutions")
            self.telemetry.event(
                "abft.reexecute", phase="checkpoint+guard", step=t0
            )
        return restored

    # -- checkpointing -----------------------------------------------------------------
    def _maybe_save(self, plan, step: int) -> None:
        cfg = self.checkpoint
        if cfg is None:
            return
        if step - self._last_saved >= cfg.every:
            tel = self.telemetry
            start = tel.now() if tel is not None else 0.0
            # never recycled: a stored checkpoint owns its arrays
            snapshot = capture_snapshot(plan, step)
            try:  # the clock only under telemetry: a store may take none
                written = (cfg.store.save(snapshot) if tel is None
                           else cfg.store.save(snapshot, clock=tel.now))
            except StorageExhaustedError as exc:
                # degraded, not dead: drop the cadence and let the run finish
                self.checkpoint = None
                self.storage_degraded = exc
                if tel is not None:
                    tel.counters.add("checkpoint_storage_degraded")
                    tel.event(
                        "checkpoint.storage_degraded",
                        phase="checkpoint+guard",
                        step=step,
                        path=getattr(exc, "context", {}).get("path"),
                    )
                return
            self._last_saved = step
            if tel is not None:
                # write_s: capture + write; sync_s: the store's sync, if any
                end = tel.now()
                written = end if written is None else written
                tel.counters.add("checkpoint_saves")
                tel.event(
                    "checkpoint.save",
                    phase="checkpoint+guard",
                    step=step,
                    bytes=snapshot.nbytes(),
                    write_s=written - start,
                    sync_s=end - written,
                )
