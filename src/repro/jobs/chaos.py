"""Chaos harness: per-job fault plans plus worker-kill budget.

Composes the deterministic :class:`~repro.runtime.faults.FaultInjector`
with process-level violence.  A :class:`ChaosConfig` describes the *rates*;
a :class:`ChaosPlan` resolves them into one :class:`ChaosEntry` per job,
derived purely from ``split_seed(batch_seed, job_index, CHAOS_SALT)`` — so
the set of faulting jobs, their fault timesteps and their corruption
positions replay identically regardless of worker scheduling order.

Three kinds of injected trouble:

* **in-run faults** (``fault_rate``) — an armed
  :class:`~repro.runtime.faults.Fault` fires inside the worker at the exit
  of the time tile holding a random timestep: ``raise`` aborts the attempt
  with :class:`~repro.errors.InjectedFault`; ``nan``/``inf`` corrupt the
  tile's exit state and the :class:`~repro.runtime.abft.ABFTGuard` (attached
  automatically) judges it a :class:`~repro.errors.NumericalBlowup` at the
  end of the time tile — *before* that tile's checkpoint save, so a
  snapshot can never capture injected corruption and retry-from-checkpoint
  stays bit-identical.
* **silent data corruption** (``sdc_rate``) — an armed ``bitflip`` fault
  rewrites the exponent field of one exit value to a seeded
  high-but-finite pattern (:func:`~repro.runtime.faults.flip_finite`): no
  NaN, no Inf.  The same guard judges the violated amplitude invariant
  silent corruption at that containment-unit boundary and re-executes
  just that tile from its entry snapshot — the batch completes
  bit-identical to a fault-free run.
* **engine breakage** (``break_rate``) — the attempt runs under
  :func:`~repro.runtime.faults.break_engine`, making the compiler of the rung
  the spec asks for raise; exercises the engine ladder, and the fall shows in
  the attempt's ``fallbacks``.
* **worker kills** (``kill_workers``) — the first that many jobs are named
  kill victims: the daemon of a victim's attempt 0 stops itself (SIGSTOP)
  right after its first durable checkpoint save and the pool supervisor
  SIGKILLs it there (so the kill always lands mid-run *and* the retry is a
  genuine resume, not a restart).
* **daemon hangs** (``hang_workers``) — the daemons of the first that many
  jobs wedge on attempt 0: heartbeats stop and the daemon sleeps
  ``hang_seconds``, simulating a livelock below the job deadline.  The
  supervisor's heartbeat liveness check must detect the silence, SIGKILL
  the daemon, prefork a replacement and retry the job — a hang must cost
  one heartbeat timeout, never a stalled fleet slot.
* **poison jobs** (``poison_jobs``) — the first that many jobs hard-exit
  (``os._exit``) every daemon they are dispatched to, on *every* attempt.
  This is the pathology quarantine exists for: the supervisor must stop
  retrying after ``poison_threshold`` consecutive crashes and quarantine
  the job with forensics instead of burning the replacement budget.
* **supervisor kill** (``kill_supervisor_after``) — the *supervisor*
  SIGKILLs itself once that many jobs have reached a terminal state,
  simulating an OOM-killed parent mid-batch.  Exercised from a subprocess:
  the orphaned batch directory must then resume via ``JobPool.resume`` /
  ``--resume`` to 100% completion, bit-identical.

Faults, breakage and hangs arm on attempt 0 only: a retry must make
forward progress, and the chaos gate's contract — every job completes with
receivers bit-identical to a fault-free serial run — depends on retries
running clean from the recovered checkpoint.  Poison jobs are the
deliberate exception (a poison job is one that *never* stops crashing),
which is why their terminal state is quarantine, not completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Tuple

import numpy as np

from ..runtime.faults import split_seed

__all__ = ["ChaosConfig", "ChaosEntry", "ChaosPlan", "CHAOS_SALT"]

#: spawn-key salt separating the chaos substream from retry/fault streams
CHAOS_SALT = 0xC405


@dataclass(frozen=True)
class ChaosConfig:
    """Rates and budgets; resolved per job by :class:`ChaosPlan`."""

    #: fraction of jobs that get one injected in-run fault on attempt 0
    fault_rate: float = 0.0
    #: fault kinds drawn from (uniformly, per faulting job)
    kinds: Tuple[str, ...] = ("raise", "nan")
    #: fraction of jobs that get one injected finite bit-flip (silent data
    #: corruption) on attempt 0; detected by the auto-attached ABFT guard
    sdc_rate: float = 0.0
    #: fraction of jobs whose attempt 0 runs with their rung's compiler broken
    break_rate: float = 0.0
    #: the daemons of the first this many jobs are SIGKILLed on attempt 0,
    #: right after their first checkpoint save
    kill_workers: int = 0
    #: the daemons of the first this many jobs (by submission index) wedge
    #: on attempt 0: heartbeats stop and the daemon sleeps ``hang_seconds``
    hang_workers: int = 0
    #: how long a chaos-hung daemon sleeps (it resumes normal service
    #: afterwards, so an undetected hang degrades to slowness, not deadlock)
    hang_seconds: float = 30.0
    #: the first this many jobs hard-exit every daemon they run on, on
    #: every attempt — the quarantine pathology
    poison_jobs: int = 0
    #: SIGKILL the supervisor itself once this many jobs are terminal
    #: (None = never); simulates an OOM-killed parent for resume tests
    kill_supervisor_after: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if not 0.0 <= self.sdc_rate <= 1.0:
            raise ValueError("sdc_rate must be in [0, 1]")
        if not 0.0 <= self.break_rate <= 1.0:
            raise ValueError("break_rate must be in [0, 1]")
        if self.kill_workers < 0:
            raise ValueError("kill_workers must be >= 0")
        if self.hang_workers < 0:
            raise ValueError("hang_workers must be >= 0")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")
        if self.poison_jobs < 0:
            raise ValueError("poison_jobs must be >= 0")
        if self.kill_supervisor_after is not None and self.kill_supervisor_after < 1:
            raise ValueError("kill_supervisor_after must be >= 1 (or None)")
        for kind in self.kinds:
            if kind not in ("raise", "nan", "inf", "bitflip"):
                raise ValueError(f"unknown fault kind {kind!r}")

    @property
    def active(self) -> bool:
        return (
            self.fault_rate > 0
            or self.sdc_rate > 0
            or self.break_rate > 0
            or self.kill_workers > 0
            or self.hang_workers > 0
            or self.poison_jobs > 0
            or self.kill_supervisor_after is not None
        )


@dataclass
class ChaosEntry:
    """Resolved chaos decisions for one job (picklable; crosses into the
    worker process)."""

    #: Fault constructor kwargs, or None
    fault: Optional[dict] = None
    #: seed of the injector's corruption stream
    fault_seed: int = 0
    break_rung: bool = False  # of the rung the spec asks for, c or fused
    #: > 0 ⇒ the attempt-0 daemon wedges (heartbeats stop) for this long
    hang_seconds: float = 0.0
    #: True ⇒ the job hard-exits its daemon on every attempt (quarantine
    #: fodder; daemon-only — an in-process attempt cannot be killed, so the
    #: inline fleet ignores it, as it does ``hang_seconds``)
    poison: bool = False
    #: True ⇒ a kill victim: its attempt-0 daemon stops itself after its
    #: first checkpoint save, and the supervisor SIGKILLs it (daemon-only)
    kill: bool = False

    @property
    def needs_guard(self) -> bool:
        """Corruption faults (NaN/Inf and finite bit-flips alike) need the
        tile-boundary guard to be caught; its verdict tells them apart."""
        return self.fault is not None and self.fault.get("kind") in ("nan", "inf", "bitflip")


@dataclass
class ChaosPlan:
    """Deterministic per-job resolution of a :class:`ChaosConfig`."""

    config: ChaosConfig
    batch_seed: int = 0
    _entries: dict = dc_field(default_factory=dict)

    def entry(self, job_index: int, nt: int) -> ChaosEntry:
        """The chaos entry of job *job_index* (cached; depends only on
        ``(batch_seed, job_index, nt)``)."""
        key = (job_index, nt)
        if key in self._entries:
            return self._entries[key]
        rng = np.random.default_rng(split_seed(self.batch_seed, job_index, CHAOS_SALT))
        entry = ChaosEntry(fault_seed=split_seed(self.batch_seed, job_index))
        if rng.random() < self.config.fault_rate:
            kind = self.config.kinds[int(rng.integers(0, len(self.config.kinds)))]
            # fire somewhere in the middle 80% of the run: late enough that
            # checkpoints usually exist, early enough that work remains
            t = int(rng.integers(max(1, nt // 10), max(2, nt)))
            entry.fault = {"t": t, "kind": kind, "message": "chaos fault"}
        entry.break_rung = bool(rng.random() < self.config.break_rate)
        # the sdc draw comes after the legacy draws so adding it does not
        # reshuffle fault decisions of pre-existing chaos configurations;
        # an in-run fault on the same job takes precedence (one armed fault
        # per attempt keeps attribution unambiguous)
        if rng.random() < self.config.sdc_rate and entry.fault is None:
            t = int(rng.integers(max(1, nt // 10), max(2, nt)))
            entry.fault = {"t": t, "kind": "bitflip", "message": "chaos sdc"}
        # hang/poison/kill target the first N submission indices: budgets, not
        # rates, so a test or smoke names exactly how many jobs suffer
        if job_index < self.config.hang_workers:
            entry.hang_seconds = float(self.config.hang_seconds)
        entry.poison = job_index < self.config.poison_jobs
        entry.kill = job_index < self.config.kill_workers
        self._entries[key] = entry
        return entry
