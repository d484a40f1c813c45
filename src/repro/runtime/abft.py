"""The run's one numerical guard: amplitude invariants at tile boundaries.

Under the paper's temporal blocking the time tile is the only point where
the state is consistent, so the guard checks there — a time tile under
wavefront blocking, one timestep otherwise — and its verdict tells two
failures apart:

* **blow-up** — a non-finite exit amplitude (NaN/Inf, injected or a real
  overflow) raises :class:`~repro.errors.NumericalBlowup` with the entry
  timestep, field and first offending grid point.  Re-executing would
  reproduce it, so it is never contained: it escapes to the
  checkpoint-restart / job-retry layer, before the tile's checkpoint save.
* **silent corruption** — a flipped exponent bit leaves a perfectly finite
  value.  What sees it is physics: an explicit finite-difference step can
  only amplify the state's max-norm by a bounded factor ``G`` (certified per
  apply by :func:`repro.verify.absint.growth.prove_growth`), so across a
  time tile of height ``h``

      ``|u|_exit  <=  SLACK * G**h * (|u|_entry + S_tile) + FLOOR``

  where ``S_tile`` bounds the amplitude injected by the sources during the
  tile.  A finite exit above that bound raises
  :class:`~repro.errors.SilentCorruptionError`; the guard keeps the entry
  state of the current unit (one :class:`~repro.runtime.checkpoint.Snapshot`,
  the same live-slot capture a checkpoint stores), and the executor restores
  it and re-executes only the affected tile instead of restarting the job.

:class:`ABFTGuard` is threaded through ``Operator.apply(abft=...)`` /
``Propagator.forward(abft=...)`` exactly like the other resilience
facilities.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import NumericalBlowup, SilentCorruptionError
from .checkpoint import Snapshot, _live_slots, _wavefields, capture_snapshot, restore_snapshot

__all__ = ["ABFTGuard"]

#: multiplicative headroom on the certified bound: absorbs the gap between
#: the interval bound (worst-case sign alignment) and FP rounding — real
#: growth is far *below* G, so slack only guards against pathological
#: near-bound dynamics raising false positives
SLACK = 8.0

#: absolute amplitude floor: exits below this are never flagged (an
#: all-zero tile must not trip on rounding noise)
FLOOR = 1e-18

#: re-executions of one containment unit before silent corruption escalates
#: to the checkpoint-restart / job-retry layer
MAX_REEXECUTIONS = 2


def _per_step_source_amplitude(plan) -> float:
    """Upper bound on the max-norm amplitude any single timestep's source
    injection can add to a wavefield.

    Aligned injection adds exactly one decomposed amplitude per affected
    grid point, so its per-step bound is the max decomposed amplitude; raw
    injection scatters ``weights * data[t]`` over support corners, bounded
    by the total weight mass times the max wavelet sample.  A constant
    (whole-run max) per-step bound is used — looser than a per-tile window,
    but detection targets corruptions many orders of magnitude out, and a
    looser bound only *lowers* the false-positive risk.
    """
    total = 0.0
    for lst in plan.injections.values():
        for inj in lst:
            amps = getattr(inj, "_amplitudes", None)
            if amps is not None:  # AlignedInjection: one add per point
                a = np.asarray(amps)
                if a.size:
                    total += float(np.abs(a).max())
                continue
            weights = getattr(inj, "scaled_weights", None)
            data = getattr(inj, "data", None)
            if weights is not None and data is not None:
                d = np.asarray(data)
                if d.size:
                    total += float(np.abs(weights).sum()) * float(np.abs(d).max())
    return total


def _blowup(func, t0: int, t1: int) -> NumericalBlowup:
    """The blow-up verdict for *func*'s non-finite exit state at *t1*: the
    first offending grid point (interior coordinates — a halo point falls
    outside ``[0, shape)``) and the non-finite count over the live slots."""
    bad = [~np.isfinite(func._data[i]) for i in _live_slots(func, t1)]
    first = next(b for b in bad if b.any())
    point = tuple(int(i) - func.halo for i in np.argwhere(first)[0])
    return NumericalBlowup(
        f"non-finite wavefield values at tile exit, first at grid point {point}",
        t=t0,
        field=func.name,
        point=point,
        count=int(sum(int(b.sum()) for b in bad)),
        t1=t1,
    )


class ABFTGuard:
    """Checks the state at containment-unit boundaries and owns the entry
    snapshot that makes tile-granular recovery possible.

    Lifecycle: ``ABFTGuard()``, handed to ``apply(abft=...)``; every apply
    calls :meth:`configure` with the bound plan and that apply's fresh
    :class:`~repro.verify.certificate.GrowthCertificate`, and the executors
    call :meth:`tile_entry` / :meth:`tile_check` through the
    :class:`~repro.runtime.monitor.RuntimeMonitor` at every boundary — time
    tiles under wavefront blocking, single timesteps otherwise.  A
    non-finite exit is a :class:`~repro.errors.NumericalBlowup`; a finite
    exit over the certified bound is a
    :class:`~repro.errors.SilentCorruptionError`, on which the executor calls
    :meth:`restore` and re-executes the unit; :attr:`stats` and
    :attr:`events` feed the job-service journal and metrics.

    An unbounded certificate (infinite gain, e.g. an abstract division by an
    interval straddling zero) disables the amplitude invariant — blow-ups are
    still caught — and :attr:`amplitude_active` reports it.
    """

    def __init__(self):
        self.certificate = None
        self.stats: Dict[str, float] = {
            "checks": 0,
            "detections": 0,
            "tiles_reexecuted": 0,
            "micro_snapshots": 0,
            "micro_snapshot_bytes": 0,
        }
        #: detection/recovery events, journaled by the job service
        self.events: List[dict] = []
        #: the current unit's entry snapshot, overwritten in place each entry
        self._snap: Optional[Snapshot] = None
        self._step_gain = math.inf
        self._per_step_source = 0.0
        self._entry: Dict[str, float] = {}
        self._exit_cache: Optional[tuple] = None

    # -- configuration (Operator.apply) --------------------------------------------
    def configure(self, plan, certificate) -> None:
        """Bind to *plan* under *certificate*, the growth proof of this very
        apply — a guard reused across applies never checks against a model
        that has since been updated in place."""
        self.certificate = certificate
        self._step_gain = certificate.step_gain if certificate.check() else math.inf
        self._per_step_source = _per_step_source_amplitude(plan)
        self._snap = None
        self._entry.clear()
        self._exit_cache = None

    @property
    def amplitude_active(self) -> bool:
        return math.isfinite(self._step_gain)

    # -- boundary hooks (RuntimeMonitor) -------------------------------------------
    def tile_entry(self, plan, t0: int, t1: int) -> None:
        """Record entry amplitudes and capture the entry snapshot into the
        previous unit's buffers (memcpy, not allocation)."""
        if self._exit_cache is not None and self._exit_cache[0] == t0:
            self._entry = dict(self._exit_cache[1])
        else:
            self._entry = {
                name: self._amplitude(func, t0)
                for name, func in _wavefields(plan).items()
            }
        self._snap = capture_snapshot(plan, t0, recycle=self._snap)
        self.stats["micro_snapshots"] += 1
        self.stats["micro_snapshot_bytes"] += self._snap.nbytes()

    def tile_check(self, plan, t0: int, t1: int) -> None:
        """Judge the state at the exit boundary *t1* of the unit ``[t0, t1)``.

        A non-finite exit amplitude raises
        :class:`~repro.errors.NumericalBlowup` (``t=t0``, ``t1``, the field,
        its first non-finite point and their count); a finite one above the
        certified bound raises :class:`~repro.errors.SilentCorruptionError`.
        """
        height = max(t1 - t0, 1)
        gain = self._step_gain ** height
        source = self._per_step_source * height
        exits: Dict[str, float] = {}
        for name, func in _wavefields(plan).items():
            observed = self._amplitude(func, t1)
            exits[name] = observed
            self.stats["checks"] += 1
            if not math.isfinite(observed):
                raise _blowup(func, t0, t1)
            entry = self._entry.get(name, 0.0)
            bound = SLACK * gain * (entry + source) + FLOOR
            if observed <= bound or not self.amplitude_active:
                continue
            self.stats["detections"] += 1
            self.events.append(
                {
                    "kind": "detection",
                    "detector": "growth",
                    "t0": int(t0),
                    "t1": int(t1),
                    "field": name,
                    "bound": float(bound) if math.isfinite(bound) else None,
                    "observed": observed,
                }
            )
            raise SilentCorruptionError(
                f"amplitude invariant violated at tile exit: "
                f"|{name}| = {observed:.6g} exceeds the certified bound "
                f"{bound:.6g} (entry {entry:.6g}, gain {gain:.6g}, "
                f"source {source:.6g})",
                t=t1 - 1,
                field=name,
                bound=float(bound) if math.isfinite(bound) else None,
                observed=observed,
                detector="growth",
            )
        self._exit_cache = (t1, exits)

    def restore(self, plan, t0: int, attempt: int = 1) -> bool:
        """Restore the entry snapshot of the unit starting at *t0* for
        its *attempt*-th re-execution.

        Returns False when the unit's re-execution budget
        (:data:`MAX_REEXECUTIONS`) is spent or the guard holds no snapshot
        of *t0* — the caller then falls back to the ordinary
        checkpoint-restart path by letting the error propagate.
        """
        if attempt > MAX_REEXECUTIONS:
            return False
        if self._snap is None or self._snap.step != t0:
            self.events.append({"kind": "fallback", "t0": int(t0)})
            return False
        restore_snapshot(plan, self._snap)
        self._exit_cache = None
        self.stats["tiles_reexecuted"] += 1
        self.events.append({"kind": "reexecute", "t0": int(t0)})
        return True

    # -- internals -------------------------------------------------------------------
    @staticmethod
    def _amplitude(func, boundary: int) -> float:
        """Max-norm over the live slots at *boundary* (full padded buffers:
        corruption in a halo is corruption too).

        Computed as ``max(max, -min)`` rather than ``abs().max()`` — two
        read-only passes instead of a full-size temporary, which on the hot
        per-tile path is the difference between a measurable and a
        negligible guard.  NaN needs explicit care here: Python's ``max``
        silently drops it (``nan > x`` is False), so a NaN in either extreme
        short-circuits to NaN and lets the boundary check flag it.
        """
        amp = 0.0
        for idx in _live_slots(func, boundary):
            data = func._data[idx]
            hi = float(data.max())
            lo = float(data.min())
            if math.isnan(hi) or math.isnan(lo):
                return math.nan
            amp = max(amp, hi, -lo)
        return amp

    def describe(self) -> dict:
        """Stats + certificate summary for job metadata / journaling."""
        out = dict(self.stats)
        out["events"] = list(self.events)
        out["amplitude_active"] = self.amplitude_active
        if self.certificate is not None:
            out["step_gain"] = (
                self.certificate.step_gain
                if math.isfinite(self.certificate.step_gain)
                else None
            )
        return out

    def __repr__(self) -> str:
        gain = f"{self._step_gain:.3g}" if self.certificate is not None else "unconfigured"
        return (
            f"ABFTGuard(gain={gain}, "
            f"checks={self.stats['checks']}, detections={self.stats['detections']})"
        )
