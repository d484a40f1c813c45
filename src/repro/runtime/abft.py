"""Algorithm-based fault tolerance: amplitude invariants at tile boundaries.

The NaN/Inf health guard cannot see *silent* data corruption — a flipped
exponent bit leaves a perfectly finite value.  What does see it is physics:
an explicit finite-difference step can only amplify the state's max-norm by
a bounded factor ``G`` (certified per operator by
:func:`repro.verify.absint.growth.prove_growth`), so across a time tile of
height ``h``

    ``|u|_exit  <=  slack * G**h * (|u|_entry + S_tile) + floor``

where ``S_tile`` bounds the amplitude injected by the sources during the
tile.  A finite bit flip that rewrites an exponent field lands many orders
of magnitude above that bound and is caught at the *next tile boundary* —
which, under the paper's temporal blocking, makes the time tile the natural
fault-containment unit: the guard captures a
:class:`~repro.runtime.checkpoint.MicroSnapshot` of the live entry state at
every boundary, and on a violation the executor restores it and re-executes
only the affected tile instead of restarting the job.

:class:`ABFTGuard` is threaded through ``Operator.apply(abft=...)`` /
``Propagator.forward(abft=...)`` exactly like the other resilience
facilities.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from ..errors import SilentCorruptionError

__all__ = ["ABFTGuard", "amplitude_ceiling", "DEFAULT_SLACK"]

#: multiplicative headroom on the certified bound: absorbs the gap between
#: the interval bound (worst-case sign alignment) and FP rounding — real
#: growth is far *below* G, so slack only guards against pathological
#: near-bound dynamics raising false positives
DEFAULT_SLACK = 8.0

#: absolute amplitude floor: exits below this are never flagged (an
#: all-zero tile must not trip on rounding noise)
DEFAULT_FLOOR = 1e-18


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


def amplitude_ceiling(plan, nt: int, step_gain: float = 1.0) -> Optional[float]:
    """A whole-run amplitude ceiling for :class:`~repro.runtime.health.
    HealthGuard.max_abs`, derived from the CFL amplification bound.

    For a CFL-stable explicit scheme the discrete energy — and with it the
    max-norm — is bounded by the total injected source amplitude; the
    certified per-step gain enters only over the guard's *detection
    latency* (one check cadence), not the whole run, since the state was
    verified bounded at the previous check.  ``1e3`` of slack absorbs
    geometric focusing and boundary effects.  Returns ``None`` when the
    plan has no sources and zero initial state gives no scale to bound
    against.
    """
    per_step = _per_step_source_amplitude(plan)
    entry = 0.0
    for func in _time_functions(plan).values():
        entry = max(entry, float(np.abs(func.data_with_halo).max()))
    scale = entry + per_step * max(int(nt), 1)
    if scale <= 0.0:
        return None
    gain = step_gain if math.isfinite(step_gain) else 1.0
    return 1e3 * max(gain, 1.0) * scale


def _time_functions(plan) -> Dict:
    from .checkpoint import _plan_time_functions

    return _plan_time_functions(plan)


class ABFTGuard:
    """Detects silent corruption at containment-unit boundaries and owns the
    micro-snapshot ring that makes tile-granular recovery possible.

    Lifecycle: construct unconfigured (``ABFTGuard()``), hand to
    ``apply(abft=...)``; the operator calls :meth:`configure` with the bound
    plan (proving the :class:`~repro.verify.certificate.GrowthCertificate`
    unless one was supplied), and the executors call :meth:`tile_entry` /
    :meth:`tile_check` through the :class:`~repro.runtime.monitor.
    RuntimeMonitor` at every boundary — time tiles under wavefront blocking,
    single timesteps otherwise.  On a violation the executor calls
    :meth:`restore` and re-executes the unit; :attr:`stats` and
    :attr:`events` feed the job-service journal and metrics.

    An unbounded certificate (infinite gain, e.g. an abstract division by an
    interval straddling zero) disables the amplitude invariant — the guard
    still captures micro-snapshots so checksum-triggered recovery works —
    and :attr:`amplitude_active` reports it.
    """

    def __init__(
        self,
        slack: float = DEFAULT_SLACK,
        floor: float = DEFAULT_FLOOR,
        micro_keep: Optional[int] = None,
        max_reexecutions: int = 2,
        certificate=None,
    ):
        if slack < 1.0:
            raise ValueError("slack must be >= 1")
        self.slack = float(slack)
        self.floor = float(floor)
        self.micro_keep = int(micro_keep) if micro_keep is not None else None
        self.max_reexecutions = int(max_reexecutions)
        self.certificate = certificate
        self.stats: Dict[str, float] = {
            "checks": 0,
            "detections": 0,
            "tiles_reexecuted": 0,
            "micro_snapshots": 0,
            "micro_snapshot_bytes": 0,
            "seconds": 0.0,
        }
        #: detection/recovery events, journaled by the job service
        self.events: List[dict] = []
        self._ring: List = []
        self._step_gain = math.inf
        self._per_step_source = 0.0
        self._entry: Dict[str, float] = {}
        self._exit_cache: Optional[tuple] = None
        self._configured = False

    # -- configuration (Operator.apply) --------------------------------------------
    def configure(self, plan, operator: str = "operator", dt: float = 1.0) -> None:
        """Prove (or adopt) the growth certificate and bind to *plan*."""
        if self.certificate is None:
            from ..verify.absint.growth import prove_growth

            self.certificate = prove_growth(plan.sweeps, operator=operator, dt=dt)
        self._step_gain = (
            self.certificate.step_gain if self.certificate.check() else math.inf
        )
        self._per_step_source = _per_step_source_amplitude(plan)
        if self.micro_keep is None:
            self.micro_keep = 2
        self._ring.clear()
        self._entry.clear()
        self._exit_cache = None
        self._configured = True

    @property
    def amplitude_active(self) -> bool:
        return self._configured and math.isfinite(self._step_gain)

    # -- boundary hooks (RuntimeMonitor) -------------------------------------------
    def tile_entry(self, plan, t0: int, t1: int) -> None:
        """Record entry amplitudes and capture the entry micro-snapshot."""
        start = time.perf_counter()
        funcs = _time_functions(plan)
        if self._exit_cache is not None and self._exit_cache[0] == t0:
            self._entry = dict(self._exit_cache[1])
        else:
            self._entry = {
                name: self._amplitude(func, t0) for name, func in funcs.items()
            }
        from .checkpoint import capture_micro_snapshot

        self._ring = [s for s in self._ring if s.step != t0]
        keep = max(self.micro_keep or 2, 1)
        recycle = None
        if len(self._ring) >= keep:
            # the oldest snapshot is about to fall off the ring: donate its
            # buffers so the capture below is memcpy, not allocation
            recycle = self._ring[0]
            del self._ring[: len(self._ring) - keep + 1]
        snap = capture_micro_snapshot(plan, t0, recycle=recycle)
        self._ring.append(snap)
        self.stats["micro_snapshots"] += 1
        self.stats["micro_snapshot_bytes"] += snap.nbytes()
        self.stats["seconds"] += time.perf_counter() - start

    def tile_check(self, plan, t0: int, t1: int) -> None:
        """Verify the amplitude invariant at the exit boundary *t1*.

        Raises :class:`~repro.errors.SilentCorruptionError` on a violation —
        including a non-finite exit amplitude, which a corrupted value can
        reach by overflowing during propagation within the tile.
        """
        start = time.perf_counter()
        funcs = _time_functions(plan)
        height = max(t1 - t0, 1)
        gain = self._step_gain ** height if self.amplitude_active else math.inf
        source = self._per_step_source * height
        exits: Dict[str, float] = {}
        try:
            for name, func in funcs.items():
                observed = self._amplitude(func, t1)
                exits[name] = observed
                self.stats["checks"] += 1
                entry = self._entry.get(name, 0.0)
                bound = self.slack * gain * (entry + source) + self.floor
                if observed <= bound and math.isfinite(observed):
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
                        "observed": float(observed)
                        if math.isfinite(observed)
                        else None,
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
                    observed=float(observed) if math.isfinite(observed) else None,
                    detector="growth",
                )
            self._exit_cache = (t1, exits)
        finally:
            self.stats["seconds"] += time.perf_counter() - start

    def restore(self, plan, t0: int) -> bool:
        """Restore the entry micro-snapshot of the unit starting at *t0*.

        Returns False when the ring no longer holds it — the caller then
        falls back to the ordinary checkpoint-restart path by letting the
        error propagate.
        """
        snap = next((s for s in self._ring if s.step == t0), None)
        if snap is None:
            self.events.append({"kind": "fallback", "t0": int(t0)})
            return False
        start = time.perf_counter()
        from .checkpoint import restore_micro_snapshot

        restore_micro_snapshot(plan, snap)
        self._exit_cache = None
        self.stats["tiles_reexecuted"] += 1
        self.events.append({"kind": "reexecute", "t0": int(t0)})
        self.stats["seconds"] += time.perf_counter() - start
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
        seen = set()
        for k in range(func.time_order):
            idx = (boundary - k) % func.buffers
            if idx in seen:
                continue
            seen.add(idx)
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
        gain = f"{self._step_gain:.3g}" if self._configured else "unconfigured"
        return (
            f"ABFTGuard(gain={gain}, slack={self.slack}, "
            f"checks={self.stats['checks']}, detections={self.stats['detections']})"
        )
