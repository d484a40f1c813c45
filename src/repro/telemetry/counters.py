"""Per-phase counters and the derived achieved-performance metrics.

:class:`Counters` is a plain ``dict`` of integer tallies with an ``add``
helper; the executor flushes locally-accumulated tallies into it once per run
so the hot loop pays Python-int additions only.

Counter taxonomy (all optional — absent means the producer never ran).
These are the tallies of one :class:`~repro.telemetry.spans.Telemetry`
buffer; what a job service's batch did is a different thing, read from its
journal by ``python -m repro.jobs.status``:

* ``instances`` / ``sweep{j}.instances`` — executed sweep instances.
* ``points_updated`` — grid-point *updates* (box points × equations of the
  sweep); ``sweep{j}.points`` — box points per sweep (once per instance,
  not per equation) — the quantity flop/traffic models scale with.
* ``src_points_injected`` / ``rec_points_gathered`` / ``rec_rows_finalized``
  — sparse-operator work items: the sums of what ``apply``/``gather``
  returned (grid-aligned points for the precomputed path, support corners
  for the raw off-the-grid injection, 0 for the raw receiver, which
  measures only at ``finalize``) and the ``finalize`` calls made.
* ``view_cache_hits`` / ``view_cache_misses`` — the compiled engines'
  memoised ``(t, box)`` bindings (:class:`~repro.execution.evalbox.BoundSweep`:
  array views under ``fused``, pointer tables under ``c``).
* ``kernel_cache_hits`` / ``kernel_cache_misses`` — compiled sweeps of one
  bind served by the process-wide bind table
  (:func:`repro.ir.pycodegen.structural`), or compiled (one per front half,
  counted even if the C rung then fails to build); a warm worker's second
  job of a structure is all hits, which is the whole point of keeping it
  alive.
* ``c_cache_hits`` / ``c_cache_misses`` — the C rung's shared objects per
  bind: served from this process or the on-disk cache (hit), or compiled
  (miss; the seconds are ``meta["c_compile_s"]``, inside ``precompute``).
* ``step_cache_hits`` / ``step_cache_misses`` — step-list lookups per time
  tile (:mod:`repro.execution.executors`); a hit means the geometry was
  replayed from a list :func:`repro.core.scheduler.lower` built earlier in
  this process (an earlier tile, run or — in a warm worker — job) instead
  of recomputed.
* ``checkpoint_saves``, ``faults_fired``, ``abft_checks`` /
  ``abft_detections`` / ``abft_micro_snapshots`` /
  ``abft_micro_snapshot_bytes`` / ``abft_reexecutions`` — runtime-monitor
  and guard activity (:mod:`repro.runtime`).
* ``engine_fallbacks`` — c→fused→interp ladder transitions during
  binding, one per rung that failed to build
  (:meth:`repro.ir.operator.Operator._build_sweeps`).
* ``journal_records`` — write-ahead journal appends
  (:mod:`repro.jobs.journal`), the one counter of a job pool's buffer (its
  lifecycle is the ``job.*`` events): each one is a durable, fsynced state
  transition of the batch (what they cost is the supervisor's ``journal``
  bucket, ``BatchReport.supervisor_seconds``).

The derived metrics join the measured counters and phase seconds with the
*static* per-point costs of :mod:`repro.analysis.metrics` (flop and access
counts stored into ``telemetry.meta`` by ``Operator.apply``): achieved
GPts/s and GFLOP/s come from measured stencil seconds, and the achieved
arithmetic intensity uses a minimum-traffic byte model (each static access
moves its dtype width exactly once per point) — an optimistic bound, the
same convention the roofline model uses.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "Counters",
    "stencil_gpoints_per_s",
    "derived_metrics",
]


class Counters(dict):
    """Integer tallies; missing keys read as 0."""

    def add(self, key: str, n: int = 1) -> None:
        self[key] = self.get(key, 0) + int(n)

    def __missing__(self, key):
        return 0

    def to_dict(self) -> Dict[str, int]:
        return {k: int(v) for k, v in sorted(self.items())}


def stencil_gpoints_per_s(points_updated: float, stencil_seconds: float) -> Optional[float]:
    """Achieved sweep throughput in GPts/s (the paper's Fig. 9-11 metric):
    the ``points_updated`` counter over the measured ``stencil`` phase
    seconds — precomputation and sparse work excluded, unlike a division by
    a wall time taken from outside.  ``None`` when either input is missing.
    The one definition: a run's :func:`derived_metrics` and the batch-wide
    figure of ``jobs status`` both come from here."""
    if stencil_seconds <= 0 or not points_updated:
        return None
    return points_updated / stencil_seconds / 1e9


def derived_metrics(telemetry) -> Dict[str, Optional[float]]:
    """Join measured counters/seconds with the static per-point costs.

    Returns ``gpoints_per_s`` (:func:`stencil_gpoints_per_s`),
    ``gflops_per_s`` and ``intensity_flops_per_byte`` (``None`` whenever the
    inputs to a metric are missing — e.g. no static costs registered, or the
    stencil phase never ran).
    """
    counters = telemetry.counters
    stencil = telemetry.phase_seconds.get("stencil", 0.0)
    out: Dict[str, Optional[float]] = {
        "gpoints_per_s": stencil_gpoints_per_s(counters.get("points_updated", 0), stencil),
        "gflops_per_s": None,
        "intensity_flops_per_byte": None,
    }
    sweep_flops = telemetry.meta.get("sweep_flops")
    sweep_accesses = telemetry.meta.get("sweep_accesses")
    dtype_bytes = telemetry.meta.get("dtype_bytes", 4)
    if sweep_flops:
        flops = 0.0
        bytes_moved = 0.0
        for j, fl in enumerate(sweep_flops):
            pts = counters.get(f"sweep{j}.points", 0)
            flops += pts * fl
            if sweep_accesses:
                bytes_moved += pts * sweep_accesses[j] * dtype_bytes
        if stencil > 0 and flops:
            out["gflops_per_s"] = flops / stencil / 1e9
        if bytes_moved > 0 and flops:
            out["intensity_flops_per_byte"] = flops / bytes_moved
    return out
