"""The four workloads of the stack benchmark and the loops that measure them.

Three *shot* workloads drive ``Propagator.forward`` under a fixed schedule
(one operation = one forward call); ``survey`` pushes batches of small jobs
through ``repro.jobs.run_batch`` (one operation = one job).  Every timing is a
span in a :class:`repro.telemetry.Telemetry` buffer owned by the harness; the
program is only ever called through its public API.

Untraced loops (``measure_*``) produce the end-to-end metrics.  Traced loops
(``trace_*``) put one harness span around each call into a layer, hand the
same buffer to the program through its public ``telemetry=`` argument so its
own spans nest underneath, and interleave untraced operations so the tracing
overhead is a paired ratio from one process.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import (
    NaiveSchedule,
    Schedule,
    SpatialBlockSchedule,
    TemporalBlockingPipeline,
    WavefrontSchedule,
)
from repro.dsl import SparseTimeFunction
from repro.ir.pycodegen import clear_kernel_caches
from repro.jobs import JobSpec, execute_attempt, run_batch, run_job_inline
from repro.propagators import (
    AcousticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
    point_source,
)
from repro.telemetry import Telemetry, derived_metrics, write_chrome_trace
from repro.telemetry.merge import write_batch_trace

from oracle import Tally, judge, self_test

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

NBL = 8
SPACE_ORDER = 4
#: first-tile length of the set-up metric: one wavefront tile height
FIRST_NT = 4
#: share of ``--seconds`` a traced run spends in its warm loop (each round
#: holds an untraced and a traced operation, so about a quarter of the
#: untraced run's repetitions are traced)
TRACED_SHARE = 2.0 / 3.0


# -- definitions ------------------------------------------------------------------------


@dataclass(frozen=True)
class ShotWorkload:
    name: str
    kind: str  # "acoustic" | "tti"
    interior: int
    nt: int
    nsrc: int
    nrec: int
    schedule: Schedule
    sparse_mode: str  # "precomputed" | "offgrid"
    #: the other schedule of the WTB/spatial pair, timed in the traced run on
    #: the same propagator for ``bench.wtb_over_spatial``
    pair: Optional[Schedule] = None
    #: :class:`HostReference` size: sweeps per call and the call's seconds on
    #: the calibration host in its quiet state
    ref_reps: int = 10
    ref_nominal_s: float = 0.066

    @property
    def ext_side(self) -> int:
        return self.interior + 2 * NBL

    @property
    def ext_points(self) -> int:
        return self.ext_side ** 3

    @property
    def ref_block(self) -> tuple:
        return getattr(self.schedule, "tile", None) or self.schedule.block

    @property
    def work_points(self) -> int:
        """Grid-point updates of one operation (the paper's GPts unit)."""
        return self.ext_points * self.nt


@dataclass(frozen=True)
class SurveyWorkload:
    name: str
    jobs: int = 48
    nt: int = 128
    workers: int = 2
    checked_per_batch: int = 8
    #: the jobs' fixed 12^3 + nbl 2 verification grid
    ext_points: int = 16 ** 3

    @property
    def work_points(self) -> int:
        return self.ext_points * self.nt


_WTB = WavefrontSchedule(tile=(24, 24), height=FIRST_NT)
_SPATIAL = SpatialBlockSchedule(block=(24, 24))

#: why each exists is recorded next to its name in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        ShotWorkload("acoustic_wtb", "acoustic", 128, 16, 1, 64, _WTB, "precomputed", pair=_SPATIAL),
        ShotWorkload("acoustic_spatial", "acoustic", 128, 16, 1, 64, _SPATIAL, "offgrid", pair=_WTB),
        ShotWorkload(
            "tti_dense", "tti", 48, 32, 20000, 20000,
            WavefrontSchedule(tile=(32, 32), height=FIRST_NT), "precomputed",
            ref_reps=80, ref_nominal_s=0.057,
        ),
        SurveyWorkload("survey"),
    )
}


def quick_variant(w):
    """The <30 s smoke-test size of *w*: same code paths, tiny problem."""
    if isinstance(w, SurveyWorkload):
        return dataclasses.replace(w, jobs=4, checked_per_batch=2)
    return dataclasses.replace(
        w, interior=24, nsrc=min(w.nsrc, 200), nrec=min(w.nrec, 200),
        ref_reps=50, ref_nominal_s=0.0105,
    )


@dataclass(frozen=True)
class Effort:
    """Repetition counts; the warm-operation loop also runs until its time
    budget is spent.  Two set-ups are discarded, not one: glibc serves the
    first set-up's arrays from fresh mmaps and the second's from fresh heap,
    and this VM faults new pages at ~0.3 GB/s — only the third set-up sees
    the steady-state allocator every later one does."""

    setups: int
    warmup_setups: int
    warmup_ops: int
    min_ops: int
    min_batches: int
    inline_reps: int


FULL = Effort(setups=8, warmup_setups=2, warmup_ops=2, min_ops=12, min_batches=3, inline_reps=8)
FULL_TRACED = Effort(setups=2, warmup_setups=2, warmup_ops=1, min_ops=3, min_batches=1, inline_reps=8)
QUICK = Effort(setups=2, warmup_setups=1, warmup_ops=1, min_ops=3, min_batches=1, inline_reps=2)


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mib(children: bool = False) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _sample_stats(values: List[float]) -> dict:
    q1, q2, q3 = _quartiles(values)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


# -- host-speed reference ------------------------------------------------------------------


class HostReference:
    """A fixed piece of harness-owned NumPy work, timed right before and
    after every measured operation, that tells how fast the host is running
    *now*.

    This class of shared VM drifts by up to 40 % for minutes at a time
    (neighbours on the same cores and memory channels; CPU time moves with
    wall time, steal stays 0), which shifts every sample of a 15 s run
    together — no statistic within the run can remove it.  The reference is
    the same kind of work as the engine under test — one blocked 7-point
    sweep, ufuncs writing through ``out=`` into strided views — on a grid of
    the workload's size in blocks of the workload's tile, so it sits in the
    same cache and call-overhead regime and slows down with it: over 150 s
    in one process the shot time ranged over 42 % while the median ratio of
    shot to reference per 15 s window stayed within 2 % (IQR).  A measured
    duration is reported *at nominal host speed*::

        seconds * nominal_s / mean(reference before, reference after)

    where ``nominal_s`` is the reference's duration on the calibration host
    in its quiet state (a constant of the workload).  A change to the program
    moves the operation and not the reference; a slow host moves both.
    Shot workloads only: ``survey`` is not NumPy-bound (see
    :func:`measure_survey`).
    """

    def __init__(self, tel: Telemetry, w: ShotWorkload):
        n, (bx, by) = w.ext_side, w.ref_block
        self.tel, self.n, self.block = tel, n, (bx, by)
        self.reps, self.nominal_s = w.ref_reps, w.ref_nominal_s
        self.u = np.random.default_rng(0).random((n, n, n), dtype=np.float32)
        self.v = np.zeros_like(self.u)
        self.tmp = np.empty((bx, by, n - 2), np.float32)
        self.last = 0.0
        self.speeds: List[float] = []

    def _sweep(self) -> None:
        u, v, n = self.u, self.v, self.n
        bx, by = self.block
        sixth = np.float32(1.0 / 6.0)
        for i in range(1, n - 1, bx):
            i1 = min(i + bx, n - 1)
            for j in range(1, n - 1, by):
                j1 = min(j + by, n - 1)
                t = self.tmp[: i1 - i, : j1 - j]
                np.add(u[i - 1:i1 - 1, j:j1, 1:-1], u[i + 1:i1 + 1, j:j1, 1:-1], out=t)
                np.add(t, u[i:i1, j - 1:j1 - 1, 1:-1], out=t)
                np.add(t, u[i:i1, j + 1:j1 + 1, 1:-1], out=t)
                np.add(t, u[i:i1, j:j1, :-2], out=t)
                np.add(t, u[i:i1, j:j1, 2:], out=t)
                np.multiply(t, sixth, out=v[i:i1, j:j1, 1:-1])

    def __call__(self) -> float:
        with self.tel.span("host_reference") as sp:
            for _ in range(self.reps):
                self._sweep()
        return sp.dur

    def mark(self) -> None:
        """Take the reading an interval starts from."""
        self.last = self()

    def speed(self) -> float:
        """Close the interval: host speed relative to nominal (>1: faster)
        from the readings at its two ends; the next interval starts here."""
        before, self.last = self.last, self()
        self.speeds.append(self.nominal_s / (0.5 * (before + self.last)))
        return self.speeds[-1]


# -- shot workloads: inputs ---------------------------------------------------------------


def build_shot(w: ShotWorkload, seed: int):
    """(propagator, dt, inputs digest) — deterministic in (*w*, *seed*).

    The seed moves the off-grid source and receiver coordinates only; the
    two acoustic workloads therefore see the same problem for the same seed.
    """
    shape = (w.interior,) * 3
    vp = layered_velocity(shape, 1.5, 3.0, 3)
    rng = np.random.default_rng(seed)
    if w.kind == "acoustic":
        h = 10.0
        model = SeismicModel(shape, (h,) * 3, vp, nbl=NBL, space_order=SPACE_ORDER)
        cls = AcousticPropagator
    else:
        h = 20.0
        model = SeismicModel(
            shape, (h,) * 3, vp, nbl=NBL, space_order=SPACE_ORDER,
            epsilon=0.12, delta=0.05, theta=0.35, phi=0.4,
        )
        cls = TTIPropagator
    dt = model.critical_dt(w.kind)
    extent = h * (w.interior - 1)
    if w.nsrc == 1:
        center = np.asarray(model.domain_center)
        src_xyz = (center + rng.uniform(-0.2, 0.2, 3) * extent)[None, :]
        # a receiver line along x at quarter depth, jittered off the grid
        rec_xyz = np.empty((w.nrec, 3))
        rec_xyz[:, 0] = np.linspace(0.05 * extent, 0.95 * extent, w.nrec)
        rec_xyz[:, 1] = 0.5 * extent
        rec_xyz[:, 2] = 0.25 * extent
        rec_xyz += rng.uniform(0.0, 0.49 * h, rec_xyz.shape)
    else:
        src_xyz = rng.uniform(0.0, extent, (w.nsrc, 3))
        rec_xyz = rng.uniform(0.0, extent, (w.nrec, 3))
    src = point_source("src", model.grid, w.nt, src_xyz, f0=0.015, dt=dt)
    rec = SparseTimeFunction("rec", model.grid, npoint=w.nrec, nt=w.nt, coordinates=rec_xyz)
    digest = hashlib.sha256()
    for arr in (src.coordinates, rec.coordinates, src.data):
        digest.update(np.ascontiguousarray(arr).tobytes())
    prop = cls(model, space_order=SPACE_ORDER, source=src, receivers=rec)
    return prop, dt, digest.hexdigest()


def _references(w: ShotWorkload, prop, dt):
    """(exact, close) reference traces: the naive schedule in the workload's
    own sparse mode, and — for precomputed workloads — naive with raw
    off-grid operators, which checks the precomputation itself."""
    exact, _ = prop.forward(nt=w.nt, dt=dt, schedule=NaiveSchedule(), sparse_mode=w.sparse_mode)
    close = None
    if w.sparse_mode == "precomputed":
        close, _ = prop.forward(nt=w.nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    return exact, close


def _pair_mode(schedule: Schedule) -> str:
    return "precomputed" if isinstance(schedule, WavefrontSchedule) else "offgrid"


# -- shot workloads: untraced -------------------------------------------------------------


def measure_shots(w: ShotWorkload, seed: int, seconds: float, effort: Effort) -> dict:
    tel = Telemetry()
    ref = HostReference(tel, w)
    prop = dt = digest = None
    setup_raw, setup_s = [], []
    ref.mark()
    for i in range(effort.warmup_setups + effort.setups):
        prop = None
        gc.collect()
        clear_kernel_caches()
        with tel.span("setup", i=i) as sp:
            prop, dt, digest = build_shot(w, seed)
            prop.forward(nt=FIRST_NT, dt=dt, schedule=w.schedule, sparse_mode=w.sparse_mode)
        speed = ref.speed()
        if i >= effort.warmup_setups:
            setup_raw.append(sp.dur)
            setup_s.append(sp.dur * speed)

    exact, close = _references(w, prop, dt)
    tally = Tally()
    shot_raw: List[float] = []
    shot_s: List[float] = []
    rec = None
    deadline = None
    i = 0
    ref.mark()
    while True:
        if i == effort.warmup_ops:
            deadline = tel.now() + seconds
        with tel.span("shot", i=i) as sp:
            rec, _ = prop.forward(nt=w.nt, dt=dt, schedule=w.schedule, sparse_mode=w.sparse_mode)
        speed = ref.speed()
        if i >= effort.warmup_ops:
            shot_raw.append(sp.dur)
            shot_s.append(sp.dur * speed)
            judge(tally, rec, exact, close)
            if len(shot_s) >= effort.min_ops and tel.now() >= deadline:
                break
        i += 1
    self_test(rec, exact, close)

    _, p50, p75 = _quartiles(shot_s)
    return {
        "end_to_end": {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "shot_s_p50": metric(p50, "s"),
            "shot_s_p75": metric(p75, "s"),
            "gpts_per_s": metric(w.work_points / p50 / 1e9, "GPts/s"),
            "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        },
        "tally": tally,
        "samples": {
            "setup_s": _sample_stats(setup_s),
            "shot_s": _sample_stats(shot_s),
            "setup_s_raw": _sample_stats(setup_raw),
            "shot_s_raw": _sample_stats(shot_raw),
            "host_speed": _sample_stats(ref.speeds),
        },
        "exact": {"bench.work_points": w.work_points},
        "inputs_digest": digest,
    }


# -- shot workloads: traced ---------------------------------------------------------------

#: program counters that must repeat bit-for-bit between shots and runs
_EXACT_SHOT_COUNTERS = ("instances", "points_updated", "src_points_injected", "rec_points_gathered")


def _snapshot(tel: Telemetry):
    return dict(tel.phase_seconds), dict(tel.counters)


def _delta(tel: Telemetry, before):
    phases0, counters0 = before
    phases = {k: v - phases0.get(k, 0.0) for k, v in tel.phase_seconds.items()}
    counters = {k: v - counters0.get(k, 0) for k, v in tel.counters.items()}
    return phases, counters


def _traced_forward(tel: Telemetry, name: str, prop, dt, nt: int, w: ShotWorkload):
    """One ``forward`` under a harness span with the program's spans nested
    inside.  Returns (receivers, harness span, program root span, phase
    deltas, counter deltas)."""
    before = _snapshot(tel)
    with tel.span(name) as sp:
        rec, _ = prop.forward(
            nt=nt, dt=dt, schedule=w.schedule, sparse_mode=w.sparse_mode, telemetry=tel
        )
        root = tel.spans[-1]  # the program's outermost span completes last
    if root.name != "apply":
        raise AssertionError(f"expected the program's 'apply' root span, got {root.name!r}")
    phases, counters = _delta(tel, before)
    return rec, sp, root, phases, counters


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _paired_ratio(num: List[float], den: List[float]) -> float:
    """Median of neighbour-by-neighbour ratios: both members of a pair saw
    the same host state, so its drift cancels."""
    return statistics.median(a / b for a, b in zip(num, den))


def _median_of(rows: List[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in rows)


def trace_shots(
    w: ShotWorkload, seed: int, seconds: float, effort: Effort, machine: dict, trace_path
) -> dict:
    tel = Telemetry(detail="phase")
    precomputed = w.sparse_mode == "precomputed"
    prop = dt = digest = pipe = None
    setups: List[dict] = []
    parents = attributed = 0.0
    kernel_hits = kernel_misses = 0
    for i in range(effort.warmup_setups + effort.setups):
        prop = pipe = None
        gc.collect()
        clear_kernel_caches()
        row: Dict[str, float] = {}
        with tel.span("setup", i=i) as sp_setup:
            with tel.span("propagators.build") as sp:
                prop, dt, digest = build_shot(w, seed)
            row["propagators.build_s"] = sp.dur
            with tel.span("ir.lower") as sp:
                op = prop.op
            row["ir.lower_s"] = sp.dur
            for name in ("verify.prove_s", "verify.replay_s"):  # cold, then cached
                with tel.span(name[:-2]) as sp:
                    op.certificate_for(w.schedule, w.sparse_mode)
                    op.bounds_certificate_for(w.schedule, w.sparse_mode)
                row[name] = sp.dur
            if precomputed:
                with tel.span("core.precompute") as sp:
                    pipe = TemporalBlockingPipeline(op, dt).precompute()
                row["core.precompute_s"] = sp.dur
            _, sp, root, phases, counters = _traced_forward(
                tel, "first_forward", prop, dt, FIRST_NT, w
            )
            row["ir.bind_s"] = phases["precompute"]
            leaf = sum(row.values()) - row["ir.bind_s"]
            row_attributed = leaf + (sp.dur - root.dur) + sum(phases.values())
        kernel_hits += counters.get("kernel_cache_hits", 0)
        kernel_misses += counters.get("kernel_cache_misses", 0)
        if i >= effort.warmup_setups:
            setups.append(row)
            parents += sp_setup.dur
            attributed += row_attributed

    exact, close = _references(w, prop, dt)
    tally = Tally()
    plain_s: List[float] = []
    traced_s: List[float] = []
    pair_s: List[float] = []
    shots: List[dict] = []
    exact_counts = None
    rec = None
    deadline = None
    i = 0
    while True:
        if i == effort.warmup_ops:
            deadline = tel.now() + TRACED_SHARE * seconds
        with tel.span("shot.untraced", i=i) as sp_plain:
            rec_plain, _ = prop.forward(nt=w.nt, dt=dt, schedule=w.schedule, sparse_mode=w.sparse_mode)
        rec, sp, root, phases, counters = _traced_forward(tel, "shot", prop, dt, w.nt, w)
        if w.pair is not None:
            with tel.span("shot.pair", i=i) as sp_pair:
                prop.forward(nt=w.nt, dt=dt, schedule=w.pair, sparse_mode=_pair_mode(w.pair))
        if i >= effort.warmup_ops:
            plain_s.append(sp_plain.dur)
            traced_s.append(sp.dur)
            if w.pair is not None:
                pair_s.append(sp_pair.dur)
            judge(tally, rec_plain, exact, close)
            judge(tally, rec, exact, close)
            counts = {k: counters.get(k, 0) for k in _EXACT_SHOT_COUNTERS}
            if exact_counts is None:
                exact_counts = counts
            elif counts != exact_counts:
                raise AssertionError(f"exact counters changed between shots: {counts} != {exact_counts}")
            shots.append({
                **phases,
                "forward_self": sp.dur - root.dur,
                "counters": counters,
            })
            parents += sp.dur
            attributed += (sp.dur - root.dur) + sum(phases.values())
            if len(shots) >= effort.min_ops and tel.now() >= deadline:
                break
        i += 1
    self_test(rec, exact, close)
    write_chrome_trace(tel, trace_path)

    stencil_s = _median_of(shots, "stencil")
    injection_s = _median_of(shots, "injection")
    receivers_s = _median_of(shots, "receivers")
    last = shots[-1]["counters"]
    # achieved rates of one median shot, through the program's own join of
    # measured seconds with its static per-point costs
    one_shot = Telemetry()
    one_shot.meta.update(tel.meta)
    one_shot.counters.update(last)
    one_shot.add_phase("stencil", stencil_s)
    derived = derived_metrics(one_shot)
    gflops = derived["gflops_per_s"] or 0.0
    intensity = derived["intensity_flops_per_byte"] or 0.0
    ceiling = min(
        machine["machine.ufunc_gflops"]["value"],
        machine["machine.triad_gbs"]["value"] * intensity,
    )
    instances = exact_counts["instances"]

    out = {
        "propagators.build_s": metric(_median_of(setups, "propagators.build_s"), "s"),
        "propagators.forward_self_s": metric(_median_of(shots, "forward_self"), "s"),
        "ir.lower_s": metric(_median_of(setups, "ir.lower_s"), "s"),
        "ir.bind_s": metric(_median_of(setups, "ir.bind_s"), "s"),
        "ir.rebind_s": metric(_median_of(shots, "precompute"), "s"),
        "ir.kernel_cache_hit_ratio": metric(_ratio(kernel_hits, kernel_misses), "ratio"),
        "verify.prove_s": metric(_median_of(setups, "verify.prove_s"), "s"),
        "verify.replay_s": metric(_median_of(setups, "verify.replay_s"), "s"),
        "execution.stencil_s": metric(stencil_s, "s"),
        "execution.instances": metric(instances, "count"),
        "execution.points_updated": metric(exact_counts["points_updated"], "count"),
        "execution.us_per_instance": metric(1e6 * stencil_s / instances, "us"),
        "execution.stencil_gpts_per_s": metric(derived["gpoints_per_s"] or 0.0, "GPts/s"),
        "execution.gflops_per_s": metric(gflops, "GFLOP/s"),
        "execution.computed_gbs": metric(gflops / intensity if intensity else 0.0, "GB/s"),
        "execution.roofline_frac": metric(gflops / ceiling if ceiling else 0.0, "ratio"),
        "execution.view_cache_hit_ratio": metric(
            _ratio(last.get("view_cache_hits", 0), last.get("view_cache_misses", 0)), "ratio"
        ),
        "execution.step_cache_hit_ratio": metric(
            _ratio(last.get("step_cache_hits", 0), last.get("step_cache_misses", 0)), "ratio"
        ),
        "telemetry.overhead_frac": metric(_paired_ratio(traced_s, plain_s) - 1.0, "ratio"),
        "bench.unattributed_frac": metric(1.0 - attributed / parents, "ratio"),
        "bench.work_points": metric(w.work_points, "count"),
    }
    exact_out = {
        "bench.work_points": w.work_points,
        "execution.instances": instances,
        "execution.points_updated": exact_counts["points_updated"],
    }
    if precomputed:
        report = pipe.report()
        injected = exact_counts["src_points_injected"]
        out.update({
            "core.precompute_s": metric(_median_of(setups, "core.precompute_s"), "s"),
            "core.affected_points": metric(report.affected_points, "count"),
            "core.aux_bytes": metric(report.aux_bytes, "B"),
            "core.injection_s": metric(injection_s, "s"),
            "core.receivers_s": metric(receivers_s, "s"),
            "core.src_points_injected": metric(injected, "count"),
            "core.rec_points_gathered": metric(exact_counts["rec_points_gathered"], "count"),
            "core.ns_per_src_point": metric(
                1e9 * injection_s / injected if injected else 0.0, "ns"
            ),
        })
        exact_out.update({
            "core.affected_points": report.affected_points,
            "core.aux_bytes": report.aux_bytes,
            "core.src_points_injected": injected,
            "core.rec_points_gathered": exact_counts["rec_points_gathered"],
        })
    else:
        out["execution.raw_injection_s"] = metric(injection_s, "s")
        out["execution.raw_receivers_s"] = metric(receivers_s, "s")
    if w.pair is not None:
        ratio = _paired_ratio(pair_s, plain_s)  # other schedule over this one
        wtb_is_mine = isinstance(w.schedule, WavefrontSchedule)
        out["bench.wtb_over_spatial"] = metric(ratio if wtb_is_mine else 1.0 / ratio, "ratio")
    out.update(machine)
    return {
        "per_layer": out,
        "tally": tally,
        "samples": {
            "shot_s_traced": _sample_stats(traced_s),
            "shot_s_untraced": _sample_stats(plain_s),
        },
        "exact": exact_out,
        "inputs_digest": digest,
    }


# -- survey --------------------------------------------------------------------------------


def survey_specs(w: SurveyWorkload, seed: int, batch: int) -> List[JobSpec]:
    job_seeds = np.random.default_rng([seed, batch]).integers(0, 2**31 - 1, size=w.jobs)
    return [
        JobSpec(
            f"shot-{j:03d}", example="acoustic", nt=w.nt, schedule="wavefront",
            engine="fused", checkpoint_every=8, seed=int(s),
        )
        for j, s in enumerate(job_seeds)
    ]


def _specs_digest(batches: List[List[JobSpec]]) -> str:
    text = json.dumps([[s.to_dict() for s in specs] for specs in batches], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _run_survey_batch(tel, w, seed, batch, workdir, traced: bool):
    """One fresh pool over one batch.  Kernel caches are cleared first so
    the forked daemons start cold, as a fresh supervisor's would."""
    specs = survey_specs(w, seed, batch)
    clear_kernel_caches()
    kwargs = dict(trace=True, telemetry=Telemetry()) if traced else {}
    with tel.span("batch", batch=batch, traced=traced) as sp:
        report = run_batch(
            specs, workers=w.workers, batch_seed=seed + batch, workdir=workdir, **kwargs
        )
    return specs, report, sp, kwargs.get("telemetry")


def _first_completed_ts(report) -> float:
    return next(e["ts"] for e in report.events if e["kind"] == "completed")


def _check_batch(tally: Tally, w, seed, batch, specs, report, keep: list) -> None:
    """Count every job of the batch; jobs that did not complete fail now, a
    seed-chosen sample is compared against ``run_job_inline`` later (after
    the last batch, so the references cannot warm a daemon's caches)."""
    sample = set(
        np.random.default_rng([seed, batch, 1]).choice(
            w.jobs, size=min(w.checked_per_batch, w.jobs), replace=False
        ).tolist()
    )
    for j, (spec, result) in enumerate(zip(specs, report.results)):
        if not result.ok:
            tally.attempted += 1
            tally.failed += 1
        elif j in sample:
            keep.append((spec, result.receivers))
        else:
            tally.attempted += 1


def _judge_kept(tally: Tally, keep: list) -> None:
    if not keep:
        raise AssertionError("no sampled job completed: nothing to check against the reference")
    for spec, rec in keep:
        ref = run_job_inline(spec)
        judge(tally, rec, ref)
    self_test(rec, ref)


@contextmanager
def _workdirs(name: str):
    """Root for batch directories under the benchmark's own ``out/``, removed
    on exit (the pool's default is a temporary directory outside the checkout)."""
    root = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    root.mkdir(parents=True, exist_ok=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def measure_survey(w: SurveyWorkload, seed: int, seconds: float, effort: Effort) -> dict:
    """Wall clock as measured, without the shot workloads' host-speed
    correction: a job's time goes to fsyncs, pipes, forks and interpreter
    overhead on two busy cores, which a single-threaded NumPy reference does
    not track (applied, it tripled the run-to-run spread)."""
    tel = Telemetry()
    tally = Tally()
    keep: list = []
    all_specs, first_s, job_s, gpts = [], [], [], []
    with _workdirs(w.name) as root:
        deadline = None
        batch = 0
        while True:
            if batch == 1:
                deadline = tel.now() + seconds
            specs, report, sp, _ = _run_survey_batch(
                tel, w, seed, batch, _fresh(root / "batch"), traced=False
            )
            if batch >= 1:  # batch 0 pays this process's lazy imports
                all_specs.append(specs)
                first_s.append(_first_completed_ts(report))
                job_s.extend(r.elapsed for r in report.results)
                gpts.append(w.jobs * w.work_points / sp.dur / 1e9)
                _check_batch(tally, w, seed, batch, specs, report, keep)
                if len(first_s) >= effort.min_batches and tel.now() >= deadline:
                    break
            batch += 1
        _judge_kept(tally, keep)
        rss = peak_rss_mib(children=True)

    _, p50, p75 = _quartiles(job_s)
    return {
        "end_to_end": {
            "setup_s": metric(statistics.median(first_s), "s"),
            "shot_s_p50": metric(p50, "s"),
            "shot_s_p75": metric(p75, "s"),
            "gpts_per_s": metric(statistics.median(gpts), "GPts/s"),
            "peak_rss_mib": metric(rss, "MiB"),
        },
        "tally": tally,
        "samples": {
            "setup_s": _sample_stats(first_s),
            "shot_s": _sample_stats(job_s),
            "batch_gpts_per_s": _sample_stats(gpts),
        },
        "exact": {"bench.work_points": w.work_points},
        "inputs_digest": _specs_digest(all_specs),
    }


def _queue_waits(report) -> List[float]:
    queued, waits = {}, []
    for e in report.events:
        if e["kind"] == "queued":
            queued[e["job"]] = e["ts"]
        elif e["kind"] == "started" and e["job"] in queued:
            waits.append(e["ts"] - queued.pop(e["job"]))
    return waits


def _tree_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern))


def trace_survey(
    w: SurveyWorkload, seed: int, seconds: float, effort: Effort, machine: dict, trace_path
) -> dict:
    tel = Telemetry(detail="phase")
    tally = Tally()
    keep: list = []
    all_specs, rows, waits, traced_job_s, plain_job_s = [], [], [], [], []
    with _workdirs(w.name) as root:
        deadline = None
        batch = 0
        while True:
            if batch == 1:
                deadline = tel.now() + TRACED_SHARE * seconds
            # an untraced batch, then a traced one, so the tracing overhead is
            # a ratio of neighbours; both use the same job seeds
            _, plain, _, _ = _run_survey_batch(
                tel, w, seed, batch, _fresh(root / "untraced"), traced=False
            )
            workdir = _fresh(root / "traced")
            specs, report, sp, pool_tel = _run_survey_batch(
                tel, w, seed, batch, workdir, traced=True
            )
            if batch >= 1:
                all_specs.append(specs)
                plain_job_s.extend(r.elapsed for r in plain.results)
                traced_job_s.extend(r.elapsed for r in report.results)
                waits.extend(_queue_waits(report))
                _check_batch(tally, w, seed, batch, specs, report, keep)
                totals = report.phase_totals()
                supervisor = sum(v for k, v in totals.items() if k.startswith("supervisor."))
                rows.append({
                    **{k: v / w.jobs for k, v in totals.items() if "." not in k},
                    **{k: v for k, v in totals.items() if "." in k},
                    "wall": sp.dur,
                    "unattributed": sp.dur - supervisor,
                    "warm_over_cold": report.warm_over_cold() or 0.0,
                    "cold_attempts": report.cold_attempts,
                    "retries": report.retries,
                    "workers_spawned": report.workers_spawned,
                    "journal_records": pool_tel.counters["journal_records"],
                    "journal_bytes": _tree_bytes(workdir, "journal.jsonl"),
                    "result_bytes": _tree_bytes(workdir, "*/result.npz"),
                    "kernel_hits": sum(a.caches.get("kernel_hits", 0) for r in report.results for a in r.attempts),
                    "kernel_misses": sum(a.caches.get("kernel_misses", 0) for r in report.results for a in r.attempts),
                })
                if len(rows) >= effort.min_batches and tel.now() >= deadline:
                    write_batch_trace(report, trace_path.with_name(trace_path.stem + "-batch.json"), pool_tel)
                    break
            batch += 1
        _judge_kept(tally, keep)

        # the layers under the service, in-process on the first checked job
        spec = keep[0][0]
        inline_s, attempt_s, metas = [], [], []
        for i in range(effort.inline_reps + 1):
            with tel.span("jobs.inline_job", i=i) as sp:
                run_job_inline(spec)
            inline_s.append(sp.dur)
            with tel.span("jobs.attempt", i=i) as sp:
                _, meta = execute_attempt(spec, _fresh(root / "attempt"), trace=True)
            attempt_s.append(sp.dur)
            metas.append(meta)
        inline_s, attempt_s, metas = inline_s[1:], attempt_s[1:], metas[1:]
    write_chrome_trace(tel, trace_path)

    exact_keys = ("cold_attempts", "retries", "workers_spawned", "journal_records")
    for key in exact_keys:
        if len({r[key] for r in rows}) != 1:
            raise AssertionError(f"exact counter jobs.{key} changed between batches: {[r[key] for r in rows]}")
    saves = {m["checkpoint_saves"] for m in metas}
    if len(saves) != 1:
        raise AssertionError(f"exact counter runtime.checkpoint_saves changed: {saves}")
    saves = saves.pop()
    payload = metas[-1]["telemetry"]
    stencil_s = statistics.median(m["phase_seconds"].get("stencil", 0.0) for m in metas)
    instances = payload["counters"]["instances"]
    inline = statistics.median(inline_s)
    wall = _median_of(rows, "wall")

    out = {
        "jobs.inline_job_s": metric(inline, "s"),
        "jobs.attempt_s": metric(statistics.median(attempt_s), "s"),
        "jobs.service_overhead": metric((w.workers * wall / w.jobs) / inline, "ratio"),
        "jobs.attempt_spawn_s": metric(_median_of(rows, "spawn"), "s"),
        "jobs.attempt_compile_s": metric(_median_of(rows, "compile"), "s"),
        "jobs.attempt_compute_s": metric(_median_of(rows, "compute"), "s"),
        "jobs.attempt_io_s": metric(_median_of(rows, "io"), "s"),
        "jobs.supervisor_admission_s": metric(_median_of(rows, "supervisor.admission"), "s"),
        "jobs.supervisor_journal_s": metric(_median_of(rows, "supervisor.journal"), "s"),
        "jobs.supervisor_dispatch_s": metric(_median_of(rows, "supervisor.dispatch"), "s"),
        "jobs.supervisor_idle_s": metric(_median_of(rows, "supervisor.idle"), "s"),
        "jobs.supervisor_drain_s": metric(_median_of(rows, "supervisor.drain"), "s"),
        "jobs.queue_wait_s_p50": metric(statistics.median(waits), "s"),
        "jobs.job_s_p95": metric(float(np.percentile(traced_job_s, 95)), "s"),
        "jobs.warm_over_cold": metric(_median_of(rows, "warm_over_cold"), "ratio"),
        "jobs.cold_attempts": metric(rows[0]["cold_attempts"], "count"),
        "jobs.retries": metric(rows[0]["retries"], "count"),
        "jobs.workers_spawned": metric(rows[0]["workers_spawned"], "count"),
        "jobs.journal_records": metric(rows[0]["journal_records"], "count"),
        "jobs.journal_bytes": metric(_median_of(rows, "journal_bytes"), "B"),
        "jobs.result_bytes": metric(_median_of(rows, "result_bytes"), "B"),
        "runtime.checkpoint_saves": metric(saves, "count"),
        "runtime.checkpoint_s_per_save": metric(
            statistics.median(m["phases"]["io"] for m in metas) / saves if saves else 0.0, "s"
        ),
        "ir.rebind_s": metric(
            statistics.median(m["phase_seconds"].get("precompute", 0.0) for m in metas), "s"
        ),
        "ir.kernel_cache_hit_ratio": metric(
            _ratio(sum(r["kernel_hits"] for r in rows), sum(r["kernel_misses"] for r in rows)),
            "ratio",
        ),
        "execution.stencil_s": metric(stencil_s, "s"),
        "execution.instances": metric(instances, "count"),
        "execution.us_per_instance": metric(1e6 * stencil_s / instances, "us"),
        "telemetry.overhead_frac": metric(
            statistics.median(traced_job_s) / statistics.median(plain_job_s) - 1.0, "ratio"
        ),
        "bench.unattributed_frac": metric(
            sum(r["unattributed"] for r in rows) / sum(r["wall"] for r in rows), "ratio"
        ),
        "bench.work_points": metric(w.work_points, "count"),
    }
    out.update(machine)
    exact_out = {f"jobs.{k}": rows[0][k] for k in exact_keys}
    exact_out.update({
        "runtime.checkpoint_saves": saves,
        "execution.instances": instances,
        "bench.work_points": w.work_points,
    })
    return {
        "per_layer": out,
        "tally": tally,
        "samples": {
            "job_s_traced": _sample_stats(traced_job_s),
            "job_s_untraced": _sample_stats(plain_job_s),
        },
        "exact": exact_out,
        "inputs_digest": _specs_digest(all_specs),
    }


# -- host calibration ---------------------------------------------------------------------


def calibrate_host(cap_mib: int) -> dict:
    """Run ``calibrate.py`` in its own process (its arrays must not count in
    this process's memory, and its page faults must not overlap a timed
    region) and return its metrics."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py"), "--cap-mib", str(cap_mib)],
        capture_output=True, text=True, check=True, timeout=150,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])
