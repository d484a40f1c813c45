"""Kernel-engine trajectory bench: fused three-address engine vs the
tree-walking interpreter.

Times the small-grid acoustic workload (the wall-clock corroboration setup of
``bench_realexec_smallgrid``) under naive / spatially blocked / wavefront
schedules with each execution engine, prints a table, and writes the
machine-readable ``BENCH_engine.json`` at the repo root so later PRs can
track the perf trajectory.

The ``interp`` series is an engine-only ablation: it shares every other fast
path (indexed+memoised sparse lookups, memoised step lists).  (The seed's
per-equation ``kernel`` engine was removed in PR 17; EXPERIMENTS.md keeps its
last measurement.)

Run directly::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --guards

or through pytest (slow-marked)::

    pytest benchmarks/bench_engine.py -m slow

``--guards`` times the fused engine with the runtime health guard attached
at its default cadence (NaN/Inf scan of the written views every
``DEFAULT_CHECK_EVERY`` sweep instances) against unguarded runs, plus a
paired on/off series of the ABFT silent-corruption guard (growth proof,
per-tile amplitude scans, entry micro-snapshots — median-of-ratios
estimator), and merges the per-schedule overhead into
``BENCH_engine.json`` under ``"guards"`` (ABFT under ``"guards"/"abft"``).

``--verify`` times the schedule-legality prover (cold ``prove_schedule``
plus the cached ``certificate_for`` replay every wavefront ``apply`` hits)
and merges the wall-clock into ``BENCH_engine.json`` under ``"verify"``.

``--telemetry`` times the fused engine with a phase-detail
:class:`~repro.telemetry.Telemetry` buffer attached against bare runs,
records the per-phase breakdown / coverage / counters / achieved GPts/s of
the fastest instrumented round, checks receiver bit-identity between the
two series, and merges everything into ``BENCH_engine.json`` under
``"telemetry"``.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.execution.evalbox import ENGINES
from repro.propagators import point_source, receiver_line

from paper_setup import build_propagator

NT = 16
SHAPE = (36, 36, 36)
SPACE_ORDER = 8
REPEATS = 15
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"


def schedules():
    return {
        "naive": NaiveSchedule(),
        "spatial": SpatialBlockSchedule(block=(12, 12)),
        "wavefront": WavefrontSchedule(tile=(9, 9), block=(9, 9), height=4),
    }


def build(so=SPACE_ORDER):
    prop = build_propagator("acoustic", so, shape=SHAPE, nbl=4)
    dt = prop.critical_dt()
    prop.source = point_source(
        "src", prop.grid, NT + 2, [prop.model.domain_center], f0=0.02, dt=dt
    )
    prop.receivers = receiver_line("rec", prop.grid, NT + 2, npoint=8, depth=40.0)
    prop._op = None  # rebuild with the sparse operators attached
    return prop, dt


def time_engines(prop, dt, schedule, repeats=REPEATS):
    """Min-of-N steady-state wall-clock per engine.

    All series are timed in *interleaved rounds* — one measurement per series
    per round, round after round — rather than consecutive per-engine blocks.
    On a shared single-vCPU container, noisy-neighbour interference arrives
    in multi-second waves; consecutive blocks can land one engine entirely
    inside a wave and another entirely outside it, skewing ratios either
    way.  Interleaving makes every series sample the same noise landscape,
    so min-of-rounds converges to each series' quiet-state time and the
    ratios are stable.
    """
    for engine in ENGINES:  # physics sanity + kernel compilation before timing
        rec, _ = prop.forward(nt=NT, dt=dt, schedule=schedule, engine=engine)
        assert np.isfinite(rec).all()
    series = {name: [] for name in ENGINES}
    for _ in range(repeats):
        for engine in ENGINES:
            t0 = time.perf_counter()
            prop.forward(nt=NT, dt=dt, schedule=schedule, engine=engine)
            series[engine].append(time.perf_counter() - t0)
    return {name: min(vals) for name, vals in series.items()}


def run_bench(repeats=REPEATS):
    prop, dt = build()
    results = {}
    for sched_name, sched in schedules().items():
        results[sched_name] = time_engines(prop, dt, sched, repeats=repeats)
    report = {
        "bench": "engine",
        "workload": {
            "kind": "acoustic",
            "space_order": SPACE_ORDER,
            "shape": list(SHAPE),
            "nbl": 4,
            "nt": NT,
            "repeats": repeats,
            "timing": "min over N interleaved rounds, warm runs before timed",
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seconds": results,
        "speedup_fused_over_interp": {
            s: results[s]["interp"] / results[s]["fused"] for s in results
        },
    }
    return report


def write_report(report, path=RESULT_PATH):
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_report(report):
    print(f"# engine bench — acoustic so={SPACE_ORDER} {SHAPE}, nt={NT}")
    print(f"{'schedule':<12} " + " ".join(f"{e:>10}" for e in ENGINES) + f" {'interp/fused':>13}")
    for sched, row in report["seconds"].items():
        sp = report["speedup_fused_over_interp"][sched]
        cells = " ".join(f"{row[e]*1e3:>8.2f}ms" for e in ENGINES)
        print(f"{sched:<12} {cells} {sp:>12.2f}x")


def time_guards(prop, dt, schedule, repeats=REPEATS):
    """Min-of-N fused wall-clock with and without the default health guard.

    Interleaved rounds for the same reason as :func:`time_engines`: both
    series must sample the same noise landscape for the overhead ratio to be
    meaningful.  A fresh :class:`HealthGuard` per round keeps the cadence
    phase identical across rounds.
    """
    from repro.runtime import HealthGuard

    prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")  # warm
    series = {"unguarded": [], "guarded": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")
        series["unguarded"].append(time.perf_counter() - t0)
        guard = HealthGuard()  # DEFAULT_CHECK_EVERY cadence
        t0 = time.perf_counter()
        prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused", health=guard)
        series["guarded"].append(time.perf_counter() - t0)
    out = {name: min(vals) for name, vals in series.items()}
    out["overhead"] = out["guarded"] / out["unguarded"] - 1.0
    return out


def time_abft(prop, dt, schedule, repeats=REPEATS):
    """Paired on/off wall-clock of the ABFT silent-corruption guard.

    Same interleaved-round discipline, but the estimator is the *median of
    paired on/off ratios* (each round's guarded run divided by its own
    unguarded partner) — on a shared vCPU that isolates the detection cost
    from the multi-second noise waves far better than an unpaired
    min-over-min.  A fresh :class:`ABFTGuard` per round pays the whole cost
    honestly: growth-certificate proof, per-tile amplitude scans and
    entry micro-snapshots included.
    """
    from repro.runtime import ABFTGuard

    prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")  # warm
    series = {"off": [], "on": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")
        series["off"].append(time.perf_counter() - t0)
        guard = ABFTGuard()
        t0 = time.perf_counter()
        prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused", abft=guard)
        series["on"].append(time.perf_counter() - t0)
    ratios = [on / off for off, on in zip(series["off"], series["on"])]
    return {
        "off": min(series["off"]),
        "on": min(series["on"]),
        "overhead": float(np.median(ratios)) - 1.0,
        "checks": int(guard.stats["checks"]),
        "micro_snapshot_bytes": int(guard.stats["micro_snapshot_bytes"]),
    }


def run_guards_bench(repeats=REPEATS):
    from repro.runtime.health import DEFAULT_CHECK_EVERY

    prop, dt = build()
    results = {}
    abft = {}
    for sched_name, sched in schedules().items():
        results[sched_name] = time_guards(prop, dt, sched, repeats=repeats)
        abft[sched_name] = time_abft(prop, dt, sched, repeats=repeats)
    return {
        "check_every": DEFAULT_CHECK_EVERY,
        "timing": "min over N interleaved rounds, fused engine",
        "seconds": {
            s: {k: row[k] for k in ("unguarded", "guarded")}
            for s, row in results.items()
        },
        "overhead": {s: row["overhead"] for s, row in results.items()},
        "abft": {
            "timing": "median of paired on/off ratios over N interleaved rounds",
            "seconds": {
                s: {k: row[k] for k in ("off", "on")} for s, row in abft.items()
            },
            "overhead": {s: row["overhead"] for s, row in abft.items()},
            "checks": {s: row["checks"] for s, row in abft.items()},
            "micro_snapshot_bytes": {
                s: row["micro_snapshot_bytes"] for s, row in abft.items()
            },
        },
    }


def merge_guards_report(guards, path=RESULT_PATH):
    """Fold the guard-overhead section into the existing trajectory artefact
    (or a fresh skeleton when the engine bench has not run yet)."""
    report = json.loads(path.read_text()) if path.exists() else {"bench": "engine"}
    report["guards"] = guards
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_guards_report(guards):
    print(
        f"# health-guard overhead — fused engine, cadence "
        f"check_every={guards['check_every']}"
    )
    print(f"{'schedule':<12} {'unguarded':>12} {'guarded':>12} {'overhead':>10}")
    for sched, row in guards["seconds"].items():
        ov = guards["overhead"][sched]
        print(
            f"{sched:<12} {row['unguarded']*1e3:>10.2f}ms "
            f"{row['guarded']*1e3:>10.2f}ms {ov:>9.2%}"
        )
    abft = guards.get("abft")
    if abft:
        print("# abft guard overhead — paired on/off, fused engine")
        print(
            f"{'schedule':<12} {'off':>12} {'on':>12} {'overhead':>10} "
            f"{'checks':>8} {'snap MB':>9}"
        )
        for sched, row in abft["seconds"].items():
            print(
                f"{sched:<12} {row['off']*1e3:>10.2f}ms {row['on']*1e3:>10.2f}ms "
                f"{abft['overhead'][sched]:>9.2%} {abft['checks'][sched]:>8} "
                f"{abft['micro_snapshot_bytes'][sched]/1e6:>8.2f}M"
            )


def run_verify_bench(repeats=REPEATS):
    """Wall-clock of the static analyses on the bench operator.

    Times, per schedule, a cold :func:`repro.verify.prove_schedule`
    (dependence extraction + per-edge inequalities) and the cached
    :meth:`Operator.certificate_for` replay — the cost every wavefront
    ``apply`` pays at most once per (schedule, sparse-mode) pair.  The halo
    proof is schedule-independent, so it is timed once: a cold
    :func:`repro.verify.prove_bounds` and the cached
    :meth:`Operator.bounds_certificate_for` replay every ``apply`` pays.  A
    one-shot ``scratch`` section records the whole-program liveness verdict
    and the slot count.
    """
    from repro.verify import lint_operator, prove_bounds, prove_schedule

    prop, _dt = build()
    op = prop.op
    results = {}
    for sched_name, sched in schedules().items():
        cold = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            cert = prove_schedule(op, sched)
            cold.append(time.perf_counter() - t0)
        op.certificate_for(sched)  # populate
        t0 = time.perf_counter()
        op.certificate_for(sched)  # cached replay
        cached = time.perf_counter() - t0
        results[sched_name] = {
            "prove": min(cold),
            "cached": cached,
            "edges": len(cert.dependences),
            "legal": bool(cert.check()),
        }
    cold_bounds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        bcert = prove_bounds(op)
        cold_bounds.append(time.perf_counter() - t0)
    op.bounds_certificate_for()  # populate
    t0 = time.perf_counter()
    op.bounds_certificate_for()  # cached replay
    bounds = {
        "prove": min(cold_bounds),
        "cached": time.perf_counter() - t0,
        "checks": len(bcert.checks),
        "safe": bool(bcert.check()),
    }
    t0 = time.perf_counter()
    lint = lint_operator(op)
    lint_seconds = time.perf_counter() - t0
    live = lint.scratch
    scratch = {
        "analyzer_seconds": lint_seconds,
        "safe_for_slab": bool(live.safe_for_slab) if live is not None else None,
        "slots": live.total_slots if live is not None else None,
    }
    return {
        "timing": (
            "min over N rounds: cold prove_schedule/prove_bounds vs cached "
            "certificate replays"
        ),
        "schedules": results,
        "bounds": bounds,
        "scratch": scratch,
    }


def merge_verify_report(verify, path=RESULT_PATH):
    report = json.loads(path.read_text()) if path.exists() else {"bench": "engine"}
    report["verify"] = verify
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_verify_report(verify):
    print("# schedule-legality prover + halo proof wall-clock")
    print(f"{'schedule':<12} {'prove':>12} {'cached':>12} {'edges':>7} {'legal':>6}")
    for sched, row in verify["schedules"].items():
        print(
            f"{sched:<12} {row['prove']*1e3:>10.2f}ms {row['cached']*1e6:>10.2f}us "
            f"{row['edges']:>7} {str(row['legal']):>6}"
        )
    bounds = verify.get("bounds")
    if bounds:
        print(
            f"halo proof: {bounds['prove']*1e3:.2f}ms cold, "
            f"{bounds['cached']*1e6:.2f}us cached, {bounds['checks']} checks, "
            f"safe={bounds['safe']}"
        )
    scratch = verify.get("scratch")
    if scratch:
        print(
            f"scratch: lint+liveness {scratch['analyzer_seconds']*1e3:.2f}ms, "
            f"slab-safe={scratch['safe_for_slab']}, {scratch['slots']} slots"
        )


def time_telemetry(prop, dt, schedule, repeats=REPEATS):
    """Min-of-N fused wall-clock with and without a phase-detail telemetry
    buffer, plus the phase breakdown of the fastest instrumented round.

    Interleaved rounds, as everywhere in this bench, so both series sample
    the same noise landscape.  A fresh :class:`Telemetry` per round keeps
    the buffer small and the round self-contained; the buffer belonging to
    the fastest "on" round is the one whose phases/counters are reported —
    its phase sum is the coverage claim, so it must come from the same run
    as the minimum wall-clock, not from an arbitrary round.  Receiver data
    from the two series is compared bit-for-bit: telemetry must observe the
    run, never perturb it.

    The overhead estimator is the *median over rounds of the paired on/off
    ratio*, not ``min(on)/min(off)``: on a shared vCPU, noise arrives in
    multi-second waves, and the two unpaired minima can land in different
    wave states, swinging the unpaired ratio by several percent in either
    direction.  Each round's pair runs back-to-back inside one wave state,
    so its ratio isolates the instrumentation cost, and the median over
    rounds is robust to the rounds where a wave boundary splits a pair.
    ``min(on)/min(off)`` is reported alongside (``overhead_minmin``) for
    comparison with the other sections of this bench.
    """
    from repro.analysis import achieved_gpoints_per_s
    from repro.telemetry import Telemetry

    series = {"off": [], "on": []}
    best = None  # (seconds, telemetry) of the fastest instrumented round
    rec_off = rec_on = None
    prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")  # warm
    # warm instrumented run: populates the persistent instrumentation
    # counts cached on the operator's step cache
    prop.forward(
        nt=NT, dt=dt, schedule=schedule, engine="fused", telemetry=Telemetry()
    )
    for _ in range(repeats):
        t0 = time.perf_counter()
        rec_off, _ = prop.forward(nt=NT, dt=dt, schedule=schedule, engine="fused")
        series["off"].append(time.perf_counter() - t0)
        tel = Telemetry()
        t0 = time.perf_counter()
        rec_on, _ = prop.forward(
            nt=NT, dt=dt, schedule=schedule, engine="fused", telemetry=tel
        )
        elapsed = time.perf_counter() - t0
        series["on"].append(elapsed)
        if best is None or elapsed < best[0]:
            best = (elapsed, tel)
    assert np.array_equal(rec_off, rec_on), "telemetry perturbed the numerics"
    tel = best[1]
    out = {name: min(vals) for name, vals in series.items()}
    ratios = [on / off for off, on in zip(series["off"], series["on"])]
    out["overhead"] = float(np.median(ratios)) - 1.0
    out["overhead_minmin"] = out["on"] / out["off"] - 1.0
    out["coverage"] = tel.coverage()
    out["phases"] = tel.phase_totals()
    out["counters"] = tel.counters.to_dict()
    out["gpoints_per_s"] = achieved_gpoints_per_s(tel)
    return out


def run_telemetry_bench(repeats=25):
    # more rounds than the engine bench: the measurand (a few-percent
    # overhead ratio) is smaller than single-round noise on a shared vCPU,
    # so min-of-N needs a larger N to converge
    prop, dt = build()
    results = {}
    for sched_name, sched in schedules().items():
        results[sched_name] = time_telemetry(prop, dt, sched, repeats=repeats)
    return {
        "detail": "phase",
        "timing": "min over N interleaved rounds, fused engine; "
        "phases/counters from the fastest instrumented round",
        "seconds": {
            s: {k: row[k] for k in ("off", "on")} for s, row in results.items()
        },
        "overhead": {s: row["overhead"] for s, row in results.items()},
        "overhead_minmin": {s: row["overhead_minmin"] for s, row in results.items()},
        "coverage": {s: row["coverage"] for s, row in results.items()},
        "phases": {s: row["phases"] for s, row in results.items()},
        "counters": {s: row["counters"] for s, row in results.items()},
        "gpoints_per_s": {s: row["gpoints_per_s"] for s, row in results.items()},
    }


def merge_telemetry_report(telemetry, path=RESULT_PATH):
    report = json.loads(path.read_text()) if path.exists() else {"bench": "engine"}
    report["telemetry"] = telemetry
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def print_telemetry_report(telemetry):
    print("# telemetry overhead + phase breakdown — fused engine, detail=phase")
    print(
        f"{'schedule':<12} {'off':>10} {'on':>10} {'overhead':>9} "
        f"{'(minmin)':>9} {'coverage':>9} {'GPts/s':>8}"
    )
    for sched, row in telemetry["seconds"].items():
        ov = telemetry["overhead"][sched]
        ovm = telemetry["overhead_minmin"][sched]
        cov = telemetry["coverage"][sched]
        gp = telemetry["gpoints_per_s"][sched]
        print(
            f"{sched:<12} {row['off']*1e3:>8.2f}ms {row['on']*1e3:>8.2f}ms "
            f"{ov:>8.2%} {ovm:>8.2%} {cov:>8.1%} {gp:>8.3f}"
        )
    for sched, phases in telemetry["phases"].items():
        parts = ", ".join(
            f"{k} {v*1e3:.2f}ms" for k, v in phases.items() if v > 0
        )
        print(f"  {sched}: {parts}")


@pytest.mark.slow
def test_guard_overhead_within_budget():
    """Acceptance: the default-cadence health guard *and* the ABFT
    silent-corruption guard each cost < 5% wall-clock on the wavefront
    (WTB) acoustic so=8 workload."""
    guards = run_guards_bench()
    merge_guards_report(guards)
    assert guards["overhead"]["wavefront"] < 0.05
    assert guards["abft"]["overhead"]["wavefront"] < 0.05


@pytest.mark.slow
def test_telemetry_overhead_and_coverage():
    """Acceptance: phase-detail telemetry on the WTB acoustic so=8 workload
    attributes >= 95% of run wall-time to named phases, costs <= 3%
    wall-clock, and is bit-identical to uninstrumented runs (asserted inside
    :func:`time_telemetry`)."""
    telemetry = run_telemetry_bench()
    merge_telemetry_report(telemetry)
    assert telemetry["coverage"]["wavefront"] >= 0.95
    assert telemetry["overhead"]["wavefront"] <= 0.03
    for sched, counters in telemetry["counters"].items():
        assert counters["points_updated"] > 0
        assert counters["src_points_injected"] > 0


@pytest.mark.slow
def test_fused_engine_speedup_and_report():
    """Acceptance: the fused engine beats the interpreter under every
    schedule, and the JSON trajectory artefact lands at the repo root."""
    report = run_bench()
    path = write_report(report)
    assert path.exists()
    for sched, row in report["seconds"].items():
        assert row["fused"] < row["interp"]


if __name__ == "__main__":
    if "--telemetry" in sys.argv[1:]:
        telemetry = run_telemetry_bench()
        print_telemetry_report(telemetry)
        out = merge_telemetry_report(telemetry)
    elif "--verify" in sys.argv[1:]:
        verify = run_verify_bench()
        print_verify_report(verify)
        out = merge_verify_report(verify)
    elif "--guards" in sys.argv[1:]:
        guards = run_guards_bench()
        print_guards_report(guards)
        out = merge_guards_report(guards)
    else:
        report = run_bench()
        print_report(report)
        out = write_report(report)
    print(f"\nwrote {out}")
