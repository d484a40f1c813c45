"""Stack benchmark entry point — the command ``BENCHMARK.json`` names.

One workload, in this process (what the benchmark driver runs)::

    python3 benchmarks/stack/run.py --workload acoustic_wtb --seed 0 --seconds 15 --trace 0

prints every metric by name with its unit, writes one JSON document under
``benchmarks/stack/out/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in a fresh subprocess of the above::

    python3 benchmarks/stack/run.py [--seed N] [--trace] [--seeds K] [--repeat R] [--quick]

``--seeds K`` runs K consecutive seeds per workload and reports medians and
run-to-run spreads; ``--repeat 2`` measures the untraced set twice and feeds
both to ``compare.py`` (the repeatability acceptance check); ``--quick`` is
the <30 s smoke size with the determinism and second-seed checks.

The program under test is ``src/repro`` of the checkout this file sits in;
nothing installed elsewhere is ever imported in its place.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import compare, render, spread  # this directory: a script's own is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: streaming-array cap handed to calibrate.py by a traced run (see there)
CALIBRATE_CAP_MIB = 256
QUICK_CALIBRATE_CAP_MIB = 16


def load_catalog() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def doc_path(name: str, seed: int, trace: int, quick: bool, suffix: str = ".json") -> Path:
    """Where a one-workload run leaves its document (and, traced, its trace)."""
    return OUT_DIR / f"{name}-seed{seed}-trace{trace}{'-quick' if quick else ''}{suffix}"


# -- one workload, in process --------------------------------------------------------------


def run_workload(args, catalog: dict) -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program to benchmark: {src}/repro is missing")
    sys.path.insert(0, str(src))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    seconds = args.seconds
    if args.quick:
        w, seconds = wl.quick_variant(w), 0.0
    survey = isinstance(w, wl.SurveyWorkload)
    OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    if args.trace:
        effort = wl.QUICK if args.quick else wl.FULL_TRACED
        machine = wl.calibrate_host(QUICK_CALIBRATE_CAP_MIB if args.quick else CALIBRATE_CAP_MIB)
        run = wl.trace_survey if survey else wl.trace_shots
        trace_path = doc_path(w.name, args.seed, args.trace, args.quick, ".trace.json")
        result = run(w, args.seed, seconds, effort, machine, trace_path)
        specs, measured = catalog["per_layer"], result["per_layer"]
    else:
        effort = wl.QUICK if args.quick else wl.FULL
        run = wl.measure_survey if survey else wl.measure_shots
        result = run(w, args.seed, seconds, effort)
        specs, measured = catalog["end_to_end"], result["end_to_end"]

    unknown = sorted(set(measured) - {s["name"] for s in specs})
    if unknown:
        raise SystemExit(f"run.py: metrics missing from BENCHMARK.json: {unknown}")
    # a layer this workload never enters did no work and was busy 0 s
    not_applicable = [s["name"] for s in specs if s["name"] not in measured]
    metrics = {}
    for s in specs:
        metrics[s["name"]] = measured.get(s["name"], {"value": 0.0, "unit": s["unit"]})
        if metrics[s["name"]]["unit"] != s["unit"]:
            raise SystemExit(f"run.py: unit of {s['name']} differs from BENCHMARK.json")
    tally = result["tally"]
    return {
        "schema": 1,
        "workload": w.name,
        "why": next(x["why"] for x in catalog["workloads"] if x["name"] == w.name),
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": seconds,
        "correct": tally.failed == 0,
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "failed_share": tally.failed_share,
        "metrics": metrics,
        "not_applicable": not_applicable,
        "samples": result["samples"],
        "exact": result["exact"],
        "inputs_digest": result["inputs_digest"],
        "wall_s": time.perf_counter() - t0,
    }


def print_workload(doc: dict) -> None:
    print(f"# {doc['workload']}  seed={doc['seed']} trace={doc['trace']}  ({doc['wall_s']:.1f} s)")
    for name, m in doc["metrics"].items():
        note = "  (layer not entered by this workload)" if name in doc["not_applicable"] else ""
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{'ops_attempted':36s} {doc['ops_attempted']:14d} count")
    print(f"{'ops_failed':36s} {doc['ops_failed']:14d} count")
    print(f"{'failed_share':36s} {doc['failed_share']:14.6g} ratio")
    for name, s in doc["samples"].items():
        print(f"  samples {name}: n={s['n']} q1={s['q1']:.6g} median={s['median']:.6g} q3={s['q3']:.6g}")


def main_one(args, catalog: dict) -> int:
    doc = run_workload(args, catalog)
    print_workload(doc)
    out = doc_path(doc["workload"], doc["seed"], doc["trace"], doc["quick"])
    out.write_text(json.dumps(doc, indent=1) + "\n")
    stop_children()  # before the result line: a run that leaves a process behind has no result
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["ops_attempted"],
        "failed": doc["ops_failed"],
        "metrics": doc["metrics"],
    }))
    return 0


# -- every workload, each in a fresh subprocess ---------------------------------------------


def spawn(name: str, seed: int, trace: int, args) -> dict:
    """Run one workload in a fresh interpreter and return its document."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run.py: workload {name} (seed {seed}, trace {trace}) exited {proc.returncode}")
    return json.loads(doc_path(name, seed, trace, args.quick).read_text())


def collect(names, seeds, trace: int, args) -> dict:
    """One result set: every workload x every seed, medians over seeds."""
    section = "per_layer" if trace else "end_to_end"
    workloads = {}
    for name in names:
        docs = [spawn(name, seed, trace, args) for seed in seeds]
        merged = {}
        for metric_name, m in docs[0]["metrics"].items():
            values = [d["metrics"][metric_name]["value"] for d in docs]
            merged[metric_name] = {
                "value": statistics.median(values), "unit": m["unit"], "values": values,
            }
        workloads[name] = {
            section: merged,
            "ops_attempted": sum(d["ops_attempted"] for d in docs),
            "ops_failed": sum(d["ops_failed"] for d in docs),
            "not_applicable": docs[0]["not_applicable"],
            "samples": [d["samples"] for d in docs],
            "exact": [d["exact"] for d in docs],
            "inputs_digest": [d["inputs_digest"] for d in docs],
        }
        print_set_rows(name, workloads[name], section)
    return {"schema": 1, "seeds": list(seeds), "trace": trace, "quick": args.quick,
            "seconds": args.seconds, "workloads": workloads}


def print_set_rows(name: str, entry: dict, section: str) -> None:
    failed, attempted = entry["ops_failed"], entry["ops_attempted"]
    print(f"# {name}: {section}, {len(entry['inputs_digest'])} run(s), "
          f"ops_attempted={attempted} ops_failed={failed} failed_share={failed / attempted:.6g}")
    for metric_name, m in entry[section].items():
        if metric_name in entry["not_applicable"]:
            continue
        sp = spread(m["values"])
        tail = f"  spread(IQR/median)={sp:.4f}" if sp is not None else ""
        print(f"{metric_name:36s} {m['value']:14.6g} {m['unit']}{tail}")


def check_quick(first: dict, traced: dict, traced_again: dict, other_seed: dict) -> None:
    """Same seed => same inputs and same exact counters; another seed =>
    other inputs, still no failed operation.  (The oracle's self-test runs
    inside every workload run; names and units are the smoke test's job.)"""
    for name, entry in traced["workloads"].items():
        again = traced_again["workloads"][name]
        digests = (entry["inputs_digest"], again["inputs_digest"], first["workloads"][name]["inputs_digest"])
        assert digests[0] == digests[1] == digests[2], f"{name}: same seed, different inputs"
        assert entry["exact"] == again["exact"], f"{name}: exact counters differ between same-seed runs"
        other = other_seed["workloads"][name]
        assert other["inputs_digest"] != entry["inputs_digest"], f"{name}: seed does not reach the inputs"
        assert other["ops_failed"] == 0, f"{name}: second seed has failed operations"


def main_all(args, catalog: dict) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    names = [w["name"] for w in catalog["workloads"]]
    seeds = range(args.seed, args.seed + args.seeds)
    stamp = f"seed{args.seed}x{args.seeds}" + ("-quick" if args.quick else "")

    def save(doc: dict, label: str) -> Path:
        path = OUT_DIR / f"stack-{stamp}-{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"[written {path.relative_to(ROOT)}]")
        return path

    sets = []
    for r in range(args.repeat):
        sets.append(collect(names, seeds, 0, args))
        save(sets[-1], f"untraced-{r}")
    status = 0
    if args.trace or args.quick:
        traced = collect(names, seeds, 1, args)
        save(traced, "traced")
    if args.quick:
        again = collect(names, seeds, 1, args)
        other = collect(names, [args.seed + args.seeds], 0, args)
        check_quick(sets[0], traced, again, other)
        print("quick checks passed: determinism, exact counters, second seed")
    for a, b in zip(sets, sets[1:]):
        rows = compare(a, b, catalog)
        print(render(rows))
        status |= any(r["verdict"] == "worse" for r in rows)
    if any(e["ops_failed"] for s in sets for e in s["workloads"].values()):
        status = 1
    return int(status)


# -- leaving nothing behind ----------------------------------------------------------------


def _child_pids() -> list:
    """Every live or defunct process whose parent is this one."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:  # "pid (comm) state ppid ..."; comm may hold spaces and brackets
            ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we looked
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``run_batch`` joins its daemons, but publishing a model to shared memory
    starts :mod:`multiprocessing`'s resource tracker, which only ends when
    its parent is gone and is then nobody's to reap: it outlives the run as
    an orphan.  Close its pipe and wait for it here; whatever else is still
    there (an error path out of the pool, say) is killed and reaped."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # it unlinks what was leaked, exits, and is waited for
        except OSError:
            pass
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    left = _child_pids()
    if left:
        raise SystemExit(f"run.py: processes still running at exit: {left}")


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this one workload in this process")
    ap.add_argument("--seed", type=int, default=0, help="perturbs off-grid coordinates and job seeds")
    ap.add_argument("--seconds", type=float, help="length of the warm-operation window (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: the traced run (per-layer metrics); 0: end-to-end metrics")
    ap.add_argument("--quick", action="store_true", help="smoke size: tiny grids, minimum repetitions")
    ap.add_argument("--seeds", type=int, default=1, help="all-workload mode: consecutive seeds per workload")
    ap.add_argument("--repeat", type=int, default=1, help="all-workload mode: measure the untraced set R times and compare")
    args = ap.parse_args(argv)
    catalog = load_catalog()
    if args.seconds is None:
        args.seconds = float(catalog["run_seconds"])
    if args.workload:
        return main_one(args, catalog)
    return main_all(args, catalog)


if __name__ == "__main__":
    raise SystemExit(main())
