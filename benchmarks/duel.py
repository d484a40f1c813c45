"""An interleaved duel of two source trees on one stack-benchmark workload.

Two warm worker processes, each importing ``repro`` from its own tree's
``src/`` and both the workload definitions of this tree's
``benchmarks/stack/workloads.py`` (read-only), run one operation at a time
in alternating order, each after a fixed idle gap, so neither process's
spinning OpenMP team slows the other's next operation.  A shot workload's
operation is one ``forward``; ``survey``'s is one in-process
``execute_attempt`` of its job specs under ``OMP_NUM_THREADS=1`` (a forked
daemon's team).  Each operation is timed by a telemetry span in its worker.

Two processes of one tree differ by up to several per cent for their whole
lives (memory layout, thread placement), so the rounds are split over
:data:`SESSIONS` pairs of fresh workers, the first-started side alternating.
The design (:data:`SESSIONS` x :data:`ROUNDS`, :data:`GAP_S`, :data:`WARMUP`,
:data:`SEED`) is fixed: it is the one its calibration (EXPERIMENTS.md entry
25) covers.
It prints the ratio of medians B / A with a bootstrap 95 % interval that
resamples sessions and then rounds within them, and fails unless every
operation's output is sha256-equal across the two trees: the receivers,
and for a shot workload every final wavefield buffer too (a short shot's
receivers can be all zeros).

    git worktree add ../parent HEAD~1      # the tree to compare against
    python3 benchmarks/duel.py --a ../parent --b . --workload tti_dense
    python3 benchmarks/duel.py --a . --b . --workload survey        # A/A
    python3 benchmarks/duel.py --a . --b . --workload tti_dense --plant 0.02

``--plant F`` makes B busy-wait F times its warm-up median inside every
timed operation: a known slowdown the duel must resolve.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

STACK = Path(__file__).resolve().parent / "stack"
SESSIONS = 12  # pairs of fresh worker processes
ROUNDS = 20  # alternating rounds per session
GAP_S = 0.020  # idle gap before each operation
WARMUP = 3  # untimed operations per worker
SEED = 0  # the workload's seed

_WORKER = textwrap.dedent(
    """
    import hashlib, json, shutil, statistics, sys, tempfile
    import numpy as np
    from repro.telemetry import Telemetry
    import workloads

    name, seed, warmup, plant = sys.argv[1:5]
    w = workloads.WORKLOADS[name]
    seed, warmup, plant = int(seed), int(warmup), float(plant)
    tel = Telemetry()

    if isinstance(w, workloads.SurveyWorkload):
        from repro.jobs import execute_attempt
        specs = workloads.survey_specs(w, seed, 0)
        scratch = tempfile.mkdtemp(prefix="duel-")
        count = [0]

        def operation():
            spec = specs[count[0] % len(specs)]
            count[0] += 1
            job_dir = tempfile.mkdtemp(dir=scratch)
            try:
                rec, _ = execute_attempt(spec, job_dir)
            finally:
                shutil.rmtree(job_dir, ignore_errors=True)
            return [rec]
    else:
        prop, dt, _ = workloads.build_shot(w, seed)

        def operation():
            rec, _ = prop.forward(nt=w.nt, dt=dt, schedule=w.schedule, sparse_mode=w.sparse_mode)
            return [rec] + [f.data_with_halo for f in prop.fields]

    def timed(delay):
        with tel.span("op") as sp:
            outputs = operation()
            if delay:
                end = tel.now() + delay
                while tel.now() < end:
                    pass
        digest = hashlib.sha256()
        for array in outputs:
            digest.update(np.ascontiguousarray(array).tobytes())
        return sp.dur, digest.hexdigest()

    warm = [timed(0.0)[0] for _ in range(warmup)]
    delay = plant * statistics.median(warm) if plant else 0.0
    print(json.dumps({"ready": True, "delay": delay}), flush=True)
    for line in sys.stdin:
        seconds, digest = timed(delay)
        print(json.dumps({"s": seconds, "sha": digest}), flush=True)
    if isinstance(w, workloads.SurveyWorkload):
        shutil.rmtree(scratch, ignore_errors=True)
    """
)


class Worker:
    """One warm process running operations on request."""

    def __init__(self, tree: Path, plant: float, workload: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(STACK)])
        if workload == "survey":
            env["OMP_NUM_THREADS"] = "1"
        argv = [workload, SEED, WARMUP, plant]
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, *map(str, argv)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self) -> dict:
        self.proc.stdin.write("op\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def bootstrap_ratio(a: np.ndarray, b: np.ndarray, draws: int = 2000, seed: int = 0):
    """Median(b) / median(a) and its 95 % interval.  *a* and *b* are
    ``(sessions, rounds)``; each draw resamples sessions, then whole rounds
    within each drawn session."""
    rng = np.random.default_rng(seed)
    nsess, nrounds = a.shape
    rows = rng.integers(0, nsess, size=(draws, nsess, 1))
    idx = rng.integers(0, nrounds, size=(draws, nsess, nrounds))
    ra = a[rows, idx].reshape(draws, -1)
    rb = b[rows, idx].reshape(draws, -1)
    ratios = np.median(rb, axis=1) / np.median(ra, axis=1)
    return float(np.median(b) / np.median(a)), np.percentile(ratios, [2.5, 97.5]).tolist()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="reference tree (its src/)")
    parser.add_argument("--b", type=Path, required=True, help="tree under test")
    parser.add_argument("--workload", required=True,
                        choices=["acoustic_wtb", "acoustic_spatial", "tti_dense", "survey"])
    parser.add_argument("--plant", type=float, default=0.0,
                        help="B busy-waits this fraction of its warm-up median per operation")
    args = parser.parse_args(argv)

    seconds = {"A": [], "B": []}
    mismatches = 0
    planted = 0.0
    for session in range(SESSIONS):
        trees = {"A": (args.a.resolve(), 0.0), "B": (args.b.resolve(), args.plant)}
        order = ("A", "B") if session % 2 == 0 else ("B", "A")
        workers = {side: Worker(*trees[side], args.workload) for side in order}
        planted = workers["B"].hello["delay"]
        times = {"A": [], "B": []}
        try:
            for r in range(ROUNDS):
                digests = {}
                for side in ("A", "B") if r % 2 == 0 else ("B", "A"):
                    time.sleep(GAP_S)
                    out = workers[side].run()
                    times[side].append(out["s"])
                    digests[side] = out["sha"]
                mismatches += digests["A"] != digests["B"]
        finally:
            for w in workers.values():
                w.close()
        for side in times:
            seconds[side].append(times[side])
    a, b = np.asarray(seconds["A"]), np.asarray(seconds["B"])
    ratio, (lo, hi) = bootstrap_ratio(a, b)
    session_ratios = np.median(b, axis=1) / np.median(a, axis=1)
    print(
        f"{args.workload}: B/A = {ratio:.4f} [95% {lo:.4f}, {hi:.4f}]  "
        f"median A {np.median(a) * 1e3:.2f} ms, B {np.median(b) * 1e3:.2f} ms, "
        f"{SESSIONS}x{ROUNDS} rounds, gap {GAP_S * 1e3:g} ms"
        + (f", planted {args.plant:.1%} ({planted * 1e3:.2f} ms)" if args.plant else "")
        + f", outputs sha256-equal: {mismatches == 0}; per session "
        + " ".join(f"{r:.3f}" for r in session_ratios)
    )
    if mismatches:
        print(f"{mismatches} round(s) with different outputs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
