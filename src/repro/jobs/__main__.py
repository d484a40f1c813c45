"""Command-line front-end of the batch-execution service.

Usage::

    python -m repro.jobs --jobs 16 --workers 4                 # clean batch
    python -m repro.jobs --jobs 16 --fault-rate 0.2 --kill-workers 1 --verify
    python -m repro.jobs --jobs 8 --example mixed --schedule naive --json
    python -m repro.jobs --jobs 64 --stream --capacity 8
    python -m repro.jobs --resume path/to/batchdir --verify    # crashed batch
    python -m repro.jobs --jobs 8 --trace --workdir b0
    python -m repro.jobs.status b0                             # live pool health

Each job is one shot of a miniature survey: the paper's small verification
propagator with a seed-perturbed source position.  ``--fault-rate`` /
``--sdc-rate`` / ``--break-rate`` / ``--kill-workers`` / ``--hang-workers``
/ ``--poison-jobs`` / ``--kill-supervisor-after`` arm the chaos harness;
``--verify`` re-runs every completed job's spec serially, fault-free,
in-process and checks the pool's receivers are **bit-identical** — the
chaos gate CI runs.

``--resume BATCH_DIR`` replays the write-ahead journal of an interrupted
batch (supervisor SIGKILLed, OOM-killed, or gracefully drained by
SIGTERM/SIGINT): durable verified results are kept, everything else is
re-admitted and in-flight jobs continue from their newest checkpoint —
with ``--verify``, provably bit-identical to an uninterrupted batch.

Exit code 0 iff every submitted job completed (and, with ``--verify``,
matched); 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

import numpy as np

from .chaos import ChaosConfig
from .pool import JobPool
from .retry import RetryPolicy
from .spec import EXAMPLES, JOB_ENGINES, SCHEDULES, JobSpec
from .worker import run_job_inline


def build_specs(args) -> List[JobSpec]:
    examples = EXAMPLES if args.example == "mixed" else (args.example,)
    return [
        JobSpec(
            job_id=f"job-{i:03d}",
            example=examples[i % len(examples)],
            nt=args.nt,
            schedule=args.schedule,
            engine=args.engine,
            seed=args.seed + i,
            deadline=args.deadline,
            max_attempts=args.retries + 1,
            checkpoint_every=args.checkpoint_every,
        )
        for i in range(args.jobs)
    ]


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="Run a resilient batch of propagation jobs over a worker pool.",
    )
    parser.add_argument("--jobs", type=int, default=8, help="batch size (default: 8)")
    parser.add_argument(
        "--example", choices=EXAMPLES + ("mixed",), default="acoustic",
        help="propagator to run, or 'mixed' to cycle all three (default: acoustic)",
    )
    parser.add_argument(
        "--schedule", choices=SCHEDULES, default="wavefront",
        help="execution schedule (default: wavefront)",
    )
    parser.add_argument(
        "--engine", choices=JOB_ENGINES, default=JOB_ENGINES[0],
        help=f"sweep engine requested per job (default: {JOB_ENGINES[0]})",
    )
    parser.add_argument("--nt", type=int, default=64, help="timesteps per job (default: 64)")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes; 0 = attempts run in this process "
        "(default: 4, or the journaled batch header with --resume)",
    )
    parser.add_argument("--seed", type=int, default=0, help="batch master seed")
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: none)",
    )
    parser.add_argument("--retries", type=int, default=3, help="retry budget per job")
    parser.add_argument(
        "--checkpoint-every", type=int, default=4, help="snapshot cadence in timesteps"
    )
    parser.add_argument(
        "--capacity", type=int, default=256, help="admission-queue bound"
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="submit the batch as a lazily-pulled stream instead of upfront",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="fraction of jobs that get one injected in-run fault",
    )
    parser.add_argument(
        "--sdc-rate", type=float, default=0.0,
        help="fraction of jobs that get one injected finite bit-flip "
        "(silent data corruption the ABFT guard must detect and recover)",
    )
    parser.add_argument(
        "--break-rate", type=float, default=0.0,
        help="fraction of jobs whose --engine compiler is broken on attempt 0",
    )
    parser.add_argument(
        "--kill-workers", type=int, default=0,
        help="SIGKILL the attempt-0 daemons of the first N jobs at their first checkpoint",
    )
    parser.add_argument(
        "--hang-workers", type=int, default=0,
        help="wedge the daemons of this many jobs on attempt 0 "
        "(heartbeat-silent livelock the supervisor must detect)",
    )
    parser.add_argument(
        "--hang-seconds", type=float, default=30.0,
        help="how long a chaos-hung daemon stays silent (default: 30)",
    )
    parser.add_argument(
        "--poison-jobs", type=int, default=0,
        help="this many jobs hard-crash every daemon on every attempt "
        "(must end quarantined)",
    )
    parser.add_argument(
        "--kill-supervisor-after", type=int, default=None,
        help="SIGKILL the supervisor itself once this many jobs are "
        "terminal (resume the batch dir afterwards with --resume)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=60.0,
        help="SIGKILL a busy daemon silent this long (seconds; default: 60)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.25,
        help="daemon liveness beat cadence in seconds (default: 0.25)",
    )
    parser.add_argument(
        "--poison-threshold", type=int, default=3,
        help="consecutive daemon crashes before a job is quarantined",
    )
    parser.add_argument(
        "--resume", metavar="BATCH_DIR", default=None,
        help="resume an interrupted batch from its write-ahead journal "
        "instead of submitting a new one",
    )
    parser.add_argument(
        "--workdir", default=None,
        help="directory for checkpoints/results (default: a temp dir)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="re-run every spec serially fault-free and require bit-identical receivers",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect per-attempt span trees and merge them into one "
        "batch-wide Chrome trace (trace.json in the workdir, or ./trace.json "
        "with a temporary workdir)",
    )
    parser.add_argument("--json", action="store_true", help="JSON report on stdout")
    args = parser.parse_args(argv)

    if args.resume is not None:
        pool = JobPool.resume(args.resume, workers=args.workers, trace=args.trace)
    else:
        chaos = ChaosConfig(  # inert unless a rate or a budget is set
            fault_rate=args.fault_rate,
            sdc_rate=args.sdc_rate,
            break_rate=args.break_rate,
            kill_workers=args.kill_workers,
            hang_workers=args.hang_workers,
            hang_seconds=args.hang_seconds,
            poison_jobs=args.poison_jobs,
            kill_supervisor_after=args.kill_supervisor_after,
        )
        pool = JobPool(
            workers=4 if args.workers is None else args.workers,
            capacity=args.capacity,
            retry=RetryPolicy(),
            chaos=chaos,
            batch_seed=args.seed,
            workdir=args.workdir,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            poison_threshold=args.poison_threshold,
            trace=args.trace,
        )
        specs = build_specs(args)
        if args.stream:
            pool.submit(iter(specs))
        else:
            for spec in specs:
                pool.submit(spec)

    # the pool's temp workdir dies with run(); persistent paths keep theirs
    persistent_dir = args.resume or args.workdir
    report = pool.run()

    trace_path = None
    if args.trace:
        from ..telemetry.merge import write_batch_trace

        trace_path = (
            Path(persistent_dir) / "trace.json"
            if persistent_dir is not None
            else Path("trace.json")
        )
        write_batch_trace(report, trace_path, pool.telemetry)
        print(f"merged batch trace: {trace_path}", file=sys.stderr)

    verified = None
    if args.verify:
        verified = {}
        for result in report.results:
            if not result.ok:
                verified[result.spec.job_id] = False
                continue
            reference = run_job_inline(result.spec)
            verified[result.spec.job_id] = bool(
                np.array_equal(result.receivers, reference)
            )

    ok = report.ok and (verified is None or all(verified.values()))
    if args.json:
        payload = report.to_dict()
        payload["verified"] = verified
        payload["ok"] = ok
        if trace_path is not None:
            payload["trace_path"] = str(trace_path)
        print(json.dumps(payload, indent=2))
    else:
        for result in report.results:
            flags = []
            if len(result.attempts) > 1:
                flags.append(f"{len(result.attempts)} attempts")
            if any(a.resumed_from is not None for a in result.attempts):
                flags.append("resumed")
            if any(a.degraded for a in result.attempts):
                flags.append("degraded")
            if verified is not None:
                flags.append(
                    "verified" if verified[result.spec.job_id] else "MISMATCH"
                )
            detail = f" ({', '.join(flags)})" if flags else ""
            line = (
                f"{result.spec.job_id}: {result.status:<10} "
                f"{result.engine or '-':<7} {result.elapsed:7.3f}s{detail}"
            )
            if result.error is not None:
                line += f"  [{type(result.error).__name__}: {result.error}]"
            print(line)
        print(
            f"\n{report.completed}/{len(report.results)} completed "
            f"({report.retries} retries, {report.kills} chaos kills) in "
            f"{report.wall_seconds:.2f}s — {report.throughput:.2f} jobs/s "
            f"on {report.workers} worker(s)"
        )
        notes = []
        if report.resumed:
            notes.append("resumed from journal")
        if report.drained:
            notes.append(
                f"drained ({report.interrupted} interrupted, resumable)"
            )
        if report.quarantined:
            notes.append(f"{report.quarantined} quarantined")
        if report.hung_workers:
            notes.append(f"{report.hung_workers} hung daemon(s) replaced")
        if notes:
            print("; ".join(notes))
        for err in report.stream_errors:
            print(f"stream error: {err}")
        if report.workers > 0:
            warmth = f"{report.warm_attempts} warm / {report.cold_attempts} cold"
            ratio = report.warm_over_cold()
            if ratio is not None:
                warmth += f" (warm_over_cold {ratio:.2f}x)"
            print(
                f"attempts: {warmth}; {report.workers_spawned} daemon(s) spawned"
            )
            phases = report.phase_totals()
            if any(phases.values()):
                print(
                    "phase seconds: "
                    + "  ".join(f"{k}={v:.3f}" for k, v in phases.items())
                )
        if not ok:
            print("BATCH FAILED: lost jobs or verification mismatches")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
