"""Status view of a batch directory, folded from its write-ahead journal.

``python -m repro.jobs.status BATCH_DIR`` replays the journal's verified
prefix through :func:`~repro.jobs.transitions.fold` — the handlers the live
supervisor and :meth:`~repro.jobs.pool.JobPool.resume` run — and renders
what the folded state and the records say: jobs admitted, completed,
terminal and active; the ready and delayed queues; busy workers (jobs with
an attempt in flight); hung daemons (``hang`` outcomes); retries; exact
attempt-latency quantiles per outcome; terminal statuses; ``sdc`` and
``storage_degraded`` records; resumes; a torn tail; and the achieved
stencil throughput (the work completed ``outcome`` records carry).

The journal is the batch's one record, so the view reads the same way for a
live, finished, drained or SIGKILLed batch: every record is fsynced before
the transition it describes, and a torn tail is reported, never read.  Safe
to run in a loop (``watch -n1 python -m repro.jobs.status BATCH_DIR``)
against a live batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..errors import JournalCorruptError
from ..telemetry.counters import stencil_gpoints_per_s
from .journal import JOURNAL_NAME, load_journal
from .transitions import fold

__all__ = ["journal_stats", "render_status", "main"]


def _supervised_seconds(records: List[dict]) -> float:
    """Seconds the batch was under supervision: the sum of each supervisor's
    span, from its ``batch`` or ``resume`` record to the latest record
    before the next ``resume`` — the downtime before a resume counts for
    nothing."""
    spans: List[List[float]] = []  # [start, latest] per supervisor
    for rec in records:
        if not spans or rec["kind"] == "resume":
            spans.append([rec["ts"], rec["ts"]])
        else:
            spans[-1][1] = max(spans[-1][1], rec["ts"])
    return sum(latest - start for start, latest in spans)


def journal_stats(batch_dir) -> Optional[dict]:
    """Every number of the status view, from the journal of *batch_dir*;
    None when there is no journal with a verified record."""
    try:
        replay = load_journal(Path(batch_dir) / JOURNAL_NAME)
    except JournalCorruptError:  # missing or unreadable
        return None
    records = replay.records
    if not records:
        return None
    # each job counts once, with the status the journal leaves it in — a
    # drained job that a resume later completed is completed, not both
    state = fold(records, lambda rec: rec["ts"])
    statuses = Counter(job.status for job in state.jobs if job.terminal)
    completed = statuses.get("completed", 0)
    attempts = [a for job in state.jobs for a in job.attempts if a.outcome]
    latency = {}
    for outcome in sorted({a.outcome for a in attempts}):
        seconds = [a.seconds for a in attempts if a.outcome == outcome]
        p50, p90, p99 = np.quantile(seconds, (0.5, 0.9, 0.99)).tolist()
        latency[outcome] = {"n": len(seconds), "p50": p50, "p90": p90, "p99": p99}
    done = [r for r in replay.for_kind("outcome") if r["outcome"] == "completed"]
    points = sum(r.get("points_updated", 0) for r in done)
    stencil_s = sum(r.get("stencil_s", 0.0) for r in done)
    sdc = replay.for_kind("sdc")
    supervised = _supervised_seconds(records)
    return {
        "batch_id": Path(batch_dir).resolve().name,
        "records": len(records),
        "ended": records[-1]["kind"] == "batch_end",
        "drained": state.draining,
        "resumes": len(replay.for_kind("resume")),
        "corrupt_tail": str(replay.corruption) if replay.corruption else None,
        "supervised_seconds": supervised,
        "jobs": {
            "admitted": len(state.jobs),
            "completed": completed,
            "terminal": sum(statuses.values()),
            "active": state.active,
            "throughput_per_s": completed / supervised if supervised > 0 else None,
        },
        "statuses": dict(statuses),
        "queue": {"ready": len(state.ready), "delayed": len(state.delayed)},
        "busy_workers": sum(job.in_flight for job in state.jobs),
        "hung_daemons": sum(a.outcome == "hang" for a in attempts),
        "retries": sum(job.attempt_no for job in state.jobs),
        "latency": latency,
        "sdc": {
            "records": len(sdc),
            "recovered": sum(1 for r in sdc if r.get("recovered")),
            "detections": sum(int(r.get("detections", 1)) for r in sdc),
            "tiles_reexecuted": sum(int(r.get("tiles_reexecuted", 0)) for r in sdc),
        },
        "storage_degraded": len(replay.for_kind("storage_degraded")),
        "work": {
            "points_updated": points,
            "stencil_s": stencil_s,
            "gpts_per_s": stencil_gpoints_per_s(points, stencil_s),
        },
    }


def _fmt_seconds(v: float) -> str:
    return f"{v * 1e3:.2f}ms" if v < 1 else f"{v:.2f}s"


def render_status(stats: dict) -> str:
    """Human-readable pool-health view of :func:`journal_stats`."""
    jobs, queue = stats["jobs"], stats["queue"]
    flags = ["ended" if stats["ended"] else "open"]
    if stats["drained"]:
        flags.append("drained")
    if stats["resumes"]:
        flags.append(f"{stats['resumes']} resume(s)")
    tput = jobs["throughput_per_s"]
    lines = [
        f"batch {stats['batch_id']} [{', '.join(flags)}] — "
        f"{jobs['completed']}/{jobs['admitted']} completed, "
        f"{jobs['terminal']} terminal, {jobs['active']} active "
        f"({stats['supervised_seconds']:.2f}s supervised"
        + (f", {tput:.2f} jobs/s)" if tput else ")"),
        f"queue: ready {queue['ready']}, delayed {queue['delayed']}; "
        f"{stats['busy_workers']} busy worker(s), {stats['hung_daemons']} hung "
        f"daemon(s), {stats['retries']} retries",
    ]
    for outcome, q in stats["latency"].items():
        lines.append(
            f"attempt latency [{outcome}]: n={q['n']} p50={_fmt_seconds(q['p50'])} "
            f"p90={_fmt_seconds(q['p90'])} p99={_fmt_seconds(q['p99'])}"
        )
    if stats["statuses"]:
        lines.append(
            "terminal statuses: "
            + "  ".join(f"{k}={v}" for k, v in sorted(stats["statuses"].items()))
        )
    sdc = stats["sdc"]
    if sdc["records"]:
        lines.append(
            f"silent corruption: {sdc['records']} record(s), {sdc['detections']} "
            f"detection(s), {sdc['recovered']} recovered in-run, "
            f"{sdc['tiles_reexecuted']} tile(s) re-executed"
        )
    if stats["storage_degraded"]:
        lines.append(
            f"storage degraded: {stats['storage_degraded']} ENOSPC record(s) — "
            "journal suspended mid-batch"
        )
    work = stats["work"]
    if work["gpts_per_s"] is not None:
        lines.append(
            f"stencil throughput: {work['gpts_per_s']:.4f} GPts/s "
            f"({work['points_updated']:.3g} points over {work['stencil_s']:.3f}s "
            "of stencil time)"
        )
    lines.append(f"journal: {stats['records']} verified record(s)")
    if stats["corrupt_tail"]:
        lines.append(f"journal corruption: {stats['corrupt_tail']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs.status",
        description="Render the status of a (live or finished) batch directory "
        "from its write-ahead journal.",
    )
    parser.add_argument("batch_dir", help="batch working directory")
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable dump instead of the rendering",
    )
    args = parser.parse_args(argv)
    batch_dir = Path(args.batch_dir)
    if not batch_dir.exists():
        print(f"no such batch directory: {batch_dir}", file=sys.stderr)
        return 1
    stats = journal_stats(batch_dir)
    if stats is None:
        print(f"{batch_dir}: no verified record in {JOURNAL_NAME}", file=sys.stderr)
        return 1
    print(json.dumps(stats, indent=2) if args.json else render_status(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
