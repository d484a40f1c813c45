"""Live (and post-hoc) status view of a batch directory.

``python -m repro.jobs.status BATCH_DIR`` renders pool health from the
``metrics.json`` snapshot the supervisor atomically refreshes on its status
cadence — the ready and delayed queues, workers, attempt latency
quantiles and achieved stencil throughput — and falls back to (or is
forced onto, with ``--journal``) a replay of the write-ahead journal, whose
timestamped records reconstruct admission/terminal timings and job
throughput for a batch that is finished or crashed.

Because ``metrics.json`` is published whole by
:func:`repro.runtime.integrity.atomic_write`, a reader never sees a torn
snapshot: this command is safe to run in a loop
(``watch -n1 python -m repro.jobs.status BATCH_DIR``) against a live batch.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from ..telemetry.counters import stencil_gpoints_per_s
from ..telemetry.metrics import histogram_quantile
from .journal import JOURNAL_NAME, load_journal
from .pool import METRICS_NAME
from .transitions import fold

__all__ = ["load_status", "journal_stats", "render_status", "main"]


def load_status(batch_dir) -> Optional[dict]:
    """The latest ``metrics.json`` snapshot of *batch_dir*, or None."""
    path = Path(batch_dir) / METRICS_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _series(snapshot: dict, name: str) -> List[dict]:
    family = (snapshot.get("metrics") or {}).get(name)
    return list(family.get("series", [])) if family else []


def _value(snapshot: dict, name: str, **labels) -> Optional[float]:
    for entry in _series(snapshot, name):
        if all(entry["labels"].get(k) == str(v) for k, v in labels.items()):
            return entry.get("value")
    return None


def _quantile(entry: dict, q: float) -> Optional[float]:
    """Quantile of one snapshot histogram series, whose cumulative
    ``buckets`` are keyed by edge repr / ``+Inf``."""
    buckets = entry.get("buckets") or {}
    return histogram_quantile(sorted((float(k), v) for k, v in buckets.items()), q)


def journal_stats(batch_dir) -> Optional[dict]:
    """Timings and job throughput replayed from the journal's timestamped
    records; None when there is no readable journal."""
    path = Path(batch_dir) / JOURNAL_NAME
    if not path.exists():
        return None
    try:
        replay = load_journal(path)
    except Exception:
        return None
    if not replay.records:
        return None
    ts = [r["ts"] for r in replay.records if isinstance(r.get("ts"), (int, float))]
    elapsed = (max(ts) - min(ts)) if len(ts) > 1 else 0.0
    # each job counts once, with the status the journal leaves it in — a
    # drained job that a resume later completed is completed, not both
    jobs = fold(replay.records, lambda rec: rec["ts"]).jobs
    statuses = Counter(job.status for job in jobs if job.terminal)
    completed = statuses.get("completed", 0)
    kinds = Counter(rec.get("kind", "?") for rec in replay.records)
    sdc_recs = replay.for_kind("sdc")
    return {
        "sdc": {
            "records": len(sdc_recs),
            "recovered": sum(1 for r in sdc_recs if r.get("recovered")),
            "tiles_reexecuted": sum(
                int(r.get("tiles_reexecuted", 0)) for r in sdc_recs
            ),
        },
        "storage_degraded": len(replay.for_kind("storage_degraded")),
        "records": len(replay.records),
        "kinds": dict(kinds),
        "elapsed_seconds": elapsed,
        "statuses": dict(statuses),
        "jobs": {
            "admitted": len(jobs),
            "completed": completed,
            "failed": sum(statuses.values()) - completed,
            "throughput_per_s": completed / elapsed if elapsed > 0 else None,
        },
        "ended": bool(replay.for_kind("batch_end")),
        "resumes": len(replay.for_kind("resume")),
        "corrupt_tail": str(replay.corruption) if replay.corruption else None,
    }


def _fmt_seconds(v: Optional[float]) -> str:
    return "-" if v is None else f"{v * 1e3:.2f}ms" if v < 1 else f"{v:.2f}s"


def render_status(snapshot: Optional[dict], journal: Optional[dict]) -> str:
    """Human-readable pool-health view from whichever sources exist."""
    lines: List[str] = []
    if snapshot is not None:
        status = snapshot.get("status") or {}
        state = "final" if snapshot.get("final") else "live"
        lines.append(
            f"batch {snapshot.get('batch_id', '?')} [{state}] — "
            f"{status.get('completed', 0)}/{status.get('jobs', 0)} completed, "
            f"{status.get('terminal', 0)} terminal, "
            f"{status.get('active', 0)} active "
            f"({status.get('elapsed_seconds', 0.0):.2f}s elapsed)"
        )
        workers = status.get("workers") or {}
        if workers:
            lines.append(
                f"workers: {workers.get('alive', 0)} alive / "
                f"{workers.get('busy', 0)} busy of {workers.get('configured', 0)} "
                f"configured ({workers.get('spawned', 0)} spawned, "
                f"{workers.get('hung', 0)} hung)"
            )
        flags = [
            flag
            for flag, on in (
                ("draining", status.get("draining")),
                ("resumed", status.get("resumed")),
                ("storage degraded", status.get("storage_degraded")),
            )
            if on
        ]
        if flags:
            lines.append("flags: " + ", ".join(flags))
        if status:
            lines.append(
                f"queue: ready {status.get('ready', 0)}, "
                f"delayed {status.get('delayed', 0)}"
            )
        for entry in _series(snapshot, "repro_attempt_seconds"):
            outcome = entry["labels"].get("outcome", "?")
            lines.append(
                f"attempt latency [{outcome}]: n={entry.get('count', 0)} "
                f"p50={_fmt_seconds(_quantile(entry, 0.5))} "
                f"p90={_fmt_seconds(_quantile(entry, 0.9))} "
                f"p99={_fmt_seconds(_quantile(entry, 0.99))}"
            )
        points = _value(snapshot, "repro_jobs_points_updated_total")
        stencil_s = _value(snapshot, "repro_jobs_stencil_seconds_total")
        gpts = stencil_gpoints_per_s(points or 0.0, stencil_s or 0.0)
        if gpts is not None:
            lines.append(
                f"stencil throughput: {gpts:.4f} GPts/s "
                f"({points:.3g} points over {stencil_s:.3f}s of stencil time)"
            )
        retries = _value(snapshot, "repro_jobs_retried_total")
        if retries:
            lines.append(f"retries: {int(retries)}")
        sdc_series = _series(snapshot, "repro_sdc_detections_total")
        if sdc_series:
            total = sum(e.get("value", 0) for e in sdc_series)
            by_detector = "  ".join(
                f"{e['labels'].get('detector', '?')}={int(e.get('value', 0))}"
                for e in sorted(sdc_series, key=lambda e: str(e["labels"]))
            )
            recovered = _value(snapshot, "repro_sdc_recoveries_total") or 0
            tiles = _value(snapshot, "repro_sdc_tiles_reexecuted_total") or 0
            lines.append(
                f"silent corruption: {int(total)} detection(s) [{by_detector}], "
                f"{int(recovered)} recovered in-run, "
                f"{int(tiles)} tile(s) re-executed"
            )
        sup = {
            e["labels"].get("bucket", "?"): e.get("value", 0.0)
            for e in _series(snapshot, "repro_supervisor_seconds")
        }
        if sup:
            lines.append(
                "supervisor seconds: "
                + "  ".join(f"{k}={v:.3f}" for k, v in sorted(sup.items()))
            )
    if journal is not None:
        lines.append(
            f"journal: {journal['records']} verified record(s), "
            f"{journal['elapsed_seconds']:.2f}s span"
            + (", batch ended" if journal["ended"] else ", in flight")
            + (
                f", {journal['resumes']} resume(s)"
                if journal["resumes"]
                else ""
            )
        )
        if journal["corrupt_tail"]:
            lines.append(f"journal corruption: {journal['corrupt_tail']}")
        sdc = journal.get("sdc") or {}
        if sdc.get("records"):
            lines.append(
                f"silent corruption: {sdc['records']} journaled event(s), "
                f"{sdc['recovered']} recovered in-run, "
                f"{sdc['tiles_reexecuted']} tile(s) re-executed"
            )
        if journal.get("storage_degraded"):
            lines.append(
                f"storage degraded: {journal['storage_degraded']} ENOSPC "
                "event(s) — journal suspended mid-batch"
            )
        if journal["statuses"]:
            lines.append(
                "terminal statuses: "
                + "  ".join(
                    f"{k}={v}" for k, v in sorted(journal["statuses"].items())
                )
            )
        stats = journal["jobs"]
        tput = stats["throughput_per_s"]
        lines.append(
            f"jobs: {stats['completed']}/{stats['admitted']} completed"
            + (f", {stats['failed']} failed" if stats["failed"] else "")
            + (f", {tput:.2f} jobs/s" if tput else "")
        )
    if not lines:
        lines.append("no metrics.json and no journal — nothing to report")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs.status",
        description="Render pool health of a (live or finished) batch directory.",
    )
    parser.add_argument("batch_dir", help="batch working directory")
    parser.add_argument(
        "--journal", action="store_true",
        help="ignore metrics.json and reconstruct everything from the journal",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable dump of both sources instead of the rendering",
    )
    args = parser.parse_args(argv)
    batch_dir = Path(args.batch_dir)
    if not batch_dir.exists():
        print(f"no such batch directory: {batch_dir}", file=sys.stderr)
        return 1
    snapshot = None if args.journal else load_status(batch_dir)
    journal = journal_stats(batch_dir)
    if snapshot is None and journal is None:
        print(
            f"{batch_dir}: neither {METRICS_NAME} nor {JOURNAL_NAME} is readable",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps({"snapshot": snapshot, "journal": journal}, indent=2))
    else:
        print(render_status(snapshot, journal))
    return 0


if __name__ == "__main__":
    sys.exit(main())
