"""Resilient batch execution of many propagation jobs.

The ROADMAP's production-scale story needs surveys — batches of hundreds of
independent source experiments — to survive the faults a single in-process
``forward()`` cannot: a hung compile, a NaN seed, a killed process.  This
package orchestrates such batches over a pool of long-lived **warm worker
daemons** — preforked once per batch, dispatched over private pipes,
keeping kernel and step-plan caches hot across jobs — and guarantees
forward progress under faults, building directly on the runtime resilience
layer (checkpoint/restart, fault injection, the engine degradation ladder)
and telemetry::

    from repro.jobs import JobSpec, run_batch

    specs = [JobSpec(f"shot-{i:03d}", example="acoustic", nt=64, seed=i)
             for i in range(16)]
    report = run_batch(specs, workers=4)
    assert report.ok            # zero lost jobs
    report.results[0].receivers # bit-identical to a fault-free serial run

Streaming admission takes a lazy iterator of specs, pulled only as the
bounded admission queue frees; jobs dispatch first come, first served::

    pool = JobPool(workers=4, capacity=8)
    pool.submit(spec_generator())   # any non-JobSpec iterable is a stream
    report = pool.run()

The batch itself is crash-safe: every state transition is write-ahead
journaled (``journal.jsonl`` in the batch workdir, fsynced, SHA-256
trailers), so a supervisor killed mid-batch — OOM, SIGKILL, power — is
resumable bit-identically::

    pool = JobPool.resume("path/to/batchdir")   # or: --resume on the CLI
    report = pool.run()
    assert report.resumed and report.ok

SIGTERM/SIGINT drain gracefully (in-flight attempts finish, the rest is
journaled ``interrupted`` and resumable); livelocked daemons are detected
by heartbeat silence and replaced; poison jobs that crash every daemon are
quarantined with forensics instead of retried forever.

The whole service is observable end to end: the journal is the batch's one
record, and ``python -m repro.jobs.status BATCH_DIR`` folds it into the
status of a live, finished or crashed batch (job counts, queues, attempt
latencies, retries, corruption, throughput); with ``trace=True`` the pool
propagates a trace context to every attempt so the per-attempt span trees
come back clock-corrected and merge into one batch-wide Chrome trace
(``--trace`` on the CLI, :func:`repro.telemetry.merge.merge_batch_trace`
in code).

Command line: ``python -m repro.jobs --help`` (chaos knobs included).
"""

from .chaos import ChaosConfig, ChaosEntry, ChaosPlan
from .journal import JOURNAL_NAME, BatchJournal, JournalReplay, load_journal
from .pool import DEFAULT_CAPACITY, JobPool, run_batch
from .retry import RetryPolicy
from .spec import (
    EXAMPLES,
    JOB_ENGINES,
    PHASE_KEYS,
    SCHEDULES,
    STATUSES,
    AttemptRecord,
    BatchReport,
    JobResult,
    JobSpec,
)
from .warm import WarmFleet, WarmState, WarmWorker
from .worker import build_problem, execute_attempt, run_job_inline

__all__ = [
    "JobSpec",
    "AttemptRecord",
    "JobResult",
    "BatchReport",
    "JobPool",
    "run_batch",
    "RetryPolicy",
    "ChaosConfig",
    "ChaosEntry",
    "ChaosPlan",
    "BatchJournal",
    "JournalReplay",
    "load_journal",
    "JOURNAL_NAME",
    "WarmFleet",
    "WarmState",
    "WarmWorker",
    "build_problem",
    "execute_attempt",
    "run_job_inline",
    "EXAMPLES",
    "SCHEDULES",
    "JOB_ENGINES",
    "STATUSES",
    "PHASE_KEYS",
    "DEFAULT_CAPACITY",
]
