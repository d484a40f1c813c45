"""One protocol, two fleets: the inline fleet (``workers=0``) and the warm
daemons sit behind the same drive loop, so the same batch tells the same
story under either — plus what only differs by construction (an in-process
attempt cannot be killed, hung or pre-empted)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jobs import (
    JOURNAL_NAME,
    ChaosConfig,
    JobPool,
    JobSpec,
    RetryPolicy,
    load_journal,
    run_job_inline,
)
from repro.jobs.warm import InlineFleet, WarmFleet

pytestmark = pytest.mark.faults

SCENARIOS = {
    "clean": lambda: {},
    "faults": lambda: {"chaos": ChaosConfig(fault_rate=0.2)},
}


def _story(workdir, workers, specs, seed, **kwargs):
    """Per job: terminal status, attempt count, the engine every ``attempt``
    record journals, the degraded flags, and the receivers."""
    pool = JobPool(workers=workers, workdir=workdir, batch_seed=seed, **kwargs)
    pool.submit(iter(specs))
    report = pool.run()
    journaled = load_journal(workdir / JOURNAL_NAME).by_job("attempt")
    story = {}
    for result in report.results:
        job_id = result.spec.job_id
        story[job_id] = (
            result.status,
            len(result.attempts),
            [rec["engine"] for rec in journaled[job_id]],
            [a.degraded for a in result.attempts],
            result.receivers,
        )
    return story


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_same_batch_same_story(tmp_path, scenario, seed):
    specs = [
        JobSpec(f"shot-{i}", nt=16, seed=10 * seed + i, checkpoint_every=4)
        for i in range(4)
    ]
    inline = _story(tmp_path / "w0", 0, specs, seed, **SCENARIOS[scenario]())
    daemons = _story(tmp_path / "w2", 2, specs, seed, **SCENARIOS[scenario]())
    assert inline.keys() == daemons.keys() == {s.job_id for s in specs}
    for spec in specs:
        *told_inline, rec_inline = inline[spec.job_id]
        *told_daemons, rec_daemons = daemons[spec.job_id]
        assert told_inline == told_daemons, spec.job_id
        assert told_inline[0] == "completed"
        reference = run_job_inline(spec)
        np.testing.assert_array_equal(rec_inline, reference)
        np.testing.assert_array_equal(rec_daemons, reference)


def test_workers_selects_the_fleet_once(tmp_path):
    assert isinstance(JobPool(workers=0, workdir=tmp_path / "a").fleet, InlineFleet)
    assert isinstance(JobPool(workers=2, workdir=tmp_path / "b").fleet, WarmFleet)


def test_backoff_does_not_block_the_other_ready_jobs(tmp_path):
    """Job 0 faults and backs off for a second; under the one drive loop it
    waits in ``delayed`` while the inline fleet runs the rest of the batch —
    the serial loop this replaced slept the backoff out with jobs 1-2 idle."""
    specs = [JobSpec(f"j{i}", nt=16, seed=i, checkpoint_every=4) for i in range(3)]
    pool = JobPool(
        workers=0, workdir=tmp_path, batch_seed=3,
        retry=RetryPolicy(base=1.0, jitter=0.0),
        chaos=ChaosConfig(fault_rate=1.0, kinds=("raise",)),
    )
    for spec in specs:
        pool.submit(spec)
    report = pool.run()
    assert report.ok
    order = [
        (e["job"], e["attempt"]) for e in report.events if e["kind"] == "started"
    ]
    # every first attempt ran before any retry came out of its backoff
    assert order[:3] == [("j0", 0), ("j1", 0), ("j2", 0)]
    assert sorted(order[3:]) == [("j0", 1), ("j1", 1), ("j2", 1)]
    # and the three one-second backoffs overlapped instead of adding up
    assert report.wall_seconds < 2.5


def test_inline_fleet_ignores_daemon_only_chaos(tmp_path):
    """Kills, hangs and poison exits need a process to aim at: with
    ``workers=0`` they are inert, nothing is spawned, and the
    batch completes — the in-process attempt cannot be taken from under the
    supervisor."""
    specs = [JobSpec(f"k{i}", nt=32, seed=i, checkpoint_every=4) for i in range(2)]
    pool = JobPool(
        workers=0, workdir=tmp_path, batch_seed=1,
        chaos=ChaosConfig(kill_workers=1, hang_workers=1, hang_seconds=30.0,
                          poison_jobs=1),
    )
    for spec in specs:
        pool.submit(spec)
    report = pool.run()
    assert report.ok and report.wall_seconds < 20.0
    assert (report.kills, report.hung_workers, report.workers_spawned) == (0, 0, 0)
    for result in report.results:
        assert [a.outcome for a in result.attempts] == ["completed"]
        assert result.attempts[0].worker is None
