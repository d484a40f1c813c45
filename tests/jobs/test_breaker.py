"""Circuit-breaker state machine (injectable clock) and its one attachment
point: the pool supervisor reroutes at dispatch and feeds the breaker from
what attempts report — the same under the inline fleet and the daemons."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.jobs import (
    JOURNAL_NAME,
    METRICS_NAME,
    ChaosConfig,
    CircuitBreaker,
    JobSpec,
    load_journal,
    run_batch,
    run_job_inline,
)
from repro.jobs.__main__ import main as jobs_main
from repro.jobs.breaker import STATE_CODES

from ..conftest import needs_cc
from .fleets import FLEETS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_breaker(threshold=3, cooldown=30.0):
    clock = FakeClock()
    return CircuitBreaker(threshold=threshold, cooldown=cooldown, clock=clock), clock


def test_trips_open_after_threshold_consecutive_failures():
    br, _ = make_breaker(threshold=3)
    for _ in range(2):
        br.record_failure("fused")
        assert br.state == "closed" and br.allow("fused")
    br.record_failure("fused")
    assert br.state == "open"
    assert not br.allow("fused")


def test_success_resets_the_consecutive_count():
    br, _ = make_breaker(threshold=2)
    br.record_failure("fused")
    br.record_success("fused")
    br.record_failure("fused")
    assert br.state == "closed"  # never two in a row


def test_cooldown_half_opens_with_a_single_probe_slot():
    br, clock = make_breaker(threshold=1, cooldown=10.0)
    br.record_failure("fused")
    assert not br.allow("fused")
    clock.advance(9.9)
    assert not br.allow("fused")  # still cooling
    clock.advance(0.2)
    assert br.state == "half_open"
    assert br.allow("fused")      # the probe
    assert not br.allow("fused")  # nobody else while it is in flight


def test_probe_success_closes_probe_failure_reopens():
    br, clock = make_breaker(threshold=1, cooldown=10.0)
    br.record_failure("fused")
    clock.advance(10.0)
    assert br.allow("fused")
    br.record_failure("fused")  # probe came back bad
    assert br.state == "open"
    clock.advance(10.0)
    assert br.allow("fused")
    br.record_success("fused")  # probe came back good
    assert br.state == "closed"
    assert br.allow("fused")


def test_inconclusive_releases_the_probe_without_judging():
    br, clock = make_breaker(threshold=1, cooldown=10.0)
    br.record_failure("fused")
    clock.advance(10.0)
    assert br.allow("fused")
    br.record_inconclusive("fused")  # worker crashed before the engine ran
    assert br.state == "half_open"
    assert br.allow("fused")  # slot is free again


def test_untracked_engines_are_always_allowed():
    br, _ = make_breaker(threshold=1)
    br.record_failure("fused")
    assert not br.allow("fused")
    assert br.allow("interp")  # terminal rung unblockable
    br.record_failure("interp")  # ignored
    br.record_success("interp")  # ignored
    assert br.state == "open"


def test_transitions_are_logged_with_timestamps():
    br, clock = make_breaker(threshold=1, cooldown=5.0)
    br.record_failure("fused")
    clock.advance(5.0)
    br.allow("fused")
    br.record_success("fused")
    assert [s for _, s in br.transitions] == ["open", "half_open", "closed"]


def test_breaker_rejects_bad_parameters():
    with pytest.raises(ValueError, match="threshold"):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError, match="cooldown"):
        CircuitBreaker(cooldown=-1.0)
    # only a compiled rung can be guarded: the interpreter is where a
    # rerouted job must always be able to land
    with pytest.raises(ValueError, match="compiled rung"):
        CircuitBreaker(engine="interp")


def test_fallback_is_the_next_rung_of_the_ladder():
    assert CircuitBreaker(engine="c").fallback == "fused"
    assert CircuitBreaker(engine="fused").fallback == "interp"


# -- attachment to the supervisor (both fleets) ---------------------------------------


def _attempt_engines(workdir):
    return [r["engine"] for r in load_journal(workdir / JOURNAL_NAME).for_kind("attempt")]


@pytest.mark.faults
def test_ladder_feeds_breaker_and_open_breaker_skips_fused(tmp_path):
    for workers in FLEETS:
        br, _ = make_breaker(threshold=1, cooldown=1e9)
        first = run_batch(
            [JobSpec("broken", nt=8)], workers=workers, breaker=br,
            workdir=tmp_path / f"w{workers}-broken", chaos=ChaosConfig(break_rate=1.0),
        )
        result = first.result_for("broken")
        assert result.engine == "interp" and len(result.fallbacks) == 1, workers
        assert br.state == "open"  # the attempt reported the compile failure

        # fused codegen is healthy again, but the open breaker sends the job
        # past the rung outright: no compile attempt, so no fallback either
        healthy = tmp_path / f"w{workers}-healthy"
        second = run_batch(
            [JobSpec("healthy", nt=8)], workers=workers, breaker=br, workdir=healthy
        )
        result = second.result_for("healthy")
        assert result.engine == "interp" and result.fallbacks == [], workers
        assert result.attempts[0].degraded
        assert _attempt_engines(healthy) == ["interp"]
        assert [e["job"] for e in second.events if e["kind"] == "rerouted"] == ["healthy"]
        assert br.state == "open"  # a run on an untracked rung judges nothing


def test_ladder_under_breaker_is_bit_identical(tmp_path):
    spec = JobSpec("tripped", nt=8, seed=3)
    for workers in FLEETS:
        br, _ = make_breaker(threshold=1, cooldown=1e9)
        br.record_failure("fused")  # pre-tripped
        report = run_batch(
            [spec], workers=workers, breaker=br, workdir=tmp_path / f"w{workers}"
        )
        assert report.result_for("tripped").engine == "interp", workers
        np.testing.assert_array_equal(
            report.result_for("tripped").receivers, run_job_inline(spec)
        )


def test_closed_breaker_records_fused_success(tmp_path):
    for workers in FLEETS:
        br, _ = make_breaker(threshold=2)
        br.record_failure("fused")  # one strike: a success must wipe it
        report = run_batch(
            [JobSpec("clean", nt=8)], workers=workers, breaker=br,
            workdir=tmp_path / f"w{workers}",
        )
        assert report.result_for("clean").engine == "fused", workers
        assert br.state == "closed"
        assert br._failures == 0


@pytest.mark.faults
def test_an_attempt_without_a_result_releases_the_half_open_probe(tmp_path):
    """The probe attempt faults before it can say anything about the engine:
    that is inconclusive, not a verdict — the slot is freed, the retry probes
    again on the tracked rung, and its success closes the breaker."""
    for workers in FLEETS:
        br, clock = make_breaker(threshold=1, cooldown=10.0)
        br.record_failure("fused")
        clock.advance(10.0)
        assert br.state == "half_open"
        workdir = tmp_path / f"w{workers}"
        report = run_batch(
            [JobSpec("probe", nt=16, checkpoint_every=4)], workers=workers,
            breaker=br, workdir=workdir, batch_seed=5,
            chaos=ChaosConfig(fault_rate=1.0, kinds=("raise",)),
        )
        result = report.result_for("probe")
        assert [a.outcome for a in result.attempts] == ["fault", "completed"], workers
        assert _attempt_engines(workdir) == ["fused", "fused"]
        assert br.state == "closed"


@needs_cc
def test_open_fused_breaker_lets_a_c_bind_through(tmp_path):
    for workers in FLEETS:
        br, _ = make_breaker(threshold=1, cooldown=1e9)
        br.record_failure("fused")
        assert not br.allow("fused")
        workdir = tmp_path / f"w{workers}"
        report = run_batch(
            [JobSpec("on-c", nt=8, engine="c")], workers=workers, breaker=br,
            workdir=workdir,
        )
        result = report.result_for("on-c")
        assert result.engine == "c" and result.fallbacks == [], workers
        assert _attempt_engines(workdir) == ["c"]
        assert not result.attempts[0].degraded


@needs_cc
@pytest.mark.faults
def test_cli_chaos_and_breaker_follow_the_requested_rung(tmp_path, capsys):
    """``--engine c --break-rate 1 --breaker-threshold 1``: chaos breaks the
    C build step (not the literal ``fused``), the breaker guards ``c`` and
    opens on the first reported fallback, and later jobs are journaled on the
    next rung down — with ``--verify`` holding every receiver to the oracle."""
    for workers in FLEETS:
        workdir = tmp_path / f"w{workers}"
        argv = [
            "--jobs", "5", "--nt", "16", "--engine", "c", "--break-rate", "1",
            "--breaker-threshold", "1", "--workers", str(workers), "--verify",
            "--workdir", str(workdir), "--json",
        ]
        assert jobs_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(payload["verified"].values())
        engines = _attempt_engines(workdir)
        # every job in flight before the first report ran on c, the rest moved
        first_wave = max(1, workers)
        assert engines == ["c"] * first_wave + ["fused"] * (5 - first_wave), workers
        first = payload["jobs"][0]
        assert first["fallbacks"] == [{"failed": "c", "degraded_to": "fused"}]
        snap = json.loads((workdir / METRICS_NAME).read_text())
        state = snap["metrics"]["repro_breaker_state"]["series"]
        assert state == [{"labels": {"engine": "c"}, "value": STATE_CODES["open"]}]
