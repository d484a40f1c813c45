"""Circuit-breaker state machine (injectable clock) and its in-process
attachment to the engine degradation ladder."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import NaiveSchedule
from repro.errors import EngineFallbackWarning
from repro.jobs import CircuitBreaker
from repro.runtime import break_engine
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, run_and_capture


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


# -- attachment to the engine ladder --------------------------------------------------

NT = 8
DT = 0.5


def test_ladder_feeds_breaker_and_open_breaker_skips_fused(grid2d):
    br, _ = make_breaker(threshold=1, cooldown=1e9)
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    with break_engine("fused"):
        with pytest.warns(EngineFallbackWarning):
            plan = op.apply(time_M=NT, dt=DT, engine="fused", breaker=br)
    assert plan.sweeps[0].engine == "interp"
    assert br.state == "open"  # the ladder reported the compile failure

    # fused codegen is healthy again, but the open breaker skips the rung
    # outright: no compile attempt, no fallback warning, straight to interp
    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    tel = Telemetry()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        plan2 = op2.apply(time_M=NT, dt=DT, engine="fused", breaker=br, telemetry=tel)
    assert plan2.sweeps[0].engine == "interp"
    assert tel.counters["engine_breaker_skips"] == 1
    br.record_success("interp")  # untracked: state unchanged
    assert br.state == "open"


def test_ladder_under_breaker_is_bit_identical(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    ref_u, ref_rec = run_and_capture(op, u, rec, NT, DT, NaiveSchedule(), engine="interp")

    br, _ = make_breaker(threshold=1, cooldown=1e9)
    br.record_failure("fused")  # pre-tripped
    op2, u2, m2, src2, rec2 = make_acoustic_operator(grid2d, nt=NT)
    u2.data_with_halo[...] = 0.0
    rec2.data[...] = 0.0
    op2.apply(time_M=NT, dt=DT, schedule=NaiveSchedule(), engine="fused", breaker=br)
    np.testing.assert_array_equal(u2.interior(NT), ref_u)
    np.testing.assert_array_equal(rec2.data, ref_rec)


def test_closed_breaker_records_fused_success(grid2d):
    br, _ = make_breaker(threshold=1)
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    op.apply(time_M=NT, dt=DT, engine="fused", breaker=br)
    assert br.state == "closed"
    assert br._failures == 0
