"""Growth certificates: one verdict whichever engine bound, never stale."""

from collections import Counter

import pytest

from repro.core import NaiveSchedule
from repro.dsl.functions import TimeFunction
from repro.dsl.symbols import Indexed
from repro.propagators.examples import EXAMPLES, build_example
from repro.runtime import ABFTGuard
from repro.verify import prove_growth
from repro.verify.absint import growth

from ..conftest import AVAILABLE_ENGINES

#: certified per-step gains before the fused rung stopped having a vehicle of
#: its own (interval propagation through the hoisted float32 kernel program)
PARENT_GAINS = {"acoustic": 18.739998397, "tti": 26.501083166, "elastic": 15.973671505}


@pytest.mark.parametrize("kind", EXAMPLES)
def test_growth_certificate_is_engine_independent(kind):
    certs = []
    for engine in AVAILABLE_ENGINES:
        prop, dt = build_example(kind)
        plan = prop.op._bind(dt, NaiveSchedule(), "auto", engine=engine)
        assert {sw.engine for sw in plan.sweeps} == {engine}
        certs.append(prove_growth(plan.sweeps, operator=prop.op.name, dt=dt))
    assert all(cert == certs[0] for cert in certs)
    assert certs[0].check()
    assert certs[0].step_gain == pytest.approx(PARENT_GAINS[kind], rel=1e-7)


def test_growth_certificate_follows_in_place_model_update():
    """The proof reads the current model ranges, and in-place model updates
    between applies are supported: every guarded apply proves afresh.  (A
    certificate cached per dt kept the old gain, 16x too tight over a
    height-4 tile after this velocity update — a false SilentCorruptionError
    against a slack of 8.)"""
    prop, dt = build_example("acoustic")
    op = prop.op
    gains = []
    for divisor in (1.0, 4.0):
        prop.model.m.data_with_halo[...] /= divisor
        guard = ABFTGuard()
        plan = op.apply(time_M=4, dt=dt, abft=guard)
        fresh = prove_growth(plan.sweeps, operator=op.name, dt=dt)
        assert guard.certificate == fresh
        gains.append(guard.certificate.step_gain)
    assert gains[1] > 2 * gains[0]


@pytest.mark.parametrize("kind", EXAMPLES)
def test_each_model_field_is_scanned_once_per_proof(kind, monkeypatch):
    """A model field read at several places of the update trees costs one
    min/max pass per proof, not one per read."""
    prop, dt = build_example(kind)
    plan = prop.op._bind(dt, NaiveSchedule(), "auto")
    reads = Counter(
        node.function.name
        for sweep in plan.sweeps
        for beq in sweep.beqs
        for node in beq.rhs.preorder()
        if isinstance(node, Indexed) and not isinstance(node.function, TimeFunction)
    )
    assert max(reads.values()) > 1  # some field is read more than once
    scanned = Counter()
    read_interval = growth.read_interval

    def counting(access):
        if not isinstance(access.function, TimeFunction):
            scanned[access.function.name] += 1
        return read_interval(access)

    monkeypatch.setattr(growth, "read_interval", counting)
    cert = prove_growth(plan.sweeps, operator=prop.op.name, dt=dt)
    assert scanned == Counter(set(reads))
    assert cert.step_gain == pytest.approx(PARENT_GAINS[kind], rel=1e-7)
