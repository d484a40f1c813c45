"""Journal schema: every declared record kind has exactly one transition
handler, shared by the live supervisor and the resume replay — checked
against the handler table itself, not against anyone's source text — and
an audit kind's handler returns events and leaves batch state alone."""

import pytest

from repro.jobs import journal as journal_mod
from repro.jobs import transitions
from repro.jobs.journal import JOURNAL_KINDS
from repro.jobs.transitions import BatchState, apply, check_handlers

from .test_transitions import summary


def test_schema_is_consistent():
    assert set(transitions.HANDLERS) == set(JOURNAL_KINDS)
    check_handlers(transitions.HANDLERS, JOURNAL_KINDS)  # what import ran
    # one function per kind: no two kinds share a handler by accident
    assert len(set(transitions.HANDLERS.values())) == len(JOURNAL_KINDS)


def test_declared_roles_are_valid():
    assert set(JOURNAL_KINDS.values()) <= {"replayed", "audit"}
    # every kind is documented in the module docstring's record-kind list
    for kind in JOURNAL_KINDS:
        assert f"``{kind}``" in journal_mod.__doc__


def test_undeclared_emitted_kind_raises():
    # the live path and the replay path enter through the same apply(): a
    # record of a kind nobody declared cannot be emitted or folded
    with pytest.raises(KeyError, match="phantom"):
        apply(BatchState(), {"kind": "phantom"}, 0.0)


def test_declared_but_unhandled_kind_raises():
    kinds = dict(JOURNAL_KINDS, phantom="audit")
    with pytest.raises(KeyError, match="phantom"):
        check_handlers(transitions.HANDLERS, kinds)
    # ...and the reverse drift: a handler whose kind was dropped from the table
    kinds = {k: v for k, v in JOURNAL_KINDS.items() if k != "drain"}
    with pytest.raises(KeyError, match="drain"):
        check_handlers(transitions.HANDLERS, kinds)


def test_audit_handlers_leave_state_untouched():
    samples = {
        "shm": {"names": ["/psm_x"]},  # an older supervisor's segment names
        "stream_failed": {"admitted": 1, "reason": "ValueError: x"},
        "sdc": {"job": "a", "attempt": 0, "recovered": True, "detector": "growth",
                "detections": 2, "tiles_reexecuted": 1, "micro_snapshot_bytes": 8},
        "storage_degraded": {"op": "journal_append", "path": "p", "error": "full"},
        "batch_end": {"drained": False, "completed": 0, "terminals": 0},
    }
    audit = {k for k, role in JOURNAL_KINDS.items() if role == "audit"}
    assert set(samples) == audit
    state = BatchState()
    spec = {"job_id": "a", "nt": 8}
    apply(state, {"kind": "admit", "job": "a", "index": 0, "spec": spec}, 0.0)
    before = summary(state)
    for kind, payload in samples.items():
        effects = apply(state, {"kind": kind, **payload}, 1.0)
        assert all(isinstance(info, dict) for _kind, _job, info in effects)
        assert summary(state) == before, kind
