"""The C rung's memoised pointer tables hold raw addresses across applies.

That is sound only because field storage is rewritten in place, never
reallocated: a model update, a checkpoint restore and an ABFT rollback must
each leave a *cached* C bind bit-identical to a fresh fused run.
"""

import numpy as np
import pytest

from repro.core import WavefrontSchedule
from repro.errors import InjectedFault
from repro.runtime import ABFTGuard, CheckpointConfig, Fault, FaultInjector, MemoryCheckpointStore

from ..conftest import make_acoustic_operator, needs_cc

pytestmark = needs_cc

NT = 10
DT = 0.5
WF = WavefrontSchedule(tile=(6, 6), height=2)


def _run(op, u, rec, engine, **kwargs):
    resume = getattr(kwargs.get("checkpoint"), "resume", False)
    if not resume:
        u.data_with_halo[...] = 0.0
        rec.data[...] = 0.0
    plan = op.apply(
        time_M=NT, dt=DT, schedule=WF, sparse_mode="precomputed", engine=engine, **kwargs
    )
    assert plan.sweeps[0].engine == engine
    return plan, u.data_with_halo.copy(), rec.data.copy()


def _tables(sweeps):
    """The cached (t, box) -> table address bindings: what must survive
    between applies."""
    return {key: bound[0] for sw in sweeps for key, bound in sw._view_cache.items()}


def test_in_place_model_update_between_applies(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    plan, first_u, _ = _run(op, u, rec, "c")
    tables = _tables(plan.sweeps)
    storage = m.data_with_halo.ctypes.data
    m.data = m.data * 1.21  # written in place: the C sweep reads m through its old table
    assert m.data_with_halo.ctypes.data == storage
    plan2, got_u, got_rec = _run(op, u, rec, "c")
    assert plan2.sweeps[0] is plan.sweeps[0] and _tables(plan2.sweeps) == tables
    assert not np.array_equal(got_u, first_u)
    _, ref_u, ref_rec = _run(op, u, rec, "fused")
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)


@pytest.mark.faults
def test_checkpoint_resume_reuses_the_tables(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    _, ref_u, ref_rec = _run(op, u, rec, "fused")
    store = MemoryCheckpointStore()
    with pytest.raises(InjectedFault):
        _run(
            op, u, rec, "c", checkpoint=CheckpointConfig(every=2, store=store),
            faults=FaultInjector([Fault(t=6, kind="raise")]),
        )
    tables = _tables(op._sweep_cache[DT, "c"])
    plan, got_u, got_rec = _run(
        op, u, rec, "c", checkpoint=CheckpointConfig(every=2, store=store, resume=True)
    )
    assert tables and tables.items() <= _tables(plan.sweeps).items()
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)


@pytest.mark.faults
def test_abft_rollback_rewrites_the_buffers_in_place(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=NT)
    _, ref_u, ref_rec = _run(op, u, rec, "fused")
    guard = ABFTGuard()
    faults = FaultInjector([Fault(t=4, kind="bitflip")], seed=11)
    _, got_u, got_rec = _run(op, u, rec, "c", abft=guard, faults=faults)
    assert len(faults.flips) == 1 and guard.stats["tiles_reexecuted"] >= 1
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)
