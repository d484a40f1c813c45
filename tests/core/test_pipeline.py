"""Tests for the explicit TemporalBlockingPipeline."""

import numpy as np
import pytest

from repro.core import NaiveSchedule, TemporalBlockingPipeline, WavefrontSchedule
from repro.core.scheduler import schedule_for

from ..conftest import make_acoustic_operator, run_and_capture


@pytest.fixture
def setup(grid3d):
    return make_acoustic_operator(grid3d, nt=8)


def test_precompute_populates_artifacts(setup):
    op, u, m, src, rec = setup
    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    assert {s.name for s in pipe.masks} == {"src", "rec"}
    assert len(pipe.sources) == 1 and len(pipe.receivers) == 1
    assert pipe.sources[op.injections()[0]].npts >= 1


def test_report_contents(setup):
    op, *_ = setup
    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    rep = pipe.report()
    assert rep.nsources == 1 and rep.nreceivers == 1
    assert rep.affected_points > 0
    assert 0 < rep.density < 1
    assert rep.aux_bytes > 0
    assert rep.wavefront_angle == 2
    text = rep.render()
    assert "affected points" in text and "wavefront angle" in text


def test_report_requires_precompute(setup):
    op, *_ = setup
    with pytest.raises(RuntimeError):
        TemporalBlockingPipeline(op, dt=1.0).report()


def test_run_matches_operator_path(setup):
    op, u, m, src, rec = setup
    sched = WavefrontSchedule(tile=(5, 5), height=4)
    ref = run_and_capture(op, u, rec, 8, 1.0, NaiveSchedule(), "precomputed")

    u.data_with_halo[...] = 0.0
    rec.data[...] = 0.0
    TemporalBlockingPipeline(op, dt=1.0).precompute()
    op.apply(time_M=8, dt=1.0, schedule=sched, sparse_mode="precomputed")
    np.testing.assert_array_equal(u.interior(8), ref[0])
    np.testing.assert_array_equal(rec.data, ref[1])


def test_pipeline_primes_operator_cache(setup):
    op, u, m, src, rec = setup
    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    inj = op.injections()[0]
    # the operator must reuse the pipeline's decomposition, not rebuild
    assert op._decomp_cache[(inj, 1.0)] is pipe.sources[inj]


def test_run_without_explicit_precompute(setup):
    # the operator precomputes on its own; a pipeline built afterwards
    # reports the very artefacts that run used
    op, u, m, src, rec = setup
    op.apply(time_M=4, dt=1.0, schedule=WavefrontSchedule(), sparse_mode="precomputed")
    inj = op.injections()[0]
    used = op._decomp_cache[(inj, 1.0)]
    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    assert pipe._done
    assert pipe.sources[inj] is used


def test_same_named_sparse_functions_do_not_collide(grid3d):
    """Caches are keyed by the sparse function object, not its name: two
    receiver sets that share a name keep their own masks."""
    from repro.dsl import SparseTimeFunction
    from repro.ir import Operator

    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=8)
    twin = SparseTimeFunction(
        rec.name, grid3d, npoint=2, nt=rec.nt,
        coordinates=np.array([[12.5, 81.0, 33.3], [97.1, 14.2, 60.6]]),
    )
    op = Operator(op.eqs, sparse=[*op.sparse_ops, twin.interpolate(u)])

    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    assert len(pipe.masks) == 3 and len(op._mask_cache) == 3
    assert pipe.masks[twin] is not pipe.masks[rec]
    assert pipe.report().affected_points == sum(m.npts for m in pipe.masks.values())
    op.apply(
        time_M=8, dt=1.0, schedule=WavefrontSchedule(tile=(5, 5), height=4),
        sparse_mode="precomputed",
    )
    got = rec.data.copy(), twin.data.copy()

    u.data_with_halo[...] = 0.0
    op.apply(time_M=8, dt=1.0, schedule=NaiveSchedule(), sparse_mode="offgrid")
    np.testing.assert_allclose(got[0], rec.data, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(got[1], twin.data, rtol=1e-5, atol=1e-7)
    assert twin.data.any()


def test_tti_injections_share_one_decomposed_source():
    """TTI injects one source into p and q with the same dt**2/m: one
    src_dcmp per (source, scale, dt), not per injection — shared down to the
    aligned operators' amplitude tables, counted once in the report, and
    still bit-identical to the raw off-the-grid injection."""
    from repro.propagators.examples import build_example

    prop, dt = build_example("tti")
    op = prop.op
    p_inj, q_inj = op.injections()
    assert p_inj.field is not q_inj.field and p_inj.expr == q_inj.expr
    pipe = TemporalBlockingPipeline(op, dt).precompute()
    d_p, d_q = pipe.sources[p_inj], pipe.sources[q_inj]
    assert d_p.data is d_q.data and d_p.masks is d_q.masks
    assert (d_p.field_name, d_q.field_name) == (p_inj.field.name, q_inj.field.name)
    masks = sum(m.memory_bytes() for m in pipe.masks.values())
    assert pipe.report().aux_bytes == masks + d_p.data.nbytes

    ref, _ = prop.forward(nt=16, dt=dt, schedule="naive", sparse_mode="offgrid")
    ref = ref.copy()
    for kind in ("naive", "spatial", "wavefront"):
        rec, _ = prop.forward(
            nt=16, dt=dt, schedule=kind, sparse_mode="precomputed"
        )
        np.testing.assert_array_equal(rec, ref)
    plan = op._bind(dt, schedule_for("wavefront", op.grid.ndim, 16), "precomputed")
    a_p, a_q = (inj for injs in plan.injections.values() for inj in injs)
    assert np.shares_memory(a_p._amplitudes, a_q._amplitudes)
