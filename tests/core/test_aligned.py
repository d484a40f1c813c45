"""Tests for grid-aligned box-wise injection and measurement (Listings 4/5)."""

import numpy as np
import pytest

from repro.core import decompose_receiver, decompose_source
from repro.core.aligned import AlignedInjection, AlignedReceiver
from repro.core import WavefrontSchedule
from repro.dsl import Grid, SparseTimeFunction, TimeFunction


@pytest.fixture
def setup():
    grid = Grid(shape=(11, 11, 11), extent=(100.0, 100.0, 100.0))
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    src = SparseTimeFunction("src", grid, npoint=2, nt=6,
                             coordinates=np.array([[35.5, 45.5, 55.5], [71.2, 13.3, 88.4]]))
    rng = np.random.default_rng(0)
    src.data[:] = rng.normal(size=(6, 2)).astype(np.float32)
    return grid, u, src


def test_box_injection_sums_to_full(setup):
    """Injecting per-box over a partition == injecting the whole grid once."""
    grid, u, src = setup
    d = decompose_source(src.inject(u, expr=1.0), dt=1.0)
    inj = AlignedInjection(d, u)
    inj.apply(2)
    full = u.buffer(3).copy()

    u.data_with_halo[...] = 0.0
    for x0 in range(0, 11, 4):
        for y0 in range(0, 11, 3):
            inj.apply(2, box=((x0, min(x0 + 4, 11)), (y0, min(y0 + 3, 11)), (0, 11)))
    np.testing.assert_array_equal(u.buffer(3), full)


def test_injection_out_of_range_timestep_noop(setup):
    grid, u, src = setup
    d = decompose_source(src.inject(u, expr=1.0), dt=1.0)
    inj = AlignedInjection(d, u)
    inj.apply(-1)
    inj.apply(99)
    assert not u.data_with_halo.any()


def test_injection_field_mismatch(setup):
    grid, u, src = setup
    d = decompose_source(src.inject(u, expr=1.0), dt=1.0)
    other = TimeFunction("w", grid, time_order=2, space_order=2)
    with pytest.raises(ValueError, match="targets field"):
        AlignedInjection(d, other)


def test_overhead_points(setup):
    grid, u, src = setup
    d = decompose_source(src.inject(u, expr=1.0), dt=1.0)
    assert AlignedInjection(d, u).overhead_points() == d.npts


def test_receiver_box_gather_then_finalize(setup):
    grid, u, src = setup
    rng = np.random.default_rng(1)
    u.buffer(3)[...] = rng.normal(size=u.buffer(3).shape).astype(np.float32)
    rec = SparseTimeFunction("rec", grid, npoint=2, nt=6,
                             coordinates=np.array([[33.3, 44.4, 55.5], [60.0, 20.0, 80.0]]))
    d = decompose_receiver(rec.interpolate(u))
    out = np.zeros((6, 2), dtype=np.float32)
    r = AlignedReceiver(d, u, out)

    # gather in boxes, finalize at timestep end
    for x0 in range(0, 11, 5):
        r.gather(2, box=((x0, min(x0 + 5, 11)), (0, 11), (0, 11)))
    # the boxes partition the grid: row 3's ring slot is staged whole
    points = tuple(r.masks.points[:, d] + u.halo for d in range(3))
    np.testing.assert_array_equal(r._ring[3 % r._ring.shape[0]], u.buffer(3)[points])
    r.finalize(2)

    # reference: whole-grid gather
    out_ref = np.zeros((6, 2), dtype=np.float32)
    r2 = AlignedReceiver(d, u, out_ref)
    r2.gather(2)
    r2.finalize(2)
    np.testing.assert_allclose(out[3], out_ref[3], rtol=1e-6)
    assert out[3].any()


def test_receiver_out_of_range_row(setup):
    grid, u, src = setup
    rec = SparseTimeFunction("rec", grid, npoint=1, nt=3)
    d = decompose_receiver(rec.interpolate(u))
    r = AlignedReceiver(d, u, rec.data)
    r.gather(99)
    r.finalize(99)  # no crash, no row


def test_receiver_field_mismatch(setup):
    grid, u, src = setup
    rec = SparseTimeFunction("rec", grid, npoint=1, nt=3)
    d = decompose_receiver(rec.interpolate(u))
    other = TimeFunction("w", grid, time_order=2, space_order=2)
    with pytest.raises(ValueError, match="targets field"):
        AlignedReceiver(d, other, rec.data)


def test_injection_amplitudes_converted_once(setup):
    """No per-timestep astype churn: amplitudes live in the field dtype."""
    grid, u, src = setup
    d = decompose_source(src.inject(u, expr=1.0), dt=1.0)
    inj = AlignedInjection(d, u)
    assert u.dtype == np.float32
    assert inj._amplitudes.dtype == u.dtype
    assert inj._amplitudes.flags["C_CONTIGUOUS"]
    # identical values to casting the float64 decomposition per call
    np.testing.assert_array_equal(
        inj._amplitudes, d.data.astype(u.dtype, copy=False)
    )
    inj.apply(2)
    assert u.buffer(3).dtype == u.dtype


def test_receiver_staging_stays_float64(setup):
    """Reconstruction precision is unchanged: staging and weights are float64
    and the single cast happens on the output assignment."""
    grid, u, src = setup
    rec = SparseTimeFunction("rec", grid, npoint=2, nt=6)
    d = decompose_receiver(rec.interpolate(u))
    r = AlignedReceiver(d, u, rec.data)
    u.buffer(2)[...] = 1.25
    r.gather(2)
    assert r._ring.dtype == np.float64
    assert d.weights.dtype == np.float64
    r.finalize(2)
    assert rec.data.dtype == np.float32


# -- the sweep epilogue (Listing 5 in C) against the Python bodies ----------------------


from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.dsl import Eq  # noqa: E402
from repro.ir import Operator  # noqa: E402

from ..conftest import needs_cc, run_sweep  # noqa: E402


def _boxes(shape):
    return st.tuples(*(
        st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted).map(tuple) for n in shape
    ))


@needs_cc
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(9, 8, 7), (12, 10), (23,), (24, 25, 26)])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_c_sparse_kernels_match_python_bodies(shape, dtype, data):
    """A C sweep with its epilogue against the interpreter's sweep followed by
    the Python bodies, one arbitrary box at a time (overlapping, empty,
    one-point, pencil-cutting ones included), every rank and dtype, each box
    a run of one step on the OpenMP team: same additions, same staged
    values, same counts, byte-equal traces.  On the 24x25x26 grid the draw
    is dense — hundreds of points; boxes that span ``z`` take the unchecked
    ``z2`` loop."""
    from repro.ir.cgen import PARALLEL_MIN_POINTS, SPARSE_PARALLEL_MIN

    ndim = len(shape)
    grid = Grid(shape=shape, extent=tuple(10.0 * (n - 1) for n in shape), dtype=dtype)
    dense = np.prod(shape) >= 24**3
    npoint = data.draw(st.integers(400, 700) if dense else st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 10.0 * (np.asarray(shape) - 1), size=(npoint, ndim))
    coords[0] = np.floor(coords[0] / 10.0) * 10.0  # one point exactly on the grid
    nt = 4

    def fresh(engine):
        u = TimeFunction("u", grid, time_order=2, space_order=2, dtype=dtype)
        u.data_with_halo[...] = np.random.default_rng(seed + 1).normal(
            size=u.data_with_halo.shape).astype(dtype)
        src = SparseTimeFunction("src", grid, npoint=npoint, nt=nt, coordinates=coords)
        src.data[:] = np.random.default_rng(seed + 2).normal(size=(nt, npoint))
        rec = SparseTimeFunction("rec", grid, npoint=npoint, nt=nt, coordinates=coords)
        op = Operator([Eq(u.forward, 0.5 * u + 0.25 * u.backward)],
                      sparse=[src.inject(u, expr=1.0), rec.interpolate(u)])
        plan = op._bind(1.0, WavefrontSchedule(), "precomputed", engine=engine)
        (inj,), (rcv,) = plan.injections[0], plan.receivers[0]
        rcv.reserve(nt + 1)  # every row keeps its own slot
        return u, plan.sweeps[0], inj, rcv, rec

    (u_py, sw_py, inj_py, rcv_py, rec_py) = fresh("interp")
    (u_c, sw_c, inj_c, rcv_c, rec_c) = fresh("c")
    assert sw_c.engine == "c"
    table = sw_c.sparse_table([inj_c], [rcv_c])
    if dense:  # the sweep's if clause and the reconstruction's are both crossed
        assert np.prod(shape) >= PARALLEL_MIN_POINTS
        assert rcv_c.drec.weights.nnz >= SPARSE_PARALLEL_MIN
        assert rcv_c._reconstruct is not None
    full = tuple((0, n) for n in shape)
    boxes = [full, full] + data.draw(st.lists(_boxes(shape), max_size=6))
    injected = gathered = 0
    for t, box in enumerate(boxes):
        t %= nt + 1  # t = nt: the source row and the trace row are out of range
        run_sweep(sw_c, t, box, table)
        sw_py.evaluate(t, box)
        injected += inj_py.apply(t, box)
        gathered += rcv_py.gather(t, box)
        assert (table[0], table[1]) == (injected, gathered)
    assert u_c.data_with_halo.tobytes() == u_py.data_with_halo.tobytes()
    assert rcv_c._ring.tobytes() == rcv_py._ring.tobytes()
    for t in range(nt):
        rcv_c.finalize(t), rcv_py.finalize(t)
    assert rec_c.data.tobytes() == rec_py.data.tobytes()


@needs_cc
@pytest.mark.parametrize("case", ["negative-zero-stage", "zero-weight-receiver", "float64-trace"])
def test_c_reconstruction_is_weights_dot(case):
    """``aligned_reconstruct_*`` against ``weights.dot(stage)`` cast by the
    trace assignment, byte for byte, where an accumulation that does not start
    from +0.0 in double, or skips a stored entry, would show: a stage of -0.0
    (every product -0.0, the sum +0.0); a receiver whose corners all carry
    weight 0 over staged infinities (``0 * inf`` is NaN, so its zero-weight
    entries must be summed too); a float64 trace.  400 receivers: 3 200
    entries, on the team."""
    from repro.ir.cgen import SPARSE_PARALLEL_MIN

    shape, npoint, nt = (14, 13, 12), 400, 3
    grid = Grid(shape=shape, extent=tuple(10.0 * (n - 1) for n in shape))
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    rng = np.random.default_rng(11)
    if case == "negative-zero-stage":
        u.data_with_halo[...] = -0.0
    else:
        u.data_with_halo[...] = -np.abs(rng.normal(size=u.data_with_halo.shape))
    coords = rng.uniform(0.0, 10.0 * (np.asarray(shape) - 1), size=(npoint, 3))
    rec = SparseTimeFunction("rec", grid, npoint=npoint, nt=nt, coordinates=coords)
    drec = decompose_receiver(rec.interpolate(u))
    w = drec.weights
    if case == "zero-weight-receiver":
        w.data[w.indptr[1]:w.indptr[2]] = 0.0
    assert w.nnz >= SPARSE_PARALLEL_MIN
    trace = np.float64 if case == "float64-trace" else np.float32
    out = np.full((nt, npoint), np.nan, dtype=trace)
    receiver = AlignedReceiver(drec, u, out, c=True)
    assert receiver._reconstruct is not None
    receiver.gather(0)
    row = receiver.time_offset  # the row gather(0) staged
    ring_row = receiver._ring[row % receiver._ring.shape[0]]
    if case == "zero-weight-receiver":
        ring_row[w.indices[w.indptr[1]:w.indptr[2]]] = np.inf
    stage = ring_row.copy()
    receiver.finalize(0)
    expected = np.full_like(out, np.nan)
    expected[row] = w.dot(stage)
    assert out.tobytes() == expected.tobytes()
    if case == "negative-zero-stage":
        assert np.signbit(stage).all() and not np.signbit(out[row]).any()
    if case == "zero-weight-receiver":
        assert np.isnan(out[row, 1])
