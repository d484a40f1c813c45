"""Sort-once sparse precomputation and flat-index aligned operators.

The oracles here are the formulas the precomputation used before it became
one linear-key sort per sparse function: ``np.unique(points, axis=0)`` for
the affected points, a dense id-map lookup (``SID``, built here from
``masks.points``) plus one ``(npts + 1, nt)``
sparse-dense product for ``src_dcmp``, and tuple-of-columns fancy indexing
for the executors.  The rewrite reorders no floating-point operation, so
every comparison below is exact.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.core import WavefrontSchedule, build_masks, decompose_receiver, decompose_source
from repro.core.aligned import AlignedInjection, AlignedReceiver
from repro.core.precompute import affected_points
from repro.dsl import Function, Grid, SparseTimeFunction, TimeFunction
from repro.dsl.interpolation import support_points
from repro.errors import PlanValidationError
from repro.execution.sparse import evaluate_point_scale

SHAPES = {1: (9,), 2: (7, 6), 3: (6, 5, 7)}
SPACING = 10.0


def make_grid(ndim):
    shape = SHAPES[ndim]
    return Grid(shape=shape, extent=tuple(SPACING * (s - 1) for s in shape))


@st.composite
def sparse_sets(draw, ndim=None):
    """(ndim, coordinates, wavelet) mixing the awkward cases: points exactly
    on grid planes (zero-weight corners), on and next to the domain faces,
    repeated coordinates, and all-zero wavelets."""
    ndim = ndim or draw(st.sampled_from([1, 2, 3]))
    shape = SHAPES[ndim]

    def axis(n):
        top = SPACING * (n - 1)
        return st.one_of(
            st.floats(0.0, top, allow_nan=False),
            st.integers(0, n - 1).map(lambda i: i * SPACING),  # on a grid plane
            st.sampled_from([0.0, top, 0.25 * SPACING, top - 0.25 * SPACING]),
        )

    point = st.tuples(*(axis(n) for n in shape))
    coords = draw(st.lists(point, min_size=1, max_size=6))
    if draw(st.booleans()):
        coords += coords[: draw(st.integers(1, len(coords)))]  # duplicates
    nt = 4
    wavelet = draw(
        st.one_of(
            st.just(np.zeros((nt, len(coords)))),
            st.integers(0, 2**31).map(
                lambda s: np.random.default_rng(s).normal(size=(nt, len(coords)))
            ),
        )
    )
    return ndim, np.asarray(coords, dtype=float), wavelet


def make_sparse(grid, coords, wavelet, name="s"):
    s = SparseTimeFunction(name, grid, npoint=len(coords), nt=wavelet.shape[0], coordinates=coords)
    s.data[:] = wavelet
    return s


# -- the parent's formulas, kept as oracles ----------------------------------------------


def reference_points(sparse):
    indices, weights = support_points(sparse.coordinates, sparse.grid)
    return np.unique(indices[np.abs(weights) > 0], axis=0)


def reference_corner_ids(sparse, masks):
    indices, weights = support_points(sparse.coordinates, sparse.grid)
    flat = indices.reshape(-1, indices.shape[-1])
    sid = np.full(sparse.grid.shape, -1, dtype=np.int32)  # the paper's dense SID
    sid[tuple(masks.points.T)] = np.arange(masks.npts)
    ids = sid[tuple(flat[:, d] for d in range(flat.shape[1]))].astype(np.int64)
    return flat, weights, ids


def reference_src_dcmp(injection, dt, masks):
    sparse = injection.sparse
    flat, weights, ids = reference_corner_ids(sparse, masks)
    npoint, ncorner = weights.shape
    scale = evaluate_point_scale(injection.expr, flat, sparse.grid, dt)
    rows = np.where(ids < 0, masks.npts, ids)
    cols = np.repeat(np.arange(npoint), ncorner)
    scatter = sp.csr_matrix(
        (weights.reshape(-1) * scale, (rows, cols)), shape=(masks.npts + 1, npoint)
    )
    data = scatter.dot(np.asarray(sparse.data, dtype=np.float64).T).T
    return np.ascontiguousarray(data[:, : masks.npts]).astype(sparse.grid.dtype)


def reference_receiver_weights(sparse, masks):
    _, weights, ids = reference_corner_ids(sparse, masks)
    npoint, ncorner = weights.shape
    w = weights.copy().reshape(-1)
    w[ids < 0] = 0.0
    ids[ids < 0] = 0
    rows = np.repeat(np.arange(npoint), ncorner)
    return sp.csr_matrix((w, (rows, ids)), shape=(npoint, max(masks.npts, 1)))


# -- set-up -----------------------------------------------------------------------------


@given(case=sparse_sets())
@settings(max_examples=80, deadline=None)
def test_affected_points_match_unique_reference(case):
    ndim, coords, wavelet = case
    s = make_sparse(make_grid(ndim), coords, wavelet)
    ref = reference_points(s)
    for method in ("analytic", "by_injection"):
        got = affected_points(s, method)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    masks = build_masks(s)
    np.testing.assert_array_equal(masks.points, ref)
    # every support corner carries its point's id; a zero-weight corner no
    # source affects goes to the dummy slot
    _, weights, ids = reference_corner_ids(s, masks)
    ref_ids = np.where(ids < 0, masks.npts, ids).astype(np.int32)
    assert masks.corner_ids.dtype == ref_ids.dtype
    assert masks.corner_ids.reshape(-1).tobytes() == ref_ids.tobytes()
    assert not np.any(masks.weights[masks.corner_ids == masks.npts])
    np.testing.assert_array_equal(masks.weights, weights)


def test_grid_plane_source_uses_dummy_slot():
    grid = make_grid(3)
    s = make_sparse(grid, np.array([[20.0, 30.0, 40.0]]), np.ones((4, 1)))
    masks = build_masks(s)
    assert masks.npts == 1
    assert np.count_nonzero(masks.corner_ids == masks.npts) == 7


@given(case=sparse_sets(), dt=st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_decompositions_byte_identical_to_reference(case, dt):
    ndim, coords, wavelet = case
    grid = make_grid(ndim)
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    m = Function("m", grid, space_order=2)
    m.data = 0.3 + np.random.default_rng(1).random(grid.shape)
    s = make_sparse(grid, coords, wavelet)
    masks = build_masks(s)

    inj = s.inject(u, expr=grid.stepping_dim.spacing**2 / m)
    got = decompose_source(inj, dt, masks=masks).data
    ref = reference_src_dcmp(inj, dt, masks)
    assert got.dtype == ref.dtype and got.flags.c_contiguous
    assert got.tobytes() == ref.tobytes()

    w = decompose_receiver(s.interpolate(u), masks=masks).weights
    w_ref = reference_receiver_weights(s, masks)
    assert w.shape == w_ref.shape
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(w, part), getattr(w_ref, part))
    assert w.data.tobytes() == w_ref.data.tobytes()


# -- hot path ---------------------------------------------------------------------------


@st.composite
def partitions(draw, shape):
    """Half-open boxes tiling *shape*: independent random cuts per axis."""
    cuts = []
    for n in shape:
        inner = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True)) if n > 1 else []
        edges = [0, *sorted(inner), n]
        cuts.append(list(zip(edges[:-1], edges[1:])))
    boxes = [()]
    for axis in cuts:
        boxes = [b + (seg,) for b in boxes for seg in axis]
    return draw(st.permutations(boxes))


@given(data=st.data(), case=sparse_sets())
@settings(max_examples=50, deadline=None)
def test_boxwise_equals_whole_grid(data, case):
    ndim, coords, wavelet = case
    grid = make_grid(ndim)
    boxes = data.draw(partitions(grid.shape))
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    s = make_sparse(grid, coords, wavelet)
    masks = build_masks(s)
    inj = AlignedInjection(decompose_source(s.inject(u, expr=1.5), 1.0, masks=masks), u)

    assert inj.apply(2) == masks.npts
    whole = u.data_with_halo.copy()
    # the whole-grid call is the tuple-indexed scatter it replaced
    ref = np.zeros_like(whole[0])
    np.add.at(ref, tuple(masks.points[:, d] + u.halo for d in range(ndim)), inj._amplitudes[2])
    np.testing.assert_array_equal(whole[3 % u.buffers], ref)

    u.data_with_halo[...] = 0.0
    assert sum(inj.apply(2, box=b) for b in boxes) == masks.npts
    np.testing.assert_array_equal(u.data_with_halo, whole)

    u.data_with_halo[...] = np.random.default_rng(3).normal(size=u.data_with_halo.shape)
    out = np.zeros((wavelet.shape[0], len(coords)), dtype=np.float32)
    rec = AlignedReceiver(decompose_receiver(s.interpolate(u), masks=masks), u, out)
    assert rec.gather(1) == masks.npts
    stage_whole = rec._staging[2].copy()
    np.testing.assert_array_equal(
        stage_whole, u.buffer(2)[tuple(masks.points[:, d] + u.halo for d in range(ndim))]
    )
    rec._staging.clear()
    assert sum(rec.gather(1, box=b) for b in boxes) == masks.npts
    np.testing.assert_array_equal(rec._staging[2], stage_whole)


def test_strided_buffer_rejected_at_construction():
    """``buffer.reshape(-1)`` of a non-contiguous buffer is a copy; an
    injection into it would vanish.  Refused once, up front."""
    grid = make_grid(3)
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    s = make_sparse(grid, np.array([[12.0, 23.0, 34.0]]), np.ones((4, 1)))
    dsrc = decompose_source(s.inject(u), 1.0)
    drec = decompose_receiver(s.interpolate(u))
    AlignedInjection(dsrc, u)  # contiguous: fine

    shape = u.data_with_halo.shape
    u._data = np.zeros(shape[:-1] + (2 * shape[-1],), dtype=u.dtype)[..., ::2]
    assert u.buffer(0).shape == shape[1:] and not u.buffer(0).flags.c_contiguous
    with pytest.raises(PlanValidationError, match="C-contiguous"):
        AlignedInjection(dsrc, u)
    with pytest.raises(PlanValidationError, match="C-contiguous"):
        AlignedReceiver(drec, u, s.data)


# -- the regression lock that needs no timer ----------------------------------------------


def _count_calls(monkeypatch, func):
    """Route every ``repro`` module's binding of *func* through a counter."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and (
            getattr(mod, func.__name__, None) is func
        ):
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def test_bind_computes_each_support_once(monkeypatch):
    from repro.propagators import SeismicModel, TTIPropagator, layered_velocity, point_source

    shape = (14, 12, 10)
    model = SeismicModel(
        shape, (10.0,) * 3, layered_velocity(shape, 1.5, 3.0, 3), nbl=2, space_order=4,
        epsilon=0.12, delta=0.05, theta=0.35, phi=0.4,
    )
    dt = model.critical_dt("tti")
    rng = np.random.default_rng(0)
    xyz = lambda n: rng.uniform(5.0, 80.0, (n, 3))  # noqa: E731
    src = point_source("src", model.grid, 8, xyz(40), f0=0.02, dt=dt)
    rec = SparseTimeFunction("rec", model.grid, npoint=30, nt=8, coordinates=xyz(30))
    op = TTIPropagator(model, space_order=4, source=src, receivers=rec).op
    assert len(op.injections()) == 2 and len(op.interpolations()) == 1  # one shared source

    supports = _count_calls(monkeypatch, support_points)
    row_uniques = []
    unique = np.unique

    def spy_unique(*args, **kwargs):
        if kwargs.get("axis") is not None:
            row_uniques.append(kwargs)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy_unique)

    schedule = WavefrontSchedule(tile=(6, 6), height=2)
    op._bind(dt, schedule, "precomputed")
    assert len(supports) == 2  # src once (two injections share it), rec once
    assert {id(a[0]) for a in supports} == {id(src.coordinates), id(rec.coordinates)}
    op._bind(dt, schedule, "precomputed")  # warm rebind: all from cache
    assert len(supports) == 2
    assert not row_uniques
