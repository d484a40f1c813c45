"""Tests for the mask structures (Figs. 5-6): the sorted affected points,
whose rows are the ids (the paper's SM/SID), and the nnz/Sp_SID pair."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_masks
from repro.dsl import Grid, SparseTimeFunction
from repro.dsl.interpolation import support_points


def make_sparse(coords, shape=(11, 11, 11)):
    grid = Grid(shape=shape, extent=tuple(10.0 * (s - 1) for s in shape))
    s = SparseTimeFunction("s", grid, npoint=len(coords), nt=3,
                           coordinates=np.asarray(coords, dtype=float))
    s.data[:] = 1.0
    return s


def point_keys(masks):
    return np.ravel_multi_index(tuple(masks.points.T), masks.grid.shape)


def test_sm_matches_points():
    """The affected points are the nonzero-weight support corners (the ones
    of the paper's binary source mask), each listed once."""
    s = make_sparse([[35.5, 45.5, 55.5]])
    masks = build_masks(s)
    indices, weights = support_points(s.coordinates, s.grid)
    support = {tuple(p) for p in indices[np.abs(weights) > 0].tolist()}
    assert masks.npts == 8 == len(support)
    assert {tuple(p) for p in masks.points.tolist()} == support


def test_sid_unique_ascending():
    """An affected point's id is its row: ids ascend with the C-order key,
    and every support corner carries the id of its own grid point."""
    s = make_sparse([[35.5, 45.5, 55.5], [80.3, 20.7, 10.1]])
    masks = build_masks(s)
    assert np.all(np.diff(point_keys(masks)) > 0)
    indices, _ = support_points(s.coordinates, s.grid)
    live = masks.corner_ids < masks.npts
    np.testing.assert_array_equal(masks.points[masks.corner_ids[live]], indices[live])


def test_sid_sentinel_elsewhere():
    """A zero-weight corner no source affects holds the dummy id ``npts``."""
    masks = build_masks(make_sparse([[30.0, 45.5, 55.5]]))  # x on a grid plane
    assert masks.npts == 4
    assert np.count_nonzero(masks.corner_ids == masks.npts) == 4
    assert not masks.weights[masks.corner_ids == masks.npts].any()


def test_build_masks_keeps_no_grid_sized_array():
    """The id map build_masks fills for the corner ids is dropped before it
    returns: what survives the call is well under a byte per grid point."""
    s = make_sparse([[317.2, 316.8, 155.1]], shape=(64, 64, 64))
    tracemalloc.start()
    try:
        masks = build_masks(s)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks.npts == 8
    assert kept < s.grid.npoints


def test_memory_bytes_below_grid_size():
    """One source on 64^3: nnz and Sp_SID are pencil-sized, so the auxiliary
    footprint is below one byte per grid point."""
    masks = build_masks(make_sparse([[317.2, 316.8, 155.1]], shape=(64, 64, 64)))
    assert masks.memory_bytes() == masks.nnz.nbytes + masks.sp_sid.nbytes
    assert masks.memory_bytes() < masks.grid.npoints


def test_nnz_counts_z_slots():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    assert masks.nnz.sum() == masks.npts
    assert masks.nnz.max() == 2  # two z corners per occupied pencil
    assert masks.max_nnz == 2


def test_sp_sid_compaction():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    for x, y in zip(*np.nonzero(masks.nnz)):
        k = masks.nnz[x, y]
        zs = masks.sp_sid[x, y, :k]
        assert (zs >= 0).all()
        on_pencil = masks.points[(masks.points[:, 0] == x) & (masks.points[:, 1] == y)]
        np.testing.assert_array_equal(zs, on_pencil[:, 2])
        assert (masks.sp_sid[x, y, k:] == -1).all()
        assert np.array_equal(np.sort(zs), zs)  # ascending z per pencil


def test_density_and_occupancy():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    assert masks.density() == pytest.approx(8 / 11**3)
    assert masks.pencil_occupancy() == pytest.approx(4 / 121)


def test_memory_bytes_positive():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    assert masks.memory_bytes() > 0


def test_points_in_box():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    all_ids = masks.points_in_box(((0, 11), (0, 11), (0, 11)))
    assert len(all_ids) == 8
    none = masks.points_in_box(((0, 1), (0, 1), (0, 1)))
    assert len(none) == 0
    # half-open semantics: box ending at the base x excludes it
    bx = int(masks.points[:, 0].min())
    left = masks.points_in_box(((0, bx), (0, 11), (0, 11)))
    assert len(left) == 0


def test_2d_grid_masks():
    grid = Grid(shape=(9, 9), extent=(80.0, 80.0))
    s = SparseTimeFunction("s", grid, npoint=1, nt=3,
                           coordinates=np.array([[35.5, 45.5]]))
    s.data[:] = 1.0
    masks = build_masks(s)
    assert masks.nnz.shape == (9,)
    assert masks.npts == 4
    assert np.all(np.diff(point_keys(masks)) > 0)
    # slot k of pencil x is the y of the point with id start[x] + k
    start = np.cumsum(masks.nnz) - masks.nnz
    for x in np.flatnonzero(masks.nnz):
        ids = start[x] + np.arange(masks.nnz[x])
        np.testing.assert_array_equal(masks.points[ids, 0], x)
        np.testing.assert_array_equal(masks.sp_sid[x, : masks.nnz[x]], masks.points[ids, 1])


def test_empty_pencils_have_sentinel_slots():
    masks = build_masks(make_sparse([[35.5, 45.5, 55.5]]))
    empty = masks.nnz == 0
    assert (masks.sp_sid[empty] == -1).all()


coords_strategy = st.lists(
    st.tuples(*([st.floats(0, 100, allow_nan=False)] * 3)), min_size=1, max_size=8
)


@given(coords=coords_strategy)
@settings(max_examples=40, deadline=None)
def test_property_invariants(coords):
    masks = build_masks(make_sparse(list(coords)))
    # ids ascend with the points' keys
    assert np.all(np.diff(point_keys(masks)) > 0)
    # nnz is the per-pencil count of the points
    counts = np.zeros(masks.nnz.shape, dtype=np.int64)
    np.add.at(counts, (masks.points[:, 0], masks.points[:, 1]), 1)
    np.testing.assert_array_equal(masks.nnz, counts)
    # nnz/Sp_SID list every affected point once, in id order
    listed = [
        (x, y, z)
        for x, y in zip(*np.nonzero(masks.nnz))
        for z in masks.sp_sid[x, y, : masks.nnz[x, y]]
    ]
    assert listed == [tuple(p) for p in masks.points.tolist()]
