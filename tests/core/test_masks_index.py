"""Tests for the bucketed spatial index behind ``SourceMasks.points_in_box``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_masks
from repro.core.masks import SourceMasks
from repro.dsl import Grid, SparseTimeFunction

SHAPE = (11, 11, 11)


def make_masks(coords, shape=SHAPE):
    grid = Grid(shape=shape, extent=tuple(10.0 * (s - 1) for s in shape))
    s = SparseTimeFunction("s", grid, npoint=len(coords), nt=3,
                           coordinates=np.asarray(coords, dtype=float))
    s.data[:] = 1.0
    return build_masks(s)


def synthetic_masks(npts, shape=(64, 64, 64), seed=0):
    """A SourceMasks with *npts* fabricated affected points in canonical
    order (build_masks on that many real sources would dominate the test)."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(int(np.prod(shape)), size=npts, replace=False)
    flat.sort()
    points = np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)
    grid = Grid(shape=shape, extent=tuple(float(s - 1) for s in shape))
    dummy = np.zeros((1, 1), dtype=np.int32)
    return SourceMasks(grid=grid, points=points, nnz=dummy, sp_sid=dummy)


box_strategy = st.tuples(
    *[
        st.tuples(st.integers(-3, 13), st.integers(-3, 13))
        for _ in range(3)
    ]
)


@given(box=box_strategy)
@settings(max_examples=60, deadline=None)
def test_indexed_matches_brute_force(box):
    masks = make_masks([[35.5, 45.5, 55.5], [80.3, 20.7, 10.1], [4.2, 99.9, 50.0]])
    np.testing.assert_array_equal(
        masks.points_in_box(box), masks._points_in_box_scan(box)
    )


def test_indexed_matches_brute_force_randomized():
    masks = synthetic_masks(5000, shape=(32, 32, 32), seed=3)
    rng = np.random.default_rng(7)
    cases = [
        tuple((0, s) for s in (32, 32, 32)),        # full grid
        tuple((0, 0) for _ in range(3)),            # empty
        ((-5, 40), (-5, 40), (-5, 40)),             # clipped beyond the grid
        ((31, 32), (0, 32), (0, 32)),               # last slab
    ]
    for _ in range(120):
        lo = rng.integers(-4, 32, size=3)
        hi = lo + rng.integers(0, 12, size=3)
        cases.append(tuple((int(a), int(b)) for a, b in zip(lo, hi)))
    for box in cases:
        np.testing.assert_array_equal(
            masks.points_in_box(box),
            masks._points_in_box_scan(box),
            err_msg=f"box={box}",
        )


def test_ids_ascending_and_int():
    masks = make_masks([[35.5, 45.5, 55.5], [80.3, 20.7, 10.1]])
    ids = masks.points_in_box(((0, 11), (0, 11), (0, 11)))
    assert np.array_equal(ids, np.sort(ids))
    assert ids.dtype == np.intp


def test_small_boxes_do_not_scan_all_points():
    """The acceptance-criterion op count: on a 10^5-point mask, small-box
    queries touch only the leading-dimension slab, not all npts points."""
    masks = synthetic_masks(100_000, shape=(64, 64, 64), seed=1)
    assert masks.npts == 100_000
    rng = np.random.default_rng(2)
    nq = 50
    for _ in range(nq):
        lo = rng.integers(0, 60, size=3)
        box = tuple((int(a), int(a) + 4) for a in lo)
        ids = masks.points_in_box(box)
        np.testing.assert_array_equal(ids, masks._points_in_box_scan(box))
    assert masks.stats["queries"] == nq
    # a 4-wide leading slab holds ~npts * 4/64; brute force would be nq*npts
    assert masks.stats["scanned"] <= nq * masks.npts // 8
    assert masks.stats["scanned"] > 0


def test_box_cache_hits():
    masks = make_masks([[35.5, 45.5, 55.5]])
    box = ((0, 11), (0, 11), (0, 11))
    a = masks.points_in_box(box)
    b = masks.points_in_box(box)
    assert a is b
    assert masks.stats["cache_hits"] == 1


def test_canonical_order_regression_guard():
    masks = make_masks([[35.5, 45.5, 55.5]])
    masks.points[:] = masks.points[::-1]  # sabotage the canonical order
    with pytest.raises(AssertionError, match="canonical order"):
        masks.points_in_box(((0, 11), (0, 11), (0, 11)))


def test_1d_and_2d_grids():
    grid = Grid(shape=(9, 9), extent=(80.0, 80.0))
    s = SparseTimeFunction("s", grid, npoint=1, nt=3,
                           coordinates=np.array([[35.5, 45.5]]))
    s.data[:] = 1.0
    masks = build_masks(s)
    for box in [((0, 9), (0, 9)), ((3, 4), (4, 5)), ((0, 0), (0, 9)), ((-2, 20), (-2, 20))]:
        np.testing.assert_array_equal(
            masks.points_in_box(box), masks._points_in_box_scan(box)
        )
