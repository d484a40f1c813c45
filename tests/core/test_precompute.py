"""Tests for affected-point discovery (Listing 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precompute import (
    affected_points,
)
from repro.dsl import Grid, SparseTimeFunction


def make_sparse(coords, grid=None, nt=4, data=None):
    grid = grid or Grid(shape=(11, 11, 11), extent=(100.0, 100.0, 100.0))
    s = SparseTimeFunction("s", grid, npoint=len(coords), nt=nt,
                           coordinates=np.asarray(coords, dtype=float))
    if data is not None:
        s.data[:] = data
    else:
        s.data[:] = 1.0
    return s


def test_single_offgrid_source_touches_8_points():
    s = make_sparse([[35.5, 45.5, 55.5]])
    pts = affected_points(s, "analytic")
    assert pts.shape == (8, 3)


def test_on_grid_source_touches_1_point():
    s = make_sparse([[30.0, 40.0, 50.0]])
    pts = affected_points(s, "analytic")
    assert pts.shape == (1, 3)
    np.testing.assert_array_equal(pts, [[3, 4, 5]])


def test_face_aligned_source_touches_4_points():
    s = make_sparse([[30.0, 40.0, 55.5]])  # off-grid in z only... 2 points
    assert affected_points(s, "analytic").shape == (2, 3)
    s = make_sparse([[30.0, 42.5, 55.5]])  # off-grid in y and z
    assert affected_points(s, "analytic").shape == (4, 3)


def test_overlapping_sources_deduplicated():
    s = make_sparse([[35.5, 45.5, 55.5], [35.5, 45.5, 55.5]])
    assert affected_points(s, "analytic").shape == (8, 3)


def test_canonical_ordering():
    s = make_sparse([[85.5, 15.5, 55.5], [15.5, 85.5, 5.5]])
    pts = affected_points(s, "analytic")
    assert np.array_equal(pts, np.unique(pts, axis=0))


def test_injection_method_matches_analytic():
    coords = [[35.5, 45.5, 55.5], [10.0, 20.0, 30.0], [99.9, 99.9, 0.1]]
    s = make_sparse(coords)
    np.testing.assert_array_equal(
        affected_points(s, "by_injection"), affected_points(s, "analytic")
    )


def test_injection_method_with_zero_opening_wavelet():
    """Listing 2's probe falls back to unit amplitudes when the wavelet opens
    with zeros, so no affected point is missed."""
    s = make_sparse([[35.5, 45.5, 55.5]])
    s.data[:] = 0.0
    np.testing.assert_array_equal(
        affected_points(s, "by_injection"), affected_points(s, "analytic")
    )


def test_opposite_sign_probes_cannot_cancel():
    """Two sources of opposite amplitude on the same cell must still register."""
    s = make_sparse([[35.5, 45.5, 55.5], [35.5, 45.5, 55.5]],
                    data=np.array([[1.0, -1.0]] * 4))
    assert affected_points(s, "by_injection").shape == (8, 3)


def test_dispatch():
    s = make_sparse([[35.5, 45.5, 55.5]])
    assert affected_points(s, "analytic").shape == (8, 3)
    assert affected_points(s, "by_injection").shape == (8, 3)
    with pytest.raises(ValueError):
        affected_points(s, "nope")


def test_boundary_source_stays_in_grid():
    s = make_sparse([[100.0, 100.0, 100.0]])
    pts = affected_points(s, "analytic")
    assert pts.max() <= 10
    assert pts.shape == (1, 3)  # exact corner: single point


coords_strategy = st.lists(
    st.tuples(*([st.floats(0, 100, allow_nan=False)] * 3)), min_size=1, max_size=6
)


@given(coords=coords_strategy)
@settings(max_examples=40, deadline=None)
def test_property_methods_agree(coords):
    s = make_sparse(list(coords))
    np.testing.assert_array_equal(
        affected_points(s, "by_injection"), affected_points(s, "analytic")
    )


@given(coords=coords_strategy)
@settings(max_examples=40, deadline=None)
def test_property_counts_bounded(coords):
    s = make_sparse(list(coords))
    pts = affected_points(s, "analytic")
    assert 1 <= len(pts) <= 8 * len(coords)
