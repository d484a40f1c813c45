"""Tests for schedule descriptions and tile/lag arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    instance_lags,
    tile_origins,
    time_tiles,
)


# -- validation ------------------------------------------------------------------
def test_spatial_block_validation():
    with pytest.raises(ValueError):
        SpatialBlockSchedule(block=(0, 8))
    with pytest.raises(ValueError):
        SpatialBlockSchedule(block=())
    assert SpatialBlockSchedule(block=(4,)).block == (4,)


def test_wavefront_validation():
    with pytest.raises(ValueError):
        WavefrontSchedule(tile=(0, 8))
    with pytest.raises(TypeError):
        WavefrontSchedule(tile=(8, 8), block=(4, 4))  # the executor runs whole tiles
    with pytest.raises(ValueError):
        WavefrontSchedule(height=0)
    assert WavefrontSchedule(tile=(8,), height=1).height == 1


def test_a_wavefront_is_its_tile_and_height():
    wf = WavefrontSchedule(tile=(8, 8), height=2)
    assert wf.describe() == {"kind": "wavefront", "tile": [8, 8], "height": 2}
    assert set(WavefrontSchedule().describe()) == {"kind", "tile", "height"}


def test_schedules_are_frozen():
    s = WavefrontSchedule()
    with pytest.raises(Exception):
        s.height = 5


def test_schedule_kinds():
    assert NaiveSchedule().kind == "naive"
    assert SpatialBlockSchedule().kind == "spatial"
    assert WavefrontSchedule().kind == "wavefront"


# -- time tiles ------------------------------------------------------------------------
def test_time_tiles_cover_range():
    tiles = list(time_tiles(0, 10, 4))
    assert tiles == [(0, 4), (4, 8), (8, 10)]


def test_time_tiles_exact_division():
    assert list(time_tiles(2, 8, 3)) == [(2, 5), (5, 8)]


def test_time_tiles_invalid_height():
    with pytest.raises(ValueError):
        list(time_tiles(0, 4, 0))


@given(m=st.integers(0, 20), n=st.integers(1, 30), h=st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_time_tiles_partition(m, n, h):
    tiles = list(time_tiles(m, m + n, h))
    # contiguous, ordered, covering exactly [m, m+n)
    assert tiles[0][0] == m and tiles[-1][1] == m + n
    for (a0, a1), (b0, b1) in zip(tiles, tiles[1:]):
        assert a1 == b0
    assert all(1 <= t1 - t0 <= h for t0, t1 in tiles)


# -- tile origins ----------------------------------------------------------------------
def test_tile_origins_lexicographic():
    origins = list(tile_origins((8, 8), (4, 4), max_lag=2))
    assert origins == sorted(origins)
    assert origins[0] == (0, 0)
    # covers the skewed extent [0, 8+2)
    assert max(o[0] for o in origins) >= 8


def test_tile_origins_1d():
    assert list(tile_origins((10,), (5,), 0)) == [(0,), (5,)]


# -- instance lags -------------------------------------------------------------------------
def test_instance_lags_single_radius():
    assert instance_lags((2,), 3) == [0, 2, 4]


def test_instance_lags_multi_sweep():
    assert instance_lags((2, 4), 2) == [0, 4, 6, 10]


def test_instance_lags_validation():
    with pytest.raises(ValueError):
        instance_lags((2,), 0)
    with pytest.raises(ValueError):
        instance_lags((), 2)


@given(
    radii=st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
    h=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_lag_safety_property(radii, h):
    """The legality invariant: for any instance A and earlier instance B,
    L[A] - L[B] >= radius(A) — every read of older data is covered."""
    lags = instance_lags(radii, h)
    k = len(radii)
    for ia in range(1, len(lags)):
        ra = radii[ia % k]
        for ib in range(ia):
            assert lags[ia] - lags[ib] >= ra


@given(
    radii=st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
    h=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_lags_monotone_and_bounded(radii, h):
    lags = instance_lags(radii, h)
    assert lags == sorted(lags)
    assert lags[-1] == sum(radii) * h - radii[0]
