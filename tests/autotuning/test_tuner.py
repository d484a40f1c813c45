"""Tests for the schedule autotuner (Table I machinery)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

from paper_model import (  # noqa: E402
    BROADWELL,
    DEFAULT_BLOCKS,
    DEFAULT_TILES,
    GridGeometry,
    PerformanceModel,
    SourceLoad,
    tune_spatial,
    tune_wavefront,
)

from repro.core import SpatialBlockSchedule, WavefrontSchedule  # noqa: E402

from ..machine.test_kernels import make_spec  # noqa: E402

GEO = GridGeometry((512, 512, 512), 100)


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(make_spec("acoustic", 4), BROADWELL, GEO, SourceLoad())


def test_best_beats_arbitrary_choice(model):
    result = tune_wavefront(model)
    arbitrary = model.evaluate(WavefrontSchedule(tile=(16, 16), height=12), block=(4, 4))
    assert result.best.gpoints_s >= arbitrary.gpoints_s


def test_best_is_global_max(model):
    result = tune_wavefront(model, tiles=(16, 32), blocks=(4, 8), heights=(1, 2, 4))
    assert result.best.gpoints_s == pytest.approx(
        max(c.gpoints_s for c in result.candidates)
    )


def test_candidates_enumerated(model):
    result = tune_wavefront(model, tiles=(16, 32), blocks=(4, 8), heights=(2,))
    # 2x2 tiles x 2x2 blocks x 1 height
    assert len(result.candidates) == 16


def test_top_sorted(model):
    result = tune_wavefront(model, tiles=(16, 32), blocks=(4, 8), heights=(1, 2))
    top = result.top(3)
    assert len(top) == 3
    assert top[0].gpoints_s >= top[1].gpoints_s >= top[2].gpoints_s


def test_block_never_exceeds_tile(model):
    result = tune_wavefront(model, tiles=(8,), blocks=(4, 8, 16), heights=(2,))
    for c in result.candidates:
        assert c.block[0] <= c.schedule.tile[0]
        assert c.block[1] <= c.schedule.tile[1]


def test_square_tiles_option(model):
    result = tune_wavefront(model, tiles=(16, 32), blocks=(8,), heights=(2,),
                            square_tiles_only=True)
    assert all(c.schedule.tile[0] == c.schedule.tile[1] for c in result.candidates)


def test_tuned_wavefront_beats_tuned_spatial(model):
    base = tune_spatial(model)
    wf = tune_wavefront(model)
    assert model.evaluate(wf.schedule, wf.block).time_s < model.evaluate(base).time_s


def test_spatial_tuner_returns_schedule(model):
    sched = tune_spatial(model)
    assert isinstance(sched, SpatialBlockSchedule)
    assert sched.block[0] in DEFAULT_BLOCKS and sched.block[1] in DEFAULT_BLOCKS


def test_elastic_so12_prefers_height_one_or_large_tiles():
    """At space order 12 the model finds (almost) nothing to gain — the tuned
    config degenerates (paper Table I's 256x256 entries)."""
    pm = PerformanceModel(make_spec("elastic", 12), BROADWELL, GEO, SourceLoad())
    result = tune_wavefront(pm)
    s = result.schedule
    assert s.height <= 2 or s.tile[0] * s.tile[1] >= 128 * 128
