"""The paper's contribution: precomputation of sparse off-the-grid operators
and wave-front temporal-blocking scheduling."""
from .aligned import AlignedInjection, AlignedReceiver
from .decompose import (
    DecomposedReceiver,
    DecomposedSource,
    decompose_receiver,
    decompose_source,
)
from .masks import SourceMasks, build_masks
from .pipeline import PipelineReport, TemporalBlockingPipeline
from .precompute import (
    affected_points,
)
from .scheduler import (
    NaiveSchedule,
    Schedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    instance_lags,
    tile_origins,
    time_tiles,
)

__all__ = [
    "affected_points",
    "SourceMasks",
    "build_masks",
    "TemporalBlockingPipeline",
    "PipelineReport",
    "DecomposedSource",
    "DecomposedReceiver",
    "decompose_source",
    "decompose_receiver",
    "AlignedInjection",
    "AlignedReceiver",
    "Schedule",
    "NaiveSchedule",
    "SpatialBlockSchedule",
    "WavefrontSchedule",
    "time_tiles",
    "tile_origins",
    "instance_lags",
]
