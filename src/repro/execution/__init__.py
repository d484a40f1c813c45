"""The executor: run bound operators under the supported schedules."""
from .evalbox import (
    ENGINES,
    BoundEq,
    BoundSweep,
    box_is_empty,
    box_view,
    clip_box,
    full_box,
)
from .executors import ExecutionPlan, run_schedule
from .sparse import RawInjection, RawInterpolation, evaluate_point_scale

__all__ = [
    "BoundEq",
    "BoundSweep",
    "ENGINES",
    "box_view",
    "full_box",
    "clip_box",
    "box_is_empty",
    "ExecutionPlan",
    "run_schedule",
    "RawInjection",
    "RawInterpolation",
    "evaluate_point_scale",
]
