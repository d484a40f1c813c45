"""Metrics and reporting utilities for the evaluation harness."""
from .metrics import (
    access_count,
    arithmetic_intensity,
    eq_flops,
    flop_count,
    gpoints_per_s,
)
from .report import (
    render_certificate,
    render_series,
    render_speedup_bars,
    render_table,
)

__all__ = [
    "flop_count",
    "eq_flops",
    "access_count",
    "gpoints_per_s",
    "arithmetic_intensity",
    "render_table",
    "render_series",
    "render_speedup_bars",
    "render_certificate",
]
