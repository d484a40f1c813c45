"""Metrics and reporting utilities for the evaluation harness."""
from .metrics import eq_flops, flop_count
from .report import (
    render_certificate,
    render_series,
    render_speedup_bars,
    render_table,
)

__all__ = [
    "flop_count",
    "eq_flops",
    "render_table",
    "render_series",
    "render_speedup_bars",
    "render_certificate",
]
