"""Runtime telemetry: phase-level tracing, counters and trace export.

Everything is opt-in and threaded through the execution stack via a
``telemetry=`` keyword, mirroring the runtime resilience layer::

    from repro.telemetry import Telemetry, render_phase_table, write_chrome_trace

    tel = Telemetry()                       # or Telemetry(detail="trace")
    op.apply(time_M=nt, dt=dt, schedule=WavefrontSchedule(), telemetry=tel)
    print(render_phase_table(tel))
    write_chrome_trace(tel, "trace.json")   # open in https://ui.perfetto.dev

With no telemetry attached the executors pay a single ``is not None`` branch
per loop and record nothing.  See ``python -m repro.profile --help`` for the
command-line front-end.

The batch service's side lives here too: :mod:`~repro.telemetry.merge`
stitches per-attempt span trees into one batch trace.
"""

from .counters import Counters, derived_metrics
from .export import (
    render_phase_table,
    telemetry_to_json,
    to_chrome_trace,
    write_chrome_trace,
)
from .merge import (
    merge_batch_trace,
    telemetry_payload,
    validate_chrome_trace,
    validate_payload,
    write_batch_trace,
)
from .spans import DETAIL_LEVELS, PHASES, Span, Telemetry

__all__ = [
    "Telemetry",
    "Span",
    "PHASES",
    "DETAIL_LEVELS",
    "Counters",
    "derived_metrics",
    "telemetry_to_json",
    "render_phase_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "telemetry_payload",
    "validate_payload",
    "merge_batch_trace",
    "write_batch_trace",
    "validate_chrome_trace",
]
