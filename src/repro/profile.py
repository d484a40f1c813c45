"""Command-line profiler: run an example under telemetry, print the phase table.

Usage::

    python -m repro.profile quickstart                     # wavefront, phase table
    python -m repro.profile acoustic --schedule naive      # baseline breakdown
    python -m repro.profile tti --trace trace.json         # Chrome/Perfetto trace
    python -m repro.profile elastic --json                 # machine-readable (CI)

Each example is the corresponding paper propagator on the same small grid
``repro.verify`` certifies (:func:`repro.propagators.examples.build_example`);
``quickstart`` is an alias for the acoustic example so the README one-liner
works verbatim.  The run is instrumented with a :class:`~repro.telemetry.Telemetry` buffer: the
default output is the per-phase wall-time table with the achieved-throughput
lines; ``--trace`` additionally records one span per sweep instance and
writes a Chrome ``trace_event`` file — open it at https://ui.perfetto.dev
(or ``chrome://tracing``) to see the nested span timeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .core.scheduler import SCHEDULES
from .execution.evalbox import ENGINES
from .propagators.examples import EXAMPLES as _EXAMPLES, build_example
from .telemetry import Telemetry, telemetry_to_json, render_phase_table, write_chrome_trace

EXAMPLES = ("quickstart",) + _EXAMPLES


def profile_example(
    kind: str,
    schedule: str = "wavefront",
    engine: str = None,
    nt: int = 16,
    detail: str = "phase",
) -> Telemetry:
    """Run one example propagator under telemetry and return the buffer."""
    prop, dt = build_example("acoustic" if kind == "quickstart" else kind, nt=nt)
    telemetry = Telemetry(detail=detail)
    prop.forward(
        nt=nt, dt=dt, schedule=schedule,
        engine=engine, telemetry=telemetry,
    )
    return telemetry


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Profile an example propagator with phase-level telemetry.",
    )
    parser.add_argument("example", choices=EXAMPLES, help="which example to profile")
    parser.add_argument(
        "--schedule", choices=SCHEDULES, default="wavefront",
        help="schedule kind, run as its one shape (default: wavefront)",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="force a sweep engine (default: the c -> fused -> interp ladder)",
    )
    parser.add_argument(
        "--nt", type=int, default=16, help="number of timesteps (default: 16)"
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome/Perfetto trace_event file (records per-instance spans)",
    )
    parser.add_argument("--json", action="store_true", help="JSON summary on stdout")
    args = parser.parse_args(argv)

    telemetry = profile_example(
        args.example,
        schedule=args.schedule,
        engine=args.engine,
        nt=args.nt,
        detail="trace" if args.trace else "phase",
    )

    if args.json:
        print(json.dumps(telemetry_to_json(telemetry, spans=False), indent=2))
    else:
        plan = telemetry.meta["plan"]
        shape = " ".join(f"{k}={v}" for k, v in plan["schedule"].items() if k != "kind")
        title = (f"{args.example} ({args.schedule}, nt={args.nt}) — ran "
                 f"{shape or args.schedule} ({plan['origin']})")
        print(render_phase_table(telemetry, title=title))
    if args.trace:
        write_chrome_trace(telemetry, args.trace)
        if not args.json:
            print(
                f"trace written to {args.trace} "
                "(open at https://ui.perfetto.dev or chrome://tracing)"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
