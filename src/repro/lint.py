"""Command-line front-end of the kernel-IR linter and schedule prover.

Usage::

    python -m repro.lint acoustic          # lint one example operator
    python -m repro.lint --all             # acoustic + tti + elastic
    python -m repro.lint --all --json      # machine-readable output (CI)

Each example is the corresponding paper propagator on a small grid with one
off-the-grid Ricker source and a receiver line — the same operators the
benchmarks scale up.  The exit code is 1 iff any linted operator has an
error-severity finding (warnings alone exit 0), so CI can gate on it.

Besides linting, every example is run through the schedule-legality prover
(:func:`repro.verify.prove_schedule`) under the same schedule set the profile
CLI sweeps (``SCHEDULES`` — naive, spatial, wavefront; the prover result is
trivial for the untiled kinds but recorded so the JSON is uniform) and the
certificate summaries are printed — a certificate failure is a finding too.

The ``--json`` output is schema-stable: a versioned envelope with sorted
keys, suitable for committed baselines (see ``python -m repro.verify``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .core.scheduler import SCHEDULES, make_schedule
from .errors import ScheduleLegalityError
from .verify import lint_operator, prove_schedule

EXAMPLES = ("acoustic", "tti", "elastic")

#: JSON envelope version of ``--json`` output (bump on schema changes)
JSON_SCHEMA_VERSION = 1


def build_example(kind: str, nt: int = 16, so: int = 4):
    """A small (12^3, nbl=2, space order *so*) propagator with source +
    receivers."""
    import numpy as np

    from .propagators import (
        AcousticPropagator,
        ElasticPropagator,
        SeismicModel,
        TTIPropagator,
        layered_velocity,
        point_source,
        receiver_line,
    )

    shape, nbl = (12, 12, 12), 2
    vp = layered_velocity(shape, 1.5, 3.0, 3)
    kwargs = {}
    if kind == "tti":
        kwargs = dict(epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    elif kind == "elastic":
        kwargs = dict(rho=1.8, vs=vp / 1.8)
    elif kind != "acoustic":
        raise ValueError(f"unknown example {kind!r}; expected one of {EXAMPLES}")
    spacing = 20.0 if kind == "tti" else 10.0
    model = SeismicModel(shape, (spacing,) * 3, vp, nbl=nbl, space_order=so, **kwargs)
    cls = {
        "acoustic": AcousticPropagator,
        "tti": TTIPropagator,
        "elastic": ElasticPropagator,
    }[kind]
    dt = model.critical_dt(kind)
    center = model.domain_center
    src = point_source("src", model.grid, nt, np.asarray(center), f0=0.015, dt=dt)
    rec = receiver_line("rec", model.grid, nt, npoint=4, depth=center[-1])
    prop = cls(model, space_order=so, source=src, receivers=rec)
    return prop, dt


def lint_example(kind: str, dt: float = None):
    prop, crit_dt = build_example(kind)
    return lint_operator(prop.op, dt=dt if dt is not None else crit_dt), prop, crit_dt


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Statically verify the paper's example operators.",
    )
    parser.add_argument(
        "example",
        nargs="?",
        choices=EXAMPLES,
        help="which example operator to lint (omit with --all)",
    )
    parser.add_argument("--all", action="store_true", help="lint every example")
    parser.add_argument("--json", action="store_true", help="JSON output (CI)")
    parser.add_argument(
        "--no-prove", action="store_true", help="skip the schedule-legality prover"
    )
    args = parser.parse_args(argv)
    if not args.all and args.example is None:
        parser.error("give an example name or --all")
    kinds = EXAMPLES if args.all else (args.example,)

    results = []
    failed = False
    for kind in kinds:
        report, prop, dt = lint_example(kind)
        entry = report.to_dict()
        if not report.ok:
            failed = True
        if not args.no_prove:
            entry["certificates"] = {}
            for sched_kind in SCHEDULES:
                schedule = make_schedule(sched_kind)
                try:
                    cert = prove_schedule(prop.op, schedule)
                    entry["certificates"][sched_kind] = cert.to_dict()
                    if not cert.check():
                        failed = True
                except ScheduleLegalityError as exc:
                    failed = True
                    entry["certificates"][sched_kind] = {
                        "legal": False,
                        "error": str(exc),
                    }
            # keep the wavefront certificate at the legacy key too
            entry["certificate"] = entry["certificates"]["wavefront"]
        results.append((kind, report, entry))

    if args.json:
        envelope = {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro.lint",
            "schedules": list(SCHEDULES),
            "results": {k: e for k, _, e in results},
        }
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for kind, report, entry in results:
            print(report.render())
            for sched_kind, cert in entry.get("certificates", {}).items():
                if cert.get("legal"):
                    skew = cert["tile_skew"]
                    dist = cert["max_distance"]
                    print(
                        f"  certificate[{sched_kind}]: legal "
                        f"(angle={cert['wavefront_angle']}, skew={skew}, "
                        f"edges={len(cert['dependences'])}, "
                        f"max_distance={dist})"
                    )
                else:
                    print(
                        f"  certificate[{sched_kind}]: ILLEGAL — "
                        f"{cert.get('error', 'violated')}"
                    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
