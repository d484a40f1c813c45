"""Command-line front-end of the static verification subsystem.

Usage::

    python -m repro.verify acoustic            # one example operator
    python -m repro.verify --all               # acoustic + tti + elastic
    python -m repro.verify --all --json        # machine-readable output (CI)
    python -m repro.verify --all --json --baseline verify_baseline.json

Each example is the corresponding paper propagator on a small grid with one
off-the-grid Ricker source and a receiver line
(:func:`repro.propagators.examples.build_example`) — the same operators the
benchmarks scale up.  Per example, the tool

* proves **schedule legality** for every schedule of the shared CLI sweep
  (naive, spatial, wavefront — the same set ``repro.profile`` times; the
  result is trivial for the untiled kinds but recorded so the JSON is
  uniform), recording the
  :class:`~repro.verify.certificate.LegalityCertificate` or the error,
* proves **parametric halo safety** for the same schedules plus the
  schedule-free "any" family, printing the
  :class:`~repro.verify.certificate.BoundsCertificate` (or the concrete
  ``(schedule, t, tile, index)`` counterexample),
* runs the kernel-IR linter (lattice-backed W201, whole-program scratch
  liveness E301/W302) and reports ``ninstr``, the fused-kernel instruction
  count per sweep, and
* records the analyzer wall-time.

Exit code 1 iff any certificate is refuted or any error-severity lint
finding exists; with ``--baseline`` additionally iff a *warning*-severity
finding appears that the committed baseline does not contain (new warnings
fail CI; fixed warnings do not).

The ``--json`` output is a versioned, sorted-keys envelope, stable enough to
commit as the baseline artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from ..core.scheduler import SCHEDULES, make_schedule
from ..errors import ScheduleLegalityError
from ..propagators.examples import EXAMPLES, build_example
from .linter import lint_operator

#: JSON envelope version of ``--json`` output (bump on schema changes)
JSON_SCHEMA_VERSION = 2


def _warning_keys(payload: dict) -> set:
    """The set of warning-severity findings in a ``--json`` payload, keyed
    stably (example, code, sweep, statement) for baseline comparison."""
    keys = set()
    for example, entry in payload["results"].items():
        for d in entry["lint"]["diagnostics"]:
            if d["severity"] == "warning":
                keys.add((example, d["code"], d.get("sweep"), d.get("statement")))
    return keys


def verify_example(kind: str) -> dict:
    """Run every analysis on one example; returns the JSON entry."""
    prop, dt = build_example(kind)
    op = prop.op
    t0 = time.perf_counter()
    report = lint_operator(op, dt=dt)
    lint_seconds = time.perf_counter() - t0

    certificates = {}
    bounds = {"any": op.bounds_certificate_for(None)}
    for sched_kind in SCHEDULES:
        schedule = make_schedule(sched_kind)
        try:
            certificates[sched_kind] = op.certificate_for(schedule).to_dict()
        except ScheduleLegalityError as exc:
            certificates[sched_kind] = {"legal": False, "error": str(exc)}
        bounds[sched_kind] = op.bounds_certificate_for(schedule)

    return {
        "lint": report.to_dict(),
        "certificates": certificates,
        "bounds": {k: c.to_dict() for k, c in bounds.items()},
        "analyzer_seconds": op.analyzer_seconds + lint_seconds,
        "ok": (
            report.ok
            and all(c["legal"] for c in certificates.values())
            and all(c.check() for c in bounds.values())
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Statically verify the paper's example operators.",
    )
    parser.add_argument(
        "example",
        nargs="?",
        choices=EXAMPLES,
        help="which example operator to verify (omit with --all)",
    )
    parser.add_argument("--all", action="store_true", help="verify every example")
    parser.add_argument("--json", action="store_true", help="JSON output (CI)")
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed baseline JSON; new warning-severity findings fail",
    )
    args = parser.parse_args(argv)
    if not args.all and args.example is None:
        parser.error("give an example name or --all")
    kinds = EXAMPLES if args.all else (args.example,)

    payload = {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro.verify",
        "results": {},
    }
    failed = False
    for kind in kinds:
        entry = verify_example(kind)
        payload["results"][kind] = entry
        if not entry["ok"]:
            failed = True

    new_warnings: List[tuple] = []
    if args.baseline:
        base_path = Path(args.baseline)
        if base_path.exists():
            baseline = json.loads(base_path.read_text())
            new_warnings = sorted(
                _warning_keys(payload) - _warning_keys(baseline)
            )
            if new_warnings:
                failed = True
        else:
            print(
                f"warning: baseline {args.baseline!r} not found; "
                "skipping warning regression check",
                file=sys.stderr,
            )

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        from ..analysis.report import render_bounds_certificate
        from .certificate import BoundsCertificate, LegalityCertificate

        for kind, entry in payload["results"].items():
            lint = entry["lint"]
            status = "OK" if entry["ok"] else "FAIL"
            print(
                f"{kind}: {status} ({lint['errors']} errors, "
                f"{lint['warnings']} warnings, "
                f"analyzer {entry['analyzer_seconds']*1e3:.1f}ms)"
            )
            for d in lint["diagnostics"]:
                where = f"sweep {d['sweep']}: " if d["sweep"] is not None else ""
                print(f"  {d['code']} [{d['severity']}] {where}{d['message']}")
            for sched_kind, cert in entry.get("certificates", {}).items():
                verdict = (
                    f"ILLEGAL — {cert['error']}"
                    if "error" in cert
                    else LegalityCertificate.from_dict(cert).summary()
                )
                print(f"  certificate[{sched_kind}]: {verdict}")
            cert = BoundsCertificate.from_dict(entry["bounds"]["any"])
            print(render_bounds_certificate(cert, title=f"  bounds [{kind}, any]"))
            scratch = lint.get("scratch")
            if scratch is not None:
                ninstr = ", ".join(f"sweep {j}: {n}" for j, n in lint["ninstr"].items())
                print(
                    f"  scratch: slab-safe={scratch['safe_for_slab']}, "
                    f"{scratch['total_slots']} slots; ninstr {ninstr}"
                )
            print()
    for key in new_warnings:
        print(f"new warning vs baseline: {key}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
