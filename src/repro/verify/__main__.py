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

* proves **schedule legality** of every shape each kind of the shared CLI
  sweep can run as (naive, spatial, wavefront —
  :func:`repro.core.scheduler.schedule_for` at every height cap, so the
  wavefront kind at heights 1–8; trivial for the untiled kinds but recorded
  so the JSON is uniform) — a kind is legal only if all its shapes are —
  recording the certificates or the first refuting error,
* proves **halo safety** once — the verdict holds under every schedule —
  printing the :class:`~repro.verify.certificate.BoundsCertificate` (or the
  concrete ``(t, tile, index)`` counterexample),
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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..analysis.report import render_bounds_certificate
from ..core.scheduler import SCHEDULES, schedule_for
from ..errors import ScheduleLegalityError
from ..propagators.examples import EXAMPLES, build_example
from .certificate import BoundsCertificate, LegalityCertificate
from .linter import LintReport, lint_operator

#: JSON envelope version of ``--json`` output (bump on schema changes)
JSON_SCHEMA_VERSION = 4


def _warning_keys(payload: dict) -> set:
    """The set of warning-severity findings in a ``--json`` payload, keyed
    stably (example, code, sweep, statement) for baseline comparison."""
    keys = set()
    for example, entry in payload["results"].items():
        for d in entry["lint"]["diagnostics"]:
            if d["severity"] == "warning":
                keys.add((example, d["code"], d.get("sweep"), d.get("statement")))
    return keys


@dataclass
class ExampleVerdict:
    """Every analysis' verdict on one example operator."""

    lint: LintReport
    #: per schedule kind: one legality certificate per shape it runs as, or the error
    certificates: Dict[str, Union[List[LegalityCertificate], ScheduleLegalityError]]
    bounds: BoundsCertificate
    analyzer_seconds: float

    @property
    def ok(self) -> bool:
        return (
            self.lint.ok
            and all(isinstance(c, list) for c in self.certificates.values())
            and self.bounds.check()
        )

    def to_dict(self) -> dict:
        return {
            "lint": self.lint.to_dict(),
            "certificates": {
                kind: (
                    {"legal": True, "shapes": [c.to_dict() for c in certs]}
                    if isinstance(certs, list)
                    else {"legal": False, "error": str(certs)}
                )
                for kind, certs in self.certificates.items()
            },
            "bounds": self.bounds.to_dict(),
            "analyzer_seconds": self.analyzer_seconds,
            "ok": self.ok,
        }

    def render(self, example: str) -> str:
        lint = self.lint
        lines = [
            f"{example}: {'OK' if self.ok else 'FAIL'} ({len(lint.errors)} errors, "
            f"{len(lint.warnings)} warnings, "
            f"analyzer {self.analyzer_seconds*1e3:.1f}ms)"
        ]
        lines += [f"  {d.render()}" for d in lint.diagnostics]
        for kind, certs in self.certificates.items():
            verdict = f"ILLEGAL — {certs}"
            if isinstance(certs, list):
                verdict = f"{len(certs)} shape(s), the last {certs[-1].summary()}"
            lines.append(f"  certificate[{kind}]: {verdict}")
        lines.append(render_bounds_certificate(self.bounds, title=f"  bounds [{example}]"))
        if lint.scratch is not None:
            ninstr = ", ".join(f"sweep {j}: {n}" for j, n in sorted(lint.ninstr.items()))
            lines.append(
                f"  scratch: slab-safe={lint.scratch.safe_for_slab}, "
                f"{lint.scratch.total_slots} slots; ninstr {ninstr}"
            )
        return "\n".join(lines) + "\n"


def verify_example(kind: str) -> ExampleVerdict:
    """Run every analysis on one example."""
    prop, dt = build_example(kind)
    op = prop.op
    t0 = time.perf_counter()
    report = lint_operator(op, dt=dt)
    lint_seconds = time.perf_counter() - t0

    certificates = {}
    for sched_kind in SCHEDULES:
        # every height cap: a short run or a fine checkpoint cadence lowers it
        shapes = dict.fromkeys(schedule_for(sched_kind, op.grid.ndim, cap) for cap in range(1, 17))
        try:
            certificates[sched_kind] = [op.certificate_for(s) for s in shapes]
        except ScheduleLegalityError as exc:
            certificates[sched_kind] = exc
    bounds = op.bounds_certificate_for()
    return ExampleVerdict(
        report, certificates, bounds, op.analyzer_seconds + lint_seconds
    )


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

    verdicts = {kind: verify_example(kind) for kind in kinds}
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "tool": "repro.verify",
        "results": {kind: v.to_dict() for kind, v in verdicts.items()},
    }
    failed = not all(v.ok for v in verdicts.values())

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
        for kind, verdict in verdicts.items():
            print(verdict.render(kind))
    for key in new_warnings:
        print(f"new warning vs baseline: {key}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
