"""ASCII table/series renderers for the evaluation harness.

Every benchmark prints its table/figure analogue through these helpers, so
the harness output is uniform and diffable against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = [
    "render_table",
    "render_series",
    "render_speedup_bars",
    "render_bounds_certificate",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width table with a rule under the header."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:.4g}"
    return str(value)


def render_series(
    x: Sequence,
    series: Dict[str, Sequence[float]],
    x_label: str = "x",
    title: str = "",
) -> str:
    """A figure rendered as columns: x plus one column per named series."""
    headers = [x_label] + list(series)
    rows = [[xv] + [series[name][i] for name in series] for i, xv in enumerate(x)]
    return render_table(headers, rows, title=title)


def render_bounds_certificate(cert, title: str = "") -> str:
    """Human-readable summary of a halo certificate
    (:class:`repro.verify.certificate.BoundsCertificate`).

    Shows the check tally, the tightest halo margin, and — when the verdict
    is negative — the concrete ``(t, tile, index)`` counterexample plus every
    violated margin.
    """
    rows = [
        ["operator", cert.operator],
        ["safe", cert.check()],
        ["checks", len(cert.checks)],
        ["min halo margin", cert.min_margin if cert.min_margin is not None else "-"],
        ["halos", " ".join(f"{k}={v}" for k, v in cert.halos.items())],
    ]
    out = render_table(["quantity", "value"], rows, title=title or "Halo certificate")
    if cert.counterexample is not None:
        out += "\ncounterexample: " + cert.counterexample.describe()
    violated = cert.violations()
    if violated:
        out += "\nviolated margins:"
        for c in violated:
            out += (
                f"\n  sweep {c.sweep}: {c.function}[{c.dim}{c.offset:+d}] "
                f"(halo {c.halo}) margin_lo={c.margin_lo} margin_hi={c.margin_hi}"
            )
    return out


def render_speedup_bars(
    labels: Sequence[str],
    speedups: Sequence[float],
    title: str = "",
    width: int = 40,
    ref: float = 1.0,
) -> str:
    """Horizontal bar chart of speedups with a reference line at 1.0x."""
    lines = [title] if title else []
    top = max(list(speedups) + [ref]) * 1.05
    for label, s in zip(labels, speedups):
        bar = "#" * max(int(round(s / top * width)), 1)
        lines.append(f"{label:<22} {bar:<{width}} {s:.2f}x")
    lines.append(f"{'(baseline = 1.0x)':<22}")
    return "\n".join(lines)
