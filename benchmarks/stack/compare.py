"""Compare two result sets of the stack benchmark: ``compare.py A.json B.json``.

A and B are the set documents ``run.py`` writes (no ``--workload``).  One row
is printed per (workload, end-to-end metric): both medians, the ratio B/A
(base: A), the regression bound from ``BENCHMARK.json``, and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — within the bound, but the run-to-run spread (distance
  between first and third quartile over the median, known when a set holds
  at least four runs per workload) is wider than the bound, and it is not
  the case that every run of B reads better than every run of A;
* ``ok`` — otherwise.

``failed_share`` has bound 0: any increase is ``worse``.  Exits 1 if any row
is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None below 4 runs,
    or when the median is 0: a layer the workload never enters)."""
    median = statistics.median(values)
    if len(values) < 4 or median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    lower = better == "lower"
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    if worse_by > bound:
        return "worse"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        b_wins_all = max(b) < min(a) if lower else min(b) > max(a)
        if not b_wins_all:
            return "unresolved"
    return "ok"


def compare(doc_a: dict, doc_b: dict, catalog: dict) -> List[dict]:
    rows = []
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        for spec in catalog["end_to_end"]:
            a = wa["end_to_end"][spec["name"]]["values"]
            b = wb["end_to_end"][spec["name"]]["values"]
            rows.append({
                "workload": name, "metric": spec["name"], "unit": spec["unit"],
                "a": statistics.median(a), "b": statistics.median(b),
                "bound": spec["bound"], "verdict": verdict(a, b, spec["better"], spec["bound"]),
            })
        fa = wa["ops_failed"] / wa["ops_attempted"]
        fb = wb["ops_failed"] / wb["ops_attempted"]
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "ratio",
            "a": fa, "b": fb, "bound": 0.0, "verdict": "worse" if fb > fa else "ok",
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':14s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'bound':>6s}  verdict"]
    for r in rows:
        ratio = f"{r['b'] / r['a']:.3f}" if r["a"] else "-"
        lines.append(
            f"{r['workload']:18s} {r['metric']:14s} {r['a']:12.6g} {r['b']:12.6g} "
            f"{ratio:>8s} {r['bound']:6.2f}  {r['verdict']}  [{r['unit']}]"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(doc_a, doc_b, json.loads(BENCHMARK_JSON.read_text()))
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
