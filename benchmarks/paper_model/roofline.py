"""Cache-aware roofline model — Fig. 11.

Implements the cumulative-traffic cache-aware roofline (Ilic et al., the
formulation of Intel Advisor's integrated roofline the paper uses): for each
memory level, the kernel has an arithmetic intensity ``AI_l = flops /
bytes_l`` and the level imposes the ceiling ``BW_l * AI_l``; achieved
performance is plotted against the ceilings.  The paper's Fig. 11 shows the
spatially blocked acoustic kernels pinned under the L3/DRAM ceilings and the
temporally blocked ones breaking through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.scheduler import Schedule

from .perfmodel import PerformanceModel

__all__ = ["RooflinePoint", "roofline_points", "render_roofline"]

LEVELS = ("L1", "L2", "L3", "DRAM")


@dataclass
class RooflinePoint:
    """One kernel/schedule point in the cache-aware roofline plane."""

    label: str
    gflops: float
    ai: Dict[str, float]  # arithmetic intensity per level (flops/byte)
    bound: str
    ceilings: Dict[str, float]  # BW_l * AI_l per level, + "peak"

    def limiting_ceiling(self) -> Tuple[str, float]:
        name = min(self.ceilings, key=self.ceilings.get)
        return name, self.ceilings[name]


def roofline_points(
    model: PerformanceModel,
    schedules: Dict[str, Tuple[Schedule, Tuple[int, ...]]],
) -> List[RooflinePoint]:
    """Evaluate each named ``(schedule, block)`` into a roofline point."""
    m = model.machine
    out: List[RooflinePoint] = []
    bw = {"L1": m.l1.bandwidth_gbs, "L2": m.l2.bandwidth_gbs,
          "L3": m.l3.bandwidth_gbs, "DRAM": m.dram_bandwidth_gbs}
    for label, (sched, block) in schedules.items():
        res = model.evaluate(sched, block)
        flops = model.kernel.flops_per_point_step
        ai = {
            lvl: (flops / res.traffic_bytes_ppt[lvl] if res.traffic_bytes_ppt[lvl] > 0 else float("inf"))
            for lvl in LEVELS
        }
        ceilings = {lvl: bw[lvl] * ai[lvl] for lvl in LEVELS}
        ceilings["peak"] = m.sustained_gflops
        out.append(
            RooflinePoint(
                label=label,
                gflops=res.gflops,
                ai=ai,
                bound=res.bound,
                ceilings=ceilings,
            )
        )
    return out


def render_roofline(points: Sequence[RooflinePoint], machine_name: str = "") -> str:
    """ASCII rendering of the cache-aware roofline table (Fig. 11 analogue)."""
    lines = [f"cache-aware roofline{' — ' + machine_name if machine_name else ''}"]
    header = f"{'kernel/schedule':<28} {'GFLOP/s':>8} {'bound':>8} " + " ".join(
        f"{'AI@' + l:>9}" for l in LEVELS
    ) + f" {'ceiling':>16}"
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        name, ceil = p.limiting_ceiling()
        lines.append(
            f"{p.label:<28} {p.gflops:>8.1f} {p.bound:>8} "
            + " ".join(f"{p.ai[l]:>9.2f}" for l in LEVELS)
            + f" {name + ' ' + format(ceil, '.0f'):>16}"
        )
    return "\n".join(lines)
