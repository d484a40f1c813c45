"""Multi-physics: TTI and elastic propagators under temporal blocking.

Exercises the two multi-sweep kernels of §III — the coupled anisotropic
acoustic (TTI) system and the nine-field velocity–stress elastic system —
whose wavefront angle must be widened by the per-sweep radii (Fig. 8b), and
verifies the temporally blocked runs against the naive schedule.

Run:  python examples/multi_physics.py
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from paper_model import KernelSpec  # noqa: E402
from repro.core import NaiveSchedule, WavefrontSchedule  # noqa: E402
from repro.propagators import (  # noqa: E402
    ElasticPropagator,
    SeismicModel,
    TTIPropagator,
    layered_velocity,
    point_source,
    receiver_line,
)


def run_kind(kind: str, shape=(30, 26, 24), so=4, nt=20):
    vp = layered_velocity(shape, 1.5, 2.8, 3)
    extra = {}
    if kind == "tti":
        extra = dict(epsilon=0.15, delta=0.08, theta=0.4, phi=0.25)
        cls = TTIPropagator
    else:
        extra = dict(rho=2.0, vs=vp / 1.9)
        cls = ElasticPropagator
    model = SeismicModel(shape, (10.0,) * 3, vp, nbl=6, space_order=so, **extra)
    dt = model.critical_dt(kind)
    src = point_source("src", model.grid, nt + 2, [model.domain_center], f0=0.02, dt=dt)
    rec = receiver_line("rec", model.grid, nt + 2, npoint=12, depth=25.0)
    prop = cls(model, space_order=so, source=src, receivers=rec)

    spec = KernelSpec.from_operator(prop.op)
    print(f"\n== {kind}: {len(prop.op.sweeps)} sweeps/timestep, "
          f"wavefront angle {prop.op.wavefront_angle}, "
          f"{spec.flops_per_point_step:.0f} flops/pt, "
          f"{spec.state_bytes_per_point:.0f} B/pt state ==")
    print("per-sweep lags (one tile of height 3):",
          __import__("repro.core", fromlist=["instance_lags"]).instance_lags(
              tuple(s.read_radius() for s in prop.op.sweeps), 3))

    t0 = time.perf_counter()
    rec_ref, _ = prop.forward(nt=nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    t_naive = time.perf_counter() - t0
    state_ref = np.concatenate([f.interior(nt).ravel() for f in prop.fields])

    t0 = time.perf_counter()
    rec_wtb, _ = prop.forward(
        nt=nt, dt=dt, schedule=WavefrontSchedule(tile=(12, 12), height=4)
    )
    t_wtb = time.perf_counter() - t0
    state_wtb = np.concatenate([f.interior(nt).ravel() for f in prop.fields])

    d_state = np.abs(state_wtb - state_ref).max()
    d_rec = np.abs(rec_wtb - rec_ref).max()
    print(f"naive {t_naive:.2f}s, wavefront {t_wtb:.2f}s (interpreter timings)")
    print(f"max state diff {d_state:.3e}, max receiver diff {d_rec:.3e}")
    scale = max(np.abs(state_ref).max(), 1e-30)
    assert d_state <= 1e-5 * scale, f"{kind}: schedules disagree"
    return d_state


def main():
    for kind in ("tti", "elastic"):
        run_kind(kind)
    print("\nboth multi-sweep kernels agree across schedules.")


if __name__ == "__main__":
    main()
