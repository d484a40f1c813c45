"""Seismic acquisition: model one shot over a layered earth model.

The motivating workload of the paper's introduction: a Ricker point source
injected into a layered subsurface, a surface line of receivers recording
the returning wavefield — i.e. one shot of a full-waveform-inversion /
reverse-time-migration survey.  The shot is modelled twice (naive and
wave-front temporally blocked), the shot records are verified identical, and
a small ASCII shot gather is printed.

Run:  python examples/seismic_acquisition.py
"""

import numpy as np

from repro.core import NaiveSchedule, WavefrontSchedule
from repro.propagators import (
    AcousticPropagator,
    SeismicModel,
    layered_velocity,
    point_source,
    receiver_line,
)


def ascii_gather(data: np.ndarray, rows: int = 18, cols: int = 64) -> str:
    """Render a shot record (nt x nrec) as an ASCII amplitude map."""
    nt, nrec = data.shape
    t_idx = np.linspace(0, nt - 1, rows).astype(int)
    r_idx = np.linspace(0, nrec - 1, min(cols, nrec)).astype(int)
    sub = data[np.ix_(t_idx, r_idx)]
    peak = np.abs(sub).max() or 1.0
    glyphs = " .:-=+*#%@"
    lines = []
    for r, row in zip(t_idx, sub):
        cells = "".join(glyphs[min(int(abs(v) / peak * (len(glyphs) - 1) * 3), len(glyphs) - 1)] for v in row)
        lines.append(f"t={r:4d} |{cells}|")
    return "\n".join(lines)


def main():
    shape = (60, 44, 40)
    spacing = (10.0, 10.0, 10.0)
    vp = layered_velocity(shape, v_top=1.5, v_bottom=3.2, nlayers=4)
    model = SeismicModel(shape, spacing, vp, nbl=8, space_order=8)
    print(model)

    dt = model.critical_dt("acoustic")
    tn = 160.0  # ms
    nt = model.nt_for(tn, dt)
    print(f"dt = {dt:.3f} ms (CFL), {nt} timesteps for {tn:.0f} ms")

    centre = model.domain_center
    src_coords = [(centre[0] + 3.3, centre[1] - 2.1, 24.7)]  # near-surface, off-grid
    src = point_source("src", model.grid, nt + 2, src_coords, f0=0.020, dt=dt)
    rec = receiver_line("rec", model.grid, nt + 2, npoint=48, depth=18.0)

    prop = AcousticPropagator(model, space_order=8, source=src, receivers=rec)

    shot_naive, _ = prop.forward(nt=nt, dt=dt, schedule=NaiveSchedule(), sparse_mode="offgrid")
    shot_wtb, _ = prop.forward(
        nt=nt, dt=dt, schedule=WavefrontSchedule(tile=(20, 20), height=5)
    )

    diff = np.abs(shot_wtb - shot_naive).max()
    print(f"max |WTB - naive| over the shot record: {diff:.3e}")
    assert diff < 1e-5 * max(np.abs(shot_naive).max(), 1e-30)

    print("\nshot gather (receiver offset -> right, time -> down):")
    print(ascii_gather(shot_wtb))

    detected = np.abs(shot_wtb) > 0.2 * np.abs(shot_wtb).max()
    arrivals = np.where(detected.any(axis=0), np.argmax(detected, axis=0), -1)
    mid = len(arrivals) // 2
    # farthest receiver with a detected arrival
    hit = np.flatnonzero(arrivals >= 0)
    near, far = mid, hit[np.argmax(np.abs(hit - mid))]
    print(f"\nfirst-arrival sample at near offset: {arrivals[near]}, "
          f"farthest detected offset: {arrivals[far]}")
    assert arrivals[far] >= arrivals[near], "moveout: far receivers record later"


if __name__ == "__main__":
    main()
