"""Reverse-time migration (RTM): the paper's motivating application (§I-C).

A miniature RTM experiment built entirely on the public API:

1. **Forward model** a shot over a two-layer "true" earth, recording a
   surface shot gather (the observed data),
2. forward model over a smooth *background* model (no reflector),
3. **back-propagate** the data residual by injecting the time-reversed
   receiver traces as sources — receivers become off-the-grid *sources*,
   exactly the duality the paper's scheme handles,
4. form the zero-lag cross-correlation image, which should light up near the
   reflector depth.

Both propagations run under wave-front temporal blocking.

Run:  python examples/rtm_imaging.py
"""

import numpy as np

from repro.core import WavefrontSchedule
from repro.dsl import SparseTimeFunction
from repro.propagators import (
    AcousticPropagator,
    SeismicModel,
    point_source,
    receiver_line,
)

SHAPE = (40, 20, 28)
SPACING = (10.0, 10.0, 10.0)
REFLECTOR_Z = 12  # grid index of the velocity jump (120 m)
WTB = WavefrontSchedule(tile=(16, 16), height=4)


def make_model(two_layer: bool) -> SeismicModel:
    vp = np.full(SHAPE, 1.8, dtype=np.float32)
    if two_layer:
        vp[..., REFLECTOR_Z:] = 2.6
    return SeismicModel(SHAPE, SPACING, vp, nbl=8, space_order=8)


def forward_shot(model, nt, dt, save_every=1):
    centre = model.domain_center
    src = point_source("src", model.grid, nt + 2,
                       [(centre[0] + 2.7, centre[1] - 1.3, 45.3)], f0=0.028, dt=dt)
    rec = receiver_line("rec", model.grid, nt + 2, npoint=40, depth=15.0)
    prop = AcousticPropagator(model, space_order=8, source=src, receivers=rec)
    # snapshot the source wavefield for the imaging condition
    snaps = []
    data = None
    # run in chunks so we can snapshot (time tiles inside each chunk)
    prop.zero_fields()
    rec.data[...] = 0.0
    chunk = 8
    t = 0
    while t < nt:
        t1 = min(t + chunk, nt)
        prop.op.apply(time_M=t1, time_m=t, dt=dt, schedule=WTB)
        snaps.append((t1, prop.u.interior(t1).copy()))
        t = t1
    return prop, rec.data.copy(), snaps


def backpropagate(model, residual, nt, dt):
    """Inject time-reversed receiver data as off-the-grid sources."""
    grid = model.grid
    rec_src = SparseTimeFunction(
        "recsrc", grid, npoint=residual.shape[1], nt=nt + 2,
        coordinates=receiver_line("tmp", grid, 2, npoint=residual.shape[1], depth=15.0).coordinates,
    )
    rec_src.data[:nt] = residual[:nt][::-1]  # time reversal
    prop = AcousticPropagator(model, space_order=8, source=rec_src)
    dt_sym = grid.stepping_dim.spacing
    # rebuild operator with the adjoint source
    prop.source = rec_src
    prop._op = None
    snaps = {}
    prop.zero_fields()
    chunk = 8
    t = 0
    while t < nt:
        t1 = min(t + chunk, nt)
        prop.op.apply(time_M=t1, time_m=t, dt=dt, schedule=WTB)
        snaps[t1] = prop.u.interior(t1).copy()
        t = t1
    return snaps


def main():
    true_model = make_model(two_layer=True)
    smooth_model = make_model(two_layer=False)
    dt = true_model.critical_dt("acoustic")
    nt = 128
    print(f"modelling {nt} steps, dt={dt:.3f} ms, grid {true_model.grid.shape}")

    _, observed, _ = forward_shot(true_model, nt, dt)
    _, predicted, fwd_snaps = forward_shot(smooth_model, nt, dt)
    residual = observed - predicted
    print(f"residual energy: {float(np.square(residual).sum()):.3e} "
          f"(observed {float(np.square(observed).sum()):.3e})")
    assert np.abs(residual).max() > 0.02 * np.abs(observed).max(), "reflector must reflect"

    back_snaps = backpropagate(smooth_model, residual, nt, dt)

    # zero-lag imaging condition at matching snapshot times (back-prop time
    # nt - t corresponds to forward time t)
    image = np.zeros(true_model.grid.shape, dtype=np.float64)
    for t1, fwd in fwd_snaps:
        bt = nt - t1 + 8
        if bt in back_snaps:
            image += fwd.astype(np.float64) * back_snaps[bt]

    nbl = true_model.nbl
    interior = image[nbl:-nbl, nbl:-nbl, nbl:-nbl]
    depth_profile = np.abs(interior).sum(axis=(0, 1))
    # standard RTM post-processing: mute the near-surface source/receiver
    # crosstalk artifact before interpreting the image
    mute = 6
    peak_z = mute + int(np.argmax(depth_profile[mute:]))
    print("depth profile of |image| (normalised):")
    prof = depth_profile / depth_profile.max()
    for z in range(0, SHAPE[2], 2):
        bar = "#" * int(40 * prof[z])
        marker = " <-- true reflector" if z == REFLECTOR_Z else ""
        print(f"z={z:3d} |{bar}{marker}")
    print(f"\nimage peak at z={peak_z}, true reflector at z={REFLECTOR_Z}")
    assert abs(peak_z - REFLECTOR_Z) <= 8, "image energy should focus near the reflector"


if __name__ == "__main__":
    main()
