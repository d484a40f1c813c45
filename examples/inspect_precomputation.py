"""Anatomy of the precomputation scheme (§II, Figs. 5-6, Listings 2-5).

Walks through the paper's pipeline step by step on a small 2-D grid so the
data structures are printable:

1. place off-the-grid sources,
2. discover the affected grid points (probe injection, Listing 2),
3. sort them into the affected-point table whose rows are the ids (the
   paper's binary source mask SM and source-ID map SID, Fig. 5, drawn here
   from that table for display only),
4. decompose the wavelets to per-affected-point series (Listing 3),
5. compress the iteration space (nnz mask + Sp_SID, Fig. 6 / Listing 5),
6. print the generated C for the fused and compressed loop nests.

Run:  python examples/inspect_precomputation.py
"""

import numpy as np

from repro.core import build_masks, decompose_source
from repro.core.precompute import affected_points
from repro.dsl import Eq, Function, Grid, SparseTimeFunction, TimeFunction, solve
from repro.ir import Operator


def show_plane(arr, title):
    print(f"\n{title}")
    for row in arr:
        print(" ".join(f"{int(v):3d}" for v in row))


def main():
    grid = Grid(shape=(8, 8), extent=(70.0, 70.0))
    nt = 6
    # three off-the-grid sources; two share support points (Fig. 5's overlap)
    coords = np.array([[12.3, 7.9], [51.0, 52.7], [55.4, 55.2]])
    src = SparseTimeFunction("src", grid, npoint=3, nt=nt, coordinates=coords)
    src.data[:] = np.linspace(1, 2, nt)[:, None] * np.array([1.0, 0.5, -1.0])

    print("off-the-grid source coordinates (grid spacing = 10):")
    print(coords)

    # Listing 2 vs analytic discovery
    by_probe = affected_points(src, "by_injection")
    analytic = affected_points(src, "analytic")
    assert np.array_equal(by_probe, analytic)
    print(f"\naffected grid points (npts = {len(analytic)}), both discovery methods agree:")
    print(analytic.T)

    masks = build_masks(src)
    # the id rule: an affected point's id is its row, and rows ascend in
    # C-order key order, so Listing 5's slot z2 of pencil p is id start[p] + z2
    keys = np.ravel_multi_index(tuple(masks.points.T), grid.shape)
    assert np.all(np.diff(keys) > 0)
    start = np.cumsum(masks.nnz) - masks.nnz
    for p in np.flatnonzero(masks.nnz):
        ids = start[p] + np.arange(masks.nnz[p])
        assert np.array_equal(masks.points[ids, 0], np.full(ids.size, p))
        assert np.array_equal(masks.sp_sid[p, : masks.nnz[p]], masks.points[ids, 1])
    print("\nid rule: an affected point's id is its row in the sorted point table;")
    print("slot z2 of pencil p holds id start[p] + z2 (start = prefix sum of nnz)")

    # Fig. 5b/5c drawn from the point table (no kernel reads a grid-sized map)
    sid = np.full(grid.shape, -1)
    sid[tuple(masks.points.T)] = np.arange(masks.npts)
    show_plane(sid >= 0, "SM — binary source mask (Fig. 5b):")
    show_plane(sid, "SID — unique ids, -1 elsewhere (Fig. 5c):")
    show_plane(masks.nnz.reshape(-1, 1).T, "nnz per x-pencil (Fig. 6):")
    print(f"\npencil occupancy: {masks.pencil_occupancy():.2%} "
          f"(the compressed z2 loop skips the rest)")
    print(f"auxiliary structure footprint: {masks.memory_bytes()} bytes")

    # Listing 3: decomposition
    u = TimeFunction("u", grid, time_order=2, space_order=2)
    m = Function("m", grid, space_order=2)
    m.data = 1.0
    dt_sym = grid.stepping_dim.spacing
    inj = src.inject(u, expr=dt_sym**2 / m)
    dsrc = decompose_source(inj, dt=1.0, masks=masks)
    print(f"\nsrc_dcmp shape (nt x npts): {dsrc.data.shape}")
    print("src_dcmp[t=2] per affected point:")
    print(np.round(dsrc.data[2], 4))
    # conservation: total injected amplitude is preserved per timestep
    for t in range(nt):
        assert np.isclose(dsrc.data[t].sum(), src.data[t].sum(), rtol=1e-5)
    print("amplitude conservation per timestep: OK")

    # Listings 4/5: the generated loop nests
    update = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    op = Operator([update], sparse=[inj], name="demo2d")

    from repro.core import TemporalBlockingPipeline

    pipe = TemporalBlockingPipeline(op, dt=1.0).precompute()
    print()
    print(pipe.report().render())
    code = op.ccode(dt=1.0)
    start = code.index("/* Listing 5")
    print("\n--- the compiled grid-aligned injection (Listings 4/5) ---")
    print(code[start:code.index("\n}\n", start) + 2])


if __name__ == "__main__":
    main()
