"""Halo safety: every stencil access stays inside its field's padded storage.

Every executor (naive, spatially blocked, wavefront) clips each iteration
window to the interior ``[0, N_d)`` and skips empty windows, so the executed
window is a subset of the interior for every tile origin, tile extent,
height and lag.  An access at constant spatial offset ``s`` into a field
padded by ``halo`` therefore touches padded-buffer indices
``[halo + lo + s, halo + hi + s)`` with ``[lo, hi) ⊆ [0, N_d)``, and staying
inside the padded extent ``N_d + 2*halo`` reduces — for every grid, schedule
and engine at once — to two integer margins per (access, dimension):
``halo + s >= 0`` and ``halo - s >= 0`` (:func:`halo_margins`).

The margins are exact, so the analysis has no false positives: a rejected
access really escapes on the operator's own grid, and :func:`prove_bounds`
names where as a concrete
:class:`~repro.verify.certificate.BoundsCounterexample` ``(t, tile, index)``.
Sparse operators need no row: raw coordinates are validated in-domain and
precomputed masks are built over interior points only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...ir.dependencies import Access, read_accesses, written_access
from ..certificate import (
    BoundsCertificate,
    BoundsCounterexample,
    CheckedBound,
    InstanceRef,
)

__all__ = ["halo_margins", "prove_bounds"]


def halo_margins(access: Access) -> List[Tuple[str, int, int, int]]:
    """``(dim, offset, margin_lo, margin_hi)`` per spatial dimension of
    *access*; a negative margin means the access escapes that padded edge."""
    halo = getattr(access.function, "halo", 0)
    return [(dim, off, halo + off, halo - off) for dim, off in access.space_offsets]


def _counterexample(
    op, sweep: int, access: Access, role: str, dim: str, offset: int
) -> BoundsCounterexample:
    """The instance of *op*'s own grid on which the violating access escapes.

    Timestep 0 and the full interior box as the tile.  The escaping point
    sits on the violated side: the last interior point for an upper escape
    (``offset > halo`` — NumPy surfaces this as a clipped view / shape
    mismatch, a native backend as a read past the allocation), the first for
    a lower escape (``offset < -halo`` — NumPy *wraps silently* to the
    opposite end of the padded buffer, which is worse: wrong numerics with
    no exception).
    """
    halo = getattr(access.function, "halo", 0)
    dims = tuple(d.name for d in op.grid.dimensions)
    shape = tuple(int(n) for n in op.grid.shape)
    offs = dict(access.space_offsets)
    upper = offset > 0  # which padded edge the access escapes
    point = tuple(
        (shape[i] - 1 if upper else 0) if d == dim else 0 for i, d in enumerate(dims)
    )
    index = tuple(halo + p + offs.get(d, 0) for d, p in zip(dims, point))
    extent = tuple(n + 2 * halo for n in shape)
    i = dims.index(dim)
    if upper:
        reason = (
            f"margin_hi = halo - offset = {halo - offset} < 0: the window's "
            f"last point {dim}={point[i]} resolves to padded index "
            f"{index[i]} >= extent {extent[i]}"
        )
    else:
        reason = (
            f"margin_lo = halo + offset = {halo + offset} < 0: the window's "
            f"first point {dim}=0 resolves to negative padded index "
            f"{index[i]}"
        )
    return BoundsCounterexample(
        instance=InstanceRef(
            t=0, sweep=sweep, tile=tuple((0, n) for n in shape), point=point, role=role
        ),
        function=access.function.name,
        dim=dim,
        offset=offset,
        halo=halo,
        index=index,
        extent=extent,
        reason=reason,
    )


def prove_bounds(op) -> BoundsCertificate:
    """Check every stencil access of *op* against its field's halo.

    Returns a :class:`~repro.verify.certificate.BoundsCertificate`; when some
    access escapes, the certificate carries the first violation's concrete
    :class:`~repro.verify.certificate.BoundsCounterexample` alongside the
    full table of checked (and violated) margins.  ``Operator.apply`` raises
    :class:`~repro.errors.BoundsProofError` on a refuted certificate.
    """
    halos: Dict[str, int] = {}
    checks: Dict[CheckedBound, None] = {}  # insertion-ordered, deduplicated
    counterexample: Optional[BoundsCounterexample] = None
    for j, sweep in enumerate(op.sweeps):
        for eq in sweep.eqs:
            statement = str(eq)
            accesses = [(written_access(eq), "write")]
            accesses += [(a, "read") for a in read_accesses(eq)]
            for access, role in accesses:
                fname = access.function.name
                halo = halos[fname] = getattr(access.function, "halo", 0)
                for dim, off, lo, hi in halo_margins(access):
                    bound = CheckedBound(j, statement, fname, role, dim, off, halo, lo, hi)
                    checks[bound] = None
                    if not bound.satisfied and counterexample is None:
                        counterexample = _counterexample(op, j, access, role, dim, off)
    return BoundsCertificate(
        operator=op.name,
        dims=tuple(d.name for d in op.grid.dimensions),
        halos=dict(sorted(halos.items())),
        checks=tuple(checks),
        counterexample=counterexample,
    )
