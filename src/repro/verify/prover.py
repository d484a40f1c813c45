"""The schedule-legality prover.

Given (operator, schedule), :func:`prove_schedule` either returns a
:class:`~repro.verify.certificate.LegalityCertificate` — one checked
inequality per dependence edge — or raises
:class:`~repro.errors.ScheduleLegalityError` carrying a concrete
:class:`~repro.verify.certificate.Counterexample` that names two conflicting
statement instances ``(t, tile, point)``.

The wavefront legality condition, per dependence edge
---------------------------------------------------

Order the sweep instances of a time tile ``(t0,s0), (t0,s1), ...,
(t0+1,s0), ...`` and give each the cumulative lag of
:func:`repro.core.scheduler.instance_lags`; each instance executes on the
tile window shifted left by its lag, space tiles ascending.  For an edge with
time distance ``k`` (< tile height; larger ``k`` crosses a time-tile barrier)
between sweeps ``j_src -> j_snk``, the two instances sit ``g = k*nsweeps +
(j_snk - j_src)`` positions apart, so their lag gap is ``lags[j_src + g] -
lags[j_src]`` — the shift :func:`repro.core.scheduler.lower` puts between
their boxes, the same for every congruent pair — and the edge is legal iff
that gap covers the edge's spatial reach along every skewed dimension:

* **flow** (write then read at offsets ``d``): by the time the reader's
  window ``[X0-L_r, X1-L_r)`` runs, the writer has covered everything below
  ``X1 - L_w`` — all reads resolve iff ``L_r - L_w >= max(d, 0)`` per skewed
  dim (reads at negative offsets look into even older tiles).
* **anti** (read then slot-reusing write one buffer cycle later): the writer
  must not overwrite a point a *later* tile's reader still needs:
  ``L_w - L_r >= max(-d, 0)`` per skewed dim.
* **output** (slot reuse between writes): pointwise, gap >= 0, always holds.

Off-the-grid sparse operators have *non-affine* footprints — the support
corners of a source are not a function of the iteration point — so no finite
lag gap covers them: the paper's Fig. 4b illegality.  The prover rejects them
statically under :class:`~repro.core.scheduler.WavefrontSchedule` and builds
the counterexample from the actual source support and the boxes of
:func:`repro.core.scheduler.lower` — the step list the executor walks: a
source whose support straddles two boxes of one sweep instance is injected
from the earlier box, then the later box's stencil assignment to the same
``(t, point)`` destroys the contribution (a lost update).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.scheduler import (
    NaiveSchedule,
    Schedule,
    WavefrontSchedule,
    instance_lags,
    lower,
)
from ..dsl.functions import Injection
from ..dsl.interpolation import support_points
from ..dsl.symbols import Indexed
from ..errors import ScheduleLegalityError
from ..ir.dependencies import wavefront_angle
from .certificate import (
    Box,
    CheckedDependence,
    Counterexample,
    InstanceRef,
    LegalityCertificate,
)
from .dependence import Dependence, compute_dependences, statements_for

__all__ = ["prove_schedule", "resolve_sparse_mode", "offgrid_counterexample"]


def resolve_sparse_mode(sparse_mode: str, schedule: Schedule) -> str:
    """The operator's sparse-mode policy (``Operator._bind`` resolves through
    here): 'auto' precomputes exactly when the schedule tiles time."""
    if sparse_mode == "auto":
        return "precomputed" if isinstance(schedule, WavefrontSchedule) else "offgrid"
    if sparse_mode not in ("offgrid", "precomputed"):
        raise ValueError(f"unknown sparse mode {sparse_mode!r}")
    return sparse_mode


def _first_point(grid) -> Tuple[int, ...]:
    return tuple(s // 2 for s in grid.shape)


def _full_tile(grid) -> Tuple[Tuple[int, int], ...]:
    return tuple((0, s) for s in grid.shape)


def _check_edge(
    dep: Dependence,
    radii: Tuple[int, ...],
    lags: List[int],
    skewed: Tuple[str, ...],
    height: int,
    wavefront: bool,
) -> CheckedDependence:
    time_distance, affine = dep.time_distance, dep.affine
    required = available = 0
    cross_tile = False
    # instance-position gap sink - source within one time tile
    gap_count = dep.time_distance * len(radii) + (dep.sink.sweep - dep.source.sweep)
    if not wavefront:
        # sequential schedules execute instances in exactly the dependence
        # order; the only inconsistency a statement system can carry is a
        # same-timestep edge pointing against program order (time_distance<0
        # edges model reads of genuinely future steps, which sequential
        # buffers resolve to stale data exactly as the seed semantics did).
        # Off-grid ops run after full sweeps: always legal, hence affine.
        time_distance, cross_tile, affine = max(dep.time_distance, 0), True, True
    elif dep.time_distance < 0:
        pass  # a future read: unsatisfied whatever the lags
    elif dep.time_distance >= height:
        # the two instances always land in different time tiles; a full
        # barrier separates them
        cross_tile = True
    elif gap_count < 0 or (gap_count == 0 and dep.source.index >= dep.sink.index):
        # the sink instance runs before (or is) the source instance under any
        # lag assignment: a future read
        required = 1
    else:
        # gap_count == 0 is the same instance: statements execute in program
        # order within it, so pointwise edges (required 0) are satisfied and
        # any nonzero skewed reach crosses the window boundary (violation)
        if dep.kind == "flow":
            reach = [dep.distance_along(d) for d in skewed]
        elif dep.kind == "anti":
            reach = [-dep.distance_along(d) for d in skewed]
        else:  # output: pointwise slot reuse
            reach = []
        required = max(reach + [0])
        # in range: time_distance < height puts the sink in this tile
        src = dep.source.sweep
        available = lags[src + gap_count] - lags[src]
    return CheckedDependence(
        kind=dep.kind,
        function=dep.function,
        source=(dep.source.sweep, dep.source.index, dep.source.role),
        sink=(dep.sink.sweep, dep.sink.index, dep.sink.role),
        time_distance=time_distance,
        distance=dep.distance,
        required=required,
        available=available,
        cross_tile=cross_tile,
        affine=affine,
    )


def _violation_counterexample(
    op, schedule: Schedule, dep: Dependence, checked: CheckedDependence
) -> Counterexample:
    """Concrete conflicting instances for a failed affine edge."""
    grid = op.grid
    point = _first_point(grid)
    if isinstance(schedule, WavefrontSchedule):
        tile_a = tuple(
            (0, t) for t in schedule.tile
        ) + tuple((0, s) for s in grid.shape[len(schedule.tile):])
        tile_b = tile_a
    else:
        tile_a = tile_b = _full_tile(grid)
    if dep.time_distance < 0:
        # future read: the sink (reader) at t consumes data the source
        # (writer) only produces at t + |k|
        reader = InstanceRef(0, dep.sink.sweep, tile_a, point, dep.sink.role)
        writer = InstanceRef(
            -dep.time_distance, dep.source.sweep, tile_b, point, dep.source.role
        )
        reason = (
            f"instance reads {dep.function}[t+{-dep.time_distance}] before any "
            "schedule can have produced it (future read)"
        )
        return Counterexample("flow", dep.function, reader, writer, reason)
    reason = (
        f"lag gap {checked.available} does not cover the edge's spatial reach "
        f"{checked.required} along the skewed dimensions"
    )
    writer = InstanceRef(0, dep.source.sweep, tile_a, point, dep.source.role)
    reader = InstanceRef(
        dep.time_distance, dep.sink.sweep, tile_b, point, dep.sink.role
    )
    return Counterexample(dep.kind, dep.function, writer, reader, reason)


def _box_of(boxes: List[Box], point) -> Optional[Box]:
    """The box of one sweep instance that executes *point* (an instance's
    boxes partition the grid; ``None`` for a point outside it)."""
    return next(
        (b for b in boxes if all(lo <= p < hi for p, (lo, hi) in zip(point, b))),
        None,
    )


def offgrid_counterexample(
    op, schedule: WavefrontSchedule, sparse_op
) -> Counterexample:
    """The paper's Fig. 4b conflict, made concrete for *sparse_op*.

    Searches the actual source support corners against the boxes the
    executor will run for every instance of the owning sweep
    (:func:`repro.core.scheduler.lower`): a support straddling two boxes
    yields a manifest lost-update — the off-the-grid scatter fired by the
    box containing the source's base corner writes a corner point in a
    *later* box, whose stencil assignment (same timestep) then overwrites it.
    When the given placement straddles no boundary, the nearest would-be
    conflict — across a boundary of the base corner's box at the tile's
    first timestep — is returned with ``manifest=False``.
    """
    grid = op.grid
    indices, _weights = support_points(sparse_op.sparse.coordinates, grid)
    j = op._sweep_index_for(sparse_op.field.name, sparse_op.time_offset)
    steps = lower(schedule, tuple(grid.shape), tuple(op.sweep_radii), schedule.height)
    injection = isinstance(sparse_op, Injection)
    role_first = "injection" if injection else "interpolation"
    kind = "output" if injection else "flow"

    def conflict(dt, first_tile, second_tile, point, reason, manifest):
        return Counterexample(
            kind,
            sparse_op.field.name,
            InstanceRef(dt, j, first_tile, point, role_first),
            InstanceRef(dt, j, second_tile, point, "stencil"),
            reason,
            manifest=manifest,
        )

    def boxes_of(dt: int) -> List[Box]:
        return [box for sdt, sj, box, *_ in steps if (sdt, sj) == (dt, j)]

    for dt in range(schedule.height):
        boxes = boxes_of(dt)
        for s, corners in enumerate(indices):
            home = _box_of(boxes, corners[0])
            for corner in corners[1:]:
                point = tuple(int(v) for v in corner)
                later = _box_of(boxes, point)
                if later in (home, None):
                    continue
                if injection:
                    reason = (
                        f"source {s} has support corners in two tile windows: "
                        "the off-the-grid scatter fired from "
                        "the earlier window injects the corner, then the "
                        "later window's stencil assignment to the same "
                        "(t, point) destroys the contribution; precompute "
                        "the injection (sparse_mode='precomputed') to make "
                        "it grid-aligned and window-local"
                    )
                else:
                    reason = (
                        f"receiver {s} gathers corners in two tile windows: "
                        "the corner in the later window has not been written "
                        "for this timestep when the earlier window gathers; "
                        "precompute the interpolation "
                        "(sparse_mode='precomputed')"
                    )
                return conflict(dt, home, later, point, reason, True)

    # no straddle with this exact placement: report the nearest would-be
    # conflict (the class of schedules is still illegal — a legal schedule
    # may not depend on where the user happens to put the sources)
    boxes = boxes_of(0)
    base = tuple(int(v) for v in indices[0, 0])
    home = _box_of(boxes, base)
    first = second = home
    point = base
    for d in range(len(schedule.tile)):
        lo, hi = home[d]
        if hi < grid.shape[d]:  # a later window along d: its first point
            point = base[:d] + (hi,) + base[d + 1:]
            second = _box_of(boxes, point)
            break
        if lo > 0:  # only an earlier one: home's first point, seen from it
            point = base[:d] + (lo,) + base[d + 1:]
            first = _box_of(boxes, base[:d] + (lo - 1,) + base[d + 1:])
            break
    return conflict(
        0,
        first,
        second,
        point,
        "off-the-grid support is not a function of the iteration point, so "
        "no lag gap covers it: this placement straddles no tile window, one "
        f"next to {point} would; precompute the sparse operator "
        "(sparse_mode='precomputed') to make it grid-aligned",
        False,
    )


def prove_schedule(
    op,
    schedule: Optional[Schedule] = None,
    sparse_mode: str = "auto",
) -> LegalityCertificate:
    """Prove (or refute) the legality of running *op* under *schedule*.

    Returns a :class:`LegalityCertificate` with one checked inequality per
    dependence edge; raises :class:`~repro.errors.ScheduleLegalityError`
    (carrying a :class:`Counterexample`) when the schedule is illegal.
    """
    schedule = schedule or NaiveSchedule()
    mode = resolve_sparse_mode(sparse_mode, schedule)
    wavefront = isinstance(schedule, WavefrontSchedule)
    aligned = mode == "precomputed"

    grid = op.grid
    dims = tuple(d.name for d in grid.dimensions)
    skewed = dims[: len(schedule.tile)] if wavefront else ()
    radii = tuple(op.sweep_radii)
    height = schedule.height if wavefront else 1

    # the paper's headline rejection first: off-the-grid sparse operators
    # under wavefront blocking, with a concrete counterexample
    if wavefront and not aligned:
        offgrid = op.injections() + op.interpolations()
        if offgrid:
            ce = offgrid_counterexample(op, schedule, offgrid[0])
            raise ScheduleLegalityError(
                "wavefront temporal blocking requires grid-aligned sparse "
                "operators (sparse_mode='precomputed'): off-the-grid "
                "injection inside space-time tiles violates data "
                f"dependencies — {ce.describe()}",
                t=ce.first.t,
                tile=ce.first.tile,
                field=ce.field,
                counterexample=ce,
                schedule=schedule.describe(),
            )

    sweep_of = {}
    for sp in op.sparse_ops:
        try:
            sweep_of[sp] = op._sweep_index_for(sp.field.name, sp.time_offset)
        except ValueError:
            pass  # unattachable sparse op: Operator.apply raises its own error
    stmts = statements_for(
        op.sweeps,
        injections=op.injections(),
        interpolations=op.interpolations(),
        sweep_of=sweep_of,
        aligned=aligned,
    )
    # field name -> time-buffer count, harvested from every Indexed leaf and
    # sparse-operator target (slot-reuse anti/output dependences need it)
    buffers = {}
    for eq in op.eqs:
        for ix in (eq.lhs, *eq.rhs.atoms(Indexed)):
            fn = ix.function
            if hasattr(fn, "buffers"):
                buffers[fn.name] = fn.buffers
    for sp in op.sparse_ops:
        buffers.setdefault(sp.field.name, sp.field.buffers)

    deps = compute_dependences(stmts, buffers)
    lags = instance_lags(radii, height) if wavefront else []
    checked: List[CheckedDependence] = []
    for dep in deps:
        edge = _check_edge(dep, radii, lags, skewed, height, wavefront)
        checked.append(edge)
        if not edge.satisfied:
            ce = _violation_counterexample(op, schedule, dep, edge)
            future = dep.time_distance < 0 or (
                dep.time_distance == 0 and dep.source.position > dep.sink.position
            )
            raise ScheduleLegalityError(
                (
                    f"equation system reads future data: {ce.describe()}; "
                    "wavefront blocking is not legal for this system"
                    if future
                    else f"schedule fails the legality proof: {ce.describe()}"
                ),
                t=ce.first.t,
                tile=ce.first.tile,
                field=ce.field,
                counterexample=ce,
                schedule=schedule.describe(),
            )

    return LegalityCertificate(
        operator=op.name,
        schedule=schedule.describe(),
        sparse_mode=mode,
        dims=dims,
        skewed_dims=tuple(skewed),
        sweep_radii=radii,
        wavefront_angle=wavefront_angle(op.sweeps),
        lags=tuple(lags),
        dependences=tuple(checked),
    )
