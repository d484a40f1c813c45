"""Schedule-legality prover: certificates, counterexamples, lag-table stress."""

import dataclasses
import json

import pytest

from repro.core.scheduler import (
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    instance_lags,
    lower,
)
from repro.dsl import Eq, Grid, TimeFunction
from repro.errors import ScheduleLegalityError
from repro.ir import Operator
from repro.verify import (
    Counterexample,
    LegalityCertificate,
    offgrid_counterexample,
    prove_schedule,
    resolve_sparse_mode,
)
from ..conftest import make_acoustic_operator


def _forward_in_time(expr, grid):
    from repro.dsl.symbols import Indexed

    return expr.subs({ix: ix.shift(grid.stepping_dim, 1) for ix in expr.atoms(Indexed)})


WF = WavefrontSchedule(tile=(8, 8), height=2)


# -- positive verdicts -----------------------------------------------------------


@pytest.mark.parametrize(
    "schedule",
    [NaiveSchedule(), SpatialBlockSchedule(block=(6, 5)), WF],
    ids=["naive", "spatial", "wavefront"],
)
def test_acoustic_certified(grid3d, schedule):
    op, *_ = make_acoustic_operator(grid3d)
    cert = prove_schedule(op, schedule)
    assert isinstance(cert, LegalityCertificate)
    assert cert.check() and not cert.violations()
    assert cert.dependences, "a real operator must have dependence edges"
    assert cert.max_distance["t"] >= 1


def test_wavefront_certificate_geometry(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    cert = prove_schedule(op, WF)
    radii = tuple(op.sweep_radii)
    assert cert.sweep_radii == radii
    assert cert.wavefront_angle == sum(radii)
    assert cert.lags == tuple(instance_lags(radii, WF.height))
    assert cert.tile_skew == cert.lags[-1]
    assert cert.skewed_dims == ("x", "y")
    # some edges are genuinely checked in-tile, some cross the tile barrier
    assert any(not d.cross_tile for d in cert.dependences)
    assert any(d.cross_tile for d in cert.dependences)


def test_certificate_roundtrip(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    cert = prove_schedule(op, WF)
    d = cert.to_dict()
    assert d["legal"] is True
    assert cert.check()
    assert json.loads(json.dumps(d)) == d  # the verify CLI's record
    copy = dataclasses.replace(cert)
    assert copy.to_dict() == d and copy.summary() == cert.summary()


def test_tampered_certificate_fails_check(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    cert = prove_schedule(op, WF)
    deps = list(cert.dependences)
    i = next(i for i, e in enumerate(deps) if not e.cross_tile)
    deps[i] = dataclasses.replace(deps[i], required=deps[i].available + 1)
    tampered = dataclasses.replace(cert, dependences=tuple(deps))
    assert isinstance(tampered, LegalityCertificate)
    assert not tampered.check()
    assert tampered.violations()


def test_certificate_cached_on_operator(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    c1 = op.certificate_for(WF)
    c2 = op.certificate_for(WF)
    assert c1 is c2
    # a different schedule key proves afresh
    c3 = op.certificate_for(WavefrontSchedule(tile=(8, 8), height=3))
    assert c3 is not c1 and c3.check()


def test_resolve_sparse_mode():
    assert resolve_sparse_mode("auto", NaiveSchedule()) == "offgrid"
    assert resolve_sparse_mode("auto", WF) == "precomputed"
    assert resolve_sparse_mode("precomputed", NaiveSchedule()) == "precomputed"
    with pytest.raises(ValueError):
        resolve_sparse_mode("bogus", WF)


# -- negative verdicts -----------------------------------------------------------


def test_offgrid_wavefront_rejected(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ScheduleLegalityError, match="precompute") as ei:
        prove_schedule(op, WF, sparse_mode="offgrid")
    exc = ei.value
    assert isinstance(exc, ValueError)  # legacy except ValueError still works
    ce = exc.counterexample
    assert isinstance(ce, Counterexample)
    assert ce.field == "u" and ce.kind in ("output", "flow")
    assert ce.first.t == exc.t and ce.first.tile == exc.tile
    # both instances name a concrete (t, tile, point)
    assert len(ce.first.point) == grid3d.ndim
    assert len(ce.first.tile) == grid3d.ndim
    d = ce.to_dict()
    assert json.loads(json.dumps(d)) == d


def test_offgrid_counterexample_manifest(grid3d):
    # the conftest source placement (2 random sources) straddles a tile window
    # on an 8x8 tiling of a 12x11 plane: the counterexample must be concrete
    op, *_ = make_acoustic_operator(grid3d)
    ce = offgrid_counterexample(op, WF, op.injections()[0])
    assert ce.manifest
    assert ce.first.role == "injection" and ce.second.role == "stencil"
    # the conflicting point lies outside the injecting instance's tile window
    # along at least one skewed dimension
    outside = [
        d
        for d in range(2)
        if not ce.first.tile[d][0] <= ce.first.point[d] < ce.first.tile[d][1]
    ]
    assert outside


def test_offgrid_counterexample_dodging_placement(grid3d):
    # a single source well inside one 8x8 window: no straddle with this exact
    # placement, but the schedule class is still rejected (manifest=False)
    coords = [[20.0, 20.0, 45.0]]  # grid spacing 10: support corners 2..3
    op, *_ = make_acoustic_operator(grid3d, src_coords=coords, rec_coords=False)
    ce = offgrid_counterexample(op, WF, op.injections()[0])
    assert not ce.manifest
    with pytest.raises(ScheduleLegalityError, match="precompute"):
        prove_schedule(op, WF, sparse_mode="offgrid")


@pytest.mark.parametrize(
    "coords, manifest",
    [([[20.0, 20.0, 45.0]], False), ([[180.0, 20.0, 45.0]], False), (None, True)],
    ids=["dodging", "last-window", "straddling"],
)
def test_offgrid_counterexample_names_boxes_the_executor_runs(coords, manifest):
    """Both tiles are boxes of ``lower()`` for the named (t, sweep) instance,
    the second one later in step order; every point is a grid point (a source
    in the last window used to name x=24 on a 20-wide grid); and a manifest
    conflict is a lost update the shadow oracle observes at that very point."""
    from repro.verify import run_oracle

    grid = Grid(shape=(20, 18, 16), extent=(190.0, 170.0, 150.0))
    kw = {} if coords is None else dict(src_coords=coords, rec_coords=False)
    op, *_ = make_acoustic_operator(grid, **kw)
    ce = offgrid_counterexample(op, WF, op.injections()[0])
    assert ce.manifest is manifest
    assert ce.first.t == ce.second.t and ce.first.sweep == ce.second.sweep == 0
    steps = lower(WF, grid.shape, tuple(op.sweep_radii), WF.height)
    boxes = [box for dt, j, box, *_ in steps if (dt, j) == (ce.first.t, 0)]
    assert boxes.index(ce.first.tile) < boxes.index(ce.second.tile)
    for ref in (ce.first, ce.second):
        assert all(0 <= p < n for p, n in zip(ref.point, grid.shape))
    # the contested point is the later box's to assign
    assert all(lo <= p < hi for p, (lo, hi) in zip(ce.second.point, ce.second.tile))
    report = run_oracle(op, WF, time_M=6, unsafe_offgrid=True, max_records=10**6)
    lost = {r.point for r in report.races if r.kind == "lost-update"}
    assert (ce.first.point in lost) is manifest


def test_apply_and_bare_bind_reject_offgrid_wavefront_like_the_prover(grid3d, grid2d):
    """One rejection, the prover's, from both entry points — so they also
    agree on the operator with nothing off-grid to reject (``_bind`` used to
    keep a private copy that refused it although the prover certified it)."""
    op, *_ = make_acoustic_operator(grid3d)
    with pytest.raises(ScheduleLegalityError, match="precompute") as via_apply:
        op.apply(time_M=2, dt=1.0, schedule=WF, sparse_mode="offgrid")
    with pytest.raises(ScheduleLegalityError, match="precompute") as via_bind:
        op._bind(1.0, WF, "offgrid")
    assert via_apply.value.counterexample == via_bind.value.counterexample is not None

    bare, *_ = make_acoustic_operator(grid2d, src_coords=False, rec_coords=False)
    assert prove_schedule(bare, WF, sparse_mode="offgrid").check()
    bare.apply(time_M=2, dt=1.0, schedule=WF, sparse_mode="offgrid")


def test_future_read_rejected_under_wavefront():
    grid = Grid(shape=(16, 16))
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    da2 = _forward_in_time(_forward_in_time(a.dx, grid), grid)
    op = Operator([Eq(a.forward, a.dx), Eq(b.forward, da2)], name="future-test")
    with pytest.raises(ScheduleLegalityError, match="future"):
        prove_schedule(op, WavefrontSchedule(tile=(8,), height=2))


def test_sequential_schedules_always_certify_future_free_systems():
    # the prover treats sequential execution as the reference order: naive and
    # spatially blocked schedules certify anything the executors accept
    grid = Grid(shape=(16, 16))
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    da = _forward_in_time(a.dx, grid)
    op = Operator([Eq(a.forward, a.dx), Eq(b.forward, da)], name="two-sweep")
    assert prove_schedule(op, NaiveSchedule()).check()
    assert prove_schedule(op, SpatialBlockSchedule(block=(8, 8))).check()


# -- lag-table stress (paper Figs. 7 & 8) ---------------------------------------


def _two_sweep_op(so_a=4, so_b=8):
    """Coupled two-sweep system with per-sweep radii (so_b//2, so_a//2)."""
    grid = Grid(shape=(24, 24))
    a = TimeFunction("a", grid, time_order=1, space_order=so_a)
    b = TimeFunction("b", grid, time_order=1, space_order=so_b)
    da = _forward_in_time(a.dx, grid)  # radius so_a//2 read of a[t+1]
    op = Operator([Eq(a.forward, b.dx2), Eq(b.forward, da)], name="coupled")
    return op, grid


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_multi_sweep_lag_table(height):
    # Fig. 8: the per-instance cumulative lag table of a coupled system —
    # radii (4, 2) interleave as +2, +4, +2, +4, ... across the tile
    op, grid = _two_sweep_op()
    radii = tuple(op.sweep_radii)
    assert radii == (4, 2)
    sched = WavefrontSchedule(tile=(12, 12), height=height)
    cert = prove_schedule(op, sched)
    assert cert.check()
    lags = cert.lags
    assert len(lags) == 2 * height
    assert lags[0] == 0
    diffs = [lags[i + 1] - lags[i] for i in range(len(lags) - 1)]
    # every instance after the first adds its *own* sweep's read radius
    assert diffs == [radii[(i + 1) % 2] for i in range(len(diffs))]
    assert cert.tile_skew == height * sum(radii) - radii[0]


@pytest.mark.parametrize("so", [2, 4, 8, 16])
def test_single_sweep_skew_tracks_radius(grid3d, so):
    # Fig. 7: for single-sweep kernels the per-step skew is the stencil radius
    op, *_ = make_acoustic_operator(grid3d, so=so, src_coords=False, rec_coords=False)
    cert = prove_schedule(op, WavefrontSchedule(tile=(8, 8), height=3))
    assert cert.check()
    assert cert.wavefront_angle == so // 2
    assert cert.lags == (0, so // 2, so)
    # in-tile flow edges are covered with zero slack at the stencil radius
    tight = [
        d
        for d in cert.dependences
        if not d.cross_tile and d.kind == "flow" and d.required == so // 2
    ]
    assert tight and all(d.available >= d.required for d in tight)


def test_zero_radius_sweep_contributes_no_lag():
    grid = Grid(shape=(16, 16))
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    v = TimeFunction("v", grid, time_order=1, space_order=4)
    # sweep 0: real stencil on v; sweep 1: pointwise damping of u reading
    # v[t+1] at radius 0 (kept a separate sweep by the duplicate-write rule)
    eqs = [
        Eq(u.forward, v.dx2),
        Eq(u.forward, _forward_in_time(0.5 * u.indexify(), grid)),
    ]
    op = Operator(eqs, name="damped")
    assert tuple(op.sweep_radii) == (2, 0)
    cert = prove_schedule(op, WavefrontSchedule(tile=(8,), height=2))
    assert cert.check()
    # the zero-radius sweep adds no skew when its instance enters
    assert cert.lags == (0, 0, 2, 2)
    assert cert.wavefront_angle == 2


# -- all three paper propagators --------------------------------------------------


@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
@pytest.mark.parametrize(
    "schedule",
    [NaiveSchedule(), SpatialBlockSchedule(block=(6, 6)), WF],
    ids=["naive", "spatial", "wavefront"],
)
def test_paper_propagators_certified(kind, schedule):
    # acceptance: the prover certifies every shipped schedule on the three
    # paper propagators (precomputed masks under wavefront), and the dynamic
    # oracle confirms each certificate race-free on a small grid
    from repro.propagators.examples import build_example
    from repro.verify import run_oracle

    prop, dt = build_example(kind)
    cert = prove_schedule(prop.op, schedule)
    assert cert.check(), cert.summary()
    report = run_oracle(prop.op, schedule, time_M=4)
    assert report.ok, report.describe()


@pytest.mark.parametrize("kind", ["tti", "elastic"])
def test_paper_propagators_reject_offgrid_wavefront(kind):
    from repro.propagators.examples import build_example

    prop, dt = build_example(kind)
    with pytest.raises(ScheduleLegalityError, match="precompute") as ei:
        prove_schedule(prop.op, WF, sparse_mode="offgrid")
    assert ei.value.counterexample is not None


@pytest.mark.parametrize("kind", ["acoustic", "tti", "elastic"])
@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_available_skew_is_the_box_shift_lower_applies(kind, height):
    # every in-tile edge's available lag gap is exactly how far lower() shifts
    # the sink instance's box left of the source instance's, read off one
    # space tile that no instance box is clipped in
    from repro.propagators.examples import build_example

    prop, _ = build_example(kind, so=4)
    op = prop.op
    schedule = WavefrontSchedule(tile=(2, 2), height=height)
    cert = prove_schedule(op, schedule)
    radii, shape = tuple(op.sweep_radii), tuple(op.grid.shape)
    tiles = {}
    for dt, j, box, _sparse, tile, _n in lower(schedule, shape, radii, height):
        tiles.setdefault(tile, {})[dt, j] = box
    boxes = next(
        inst for inst in tiles.values()
        if len(inst) == height * len(radii)
        and all(hi - lo == 2 for box in inst.values() for lo, hi in box[:2])
    )
    gaps = set()
    for edge in cert.dependences:
        (src, *_), (snk, *_) = edge.source, edge.sink
        gap = edge.time_distance * len(radii) + snk - src
        if edge.cross_tile or edge.time_distance < 0 or gap < 0:
            continue
        shifts = {
            a[0] - b[0]
            for a, b in zip(boxes[0, src][:2], boxes[edge.time_distance, snk][:2])
        }
        assert shifts == {edge.available}, (edge, shifts)
        gaps.add(gap)
    # beyond a one-instance tile, some checked edge spans two instances
    assert gaps and (max(gaps) > 0 or height * len(radii) == 1)
