"""Structured error taxonomy and pre-flight validation."""

import dataclasses

import numpy as np
import pytest

from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.dsl import Grid, SparseTimeFunction
from repro.errors import (
    CoordinateOutOfDomain,
    InvalidTimeRange,
    NumericalBlowup,
    PlanValidationError,
    ReproError,
    StabilityViolation,
    StabilityWarning,
)
from repro.propagators import AcousticPropagator, SeismicModel, point_source
from repro.runtime.preflight import check_cfl, check_masks

from ..conftest import make_acoustic_operator


# -- taxonomy --------------------------------------------------------------------------


def test_error_context_renders_and_is_attributed():
    err = NumericalBlowup(
        "boom", t=17, tile=((0, 8), (8, 16)), field="u", point=(3, 9), count=4
    )
    assert err.t == 17
    assert err.tile == ((0, 8), (8, 16))
    assert err.field == "u"
    assert err.point == (3, 9)
    assert err.count == 4
    msg = str(err)
    assert "t=17" in msg and "field='u'" in msg and "tile=" in msg
    assert err.context == {"point": (3, 9), "count": 4}


def test_error_without_context_renders_bare():
    assert str(ReproError("plain failure")) == "plain failure"


def test_taxonomy_is_backwards_compatible():
    # pre-resilience call sites catch the builtin types; the structured
    # subclasses must keep satisfying them
    assert issubclass(CoordinateOutOfDomain, ValueError)
    assert issubclass(StabilityViolation, ValueError)
    assert issubclass(InvalidTimeRange, ValueError)
    assert issubclass(PlanValidationError, ValueError)


# -- coordinate validation -------------------------------------------------------------


def test_sparse_construction_names_offending_points(grid2d):
    lo = np.asarray(grid2d.origin)
    hi = lo + np.asarray(grid2d.extent)
    coords = np.stack([lo + 5.0, hi + 50.0, lo - 3.0])
    with pytest.raises(CoordinateOutOfDomain) as excinfo:
        SparseTimeFunction("src", grid2d, npoint=3, nt=4, coordinates=coords)
    err = excinfo.value
    # indices and physical coordinates of *each* bad point are reported
    assert list(err.indices) == [1, 2]
    np.testing.assert_allclose(err.coordinates, coords[[1, 2]])
    assert "point 1" in str(err) and "point 2" in str(err)
    assert "outside the domain" in str(err)
    assert err.field == "src"


def test_boundary_points_are_valid(grid2d):
    lo = np.asarray(grid2d.origin)
    hi = lo + np.asarray(grid2d.extent)
    SparseTimeFunction("src", grid2d, npoint=2, nt=4, coordinates=np.stack([lo, hi]))


# -- CFL -------------------------------------------------------------------------------


@pytest.fixture
def model():
    return SeismicModel((18, 18, 18), (10.0,) * 3, 2.0, nbl=4, space_order=4)


def test_validate_dt_accepts_critical_and_rejects_beyond(model):
    crit = model.critical_dt("acoustic")
    assert model.validate_dt(crit, kind="acoustic") == pytest.approx(crit)
    with pytest.raises(StabilityViolation) as excinfo:
        model.validate_dt(2.0 * crit, kind="acoustic")
    err = excinfo.value
    assert err.dt == pytest.approx(2.0 * crit)
    assert err.critical == pytest.approx(crit)
    assert err.kind == "acoustic"


def test_validate_dt_rejects_nonpositive(model):
    with pytest.raises(StabilityViolation):
        model.validate_dt(0.0)


def test_check_cfl_policies(model):
    crit = model.critical_dt("acoustic")
    with pytest.raises(StabilityViolation):
        check_cfl(2.0 * crit, model, policy="raise")
    with pytest.warns(StabilityWarning):
        assert check_cfl(2.0 * crit, model, policy="warn") == pytest.approx(crit)
    with pytest.raises(ValueError, match="policy"):
        check_cfl(crit, model, policy="maybe")


def test_forward_cfl_policy(model):
    dt = 3.0 * model.critical_dt("acoustic")
    nt = 3
    src = point_source("src", model.grid, nt + 2, [model.domain_center], f0=0.03, dt=dt)
    prop = AcousticPropagator(model, space_order=4, source=src)
    with pytest.raises(StabilityViolation):
        prop.forward(nt=nt, dt=dt, cfl="raise")
    # the default is warn-only: deliberately unstable runs stay legal
    with pytest.warns(StabilityWarning):
        prop.forward(nt=nt, dt=dt)


# -- time-range / shape validation at the executors ------------------------------------


def test_apply_rejects_reversed_time_range(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=6)
    with pytest.raises(InvalidTimeRange, match="exceed"):
        op.apply(time_M=2, time_m=5, dt=0.5)


def test_executor_rejects_reversed_range(grid2d):
    from repro.execution.executors import run_schedule

    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=6)
    plan = op._bind(0.5, NaiveSchedule(), "offgrid")
    with pytest.raises(InvalidTimeRange, match="reversed"):
        run_schedule(plan, 5, 2, NaiveSchedule())
    run_schedule(plan, 3, 3, NaiveSchedule())  # empty range is a legal no-op at this level


def test_block_rank_exceeding_grid_rank(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=6)
    with pytest.raises(PlanValidationError, match="rank"):
        op.apply(time_M=3, dt=0.5, schedule=SpatialBlockSchedule(block=(4, 4, 4)))
    with pytest.raises(PlanValidationError, match="rank"):
        op.apply(
            time_M=4,
            dt=0.5,
            schedule=WavefrontSchedule(tile=(4, 4, 4), height=2),
            sparse_mode="precomputed",
        )


def test_empty_grid_extent_rejected():
    grid = Grid(shape=(8, 4), extent=(70.0, 30.0))
    op, u, m, src, rec = make_acoustic_operator(
        grid, nt=4, src_coords=False, rec_coords=False
    )
    from repro.execution.executors import run_schedule

    plan = op._bind(0.5, NaiveSchedule(), "offgrid")
    grid.shape = (8, 0)  # simulate a degenerate extent slipping through
    try:
        with pytest.raises(PlanValidationError, match="empty extent"):
            run_schedule(plan, 0, 2, NaiveSchedule())
    finally:
        grid.shape = (8, 4)


# -- structural pre-flight of precomputed sparse structures ----------------------------


def test_preflight_accepts_consistent_masks(grid2d):
    op, u, m, src, rec = make_acoustic_operator(grid2d, nt=8)
    plan = op.apply(
        time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(6, 6), height=2)
    )
    plan.validate()  # memoised second pass


def _aligned_plan(grid, nt=8):
    op, u, m, src, rec = make_acoustic_operator(grid, nt=nt)
    plan = op._bind(0.5, WavefrontSchedule(tile=(6, 6), height=2), "precomputed")
    return op, plan


def test_preflight_detects_corrupt_sm(grid2d):
    """An affected point dropped from the mask (the paper's SM loses a one)
    no longer matches the nnz/Sp_SID the kernels read."""
    op, plan = _aligned_plan(grid2d)
    masks = plan.injections[0][0].dsrc.masks
    masks._preflight_ok = False
    good = masks.points
    masks.points = good[1:]
    try:
        with pytest.raises(PlanValidationError, match="nnz"):
            plan.validate()
    finally:
        masks.points = good
    plan.validate()


def test_preflight_accepts_masks_without_points(grid3d):
    """Every sparse function affects at least one point, so the empty case
    is built by hand: npts == 0 with all-zero nnz passes."""
    op, u, m, src, rec = make_acoustic_operator(grid3d, nt=8)
    masks = dataclasses.replace(
        op._masks_for(src),
        points=np.empty((0, 3), dtype=np.int64),
        nnz=np.zeros(grid3d.shape[:-1], dtype=np.int32),
        sp_sid=np.full(grid3d.shape[:-1] + (1,), -1, dtype=np.int32),
    )
    assert masks.npts == 0 and masks.memory_bytes() > 0
    check_masks(masks)
    assert masks._preflight_ok


def _corrupted_apply(grid, engine, corrupt):
    """Corrupt the source's masks, then apply under WTB on *engine*: the
    plan must be refused before timestep 0 with the wavefield untouched."""
    op, u, m, src, rec = make_acoustic_operator(grid, nt=8)
    masks = op._masks_for(src)
    corrupt(masks)
    with pytest.raises(PlanValidationError) as excinfo:
        op.apply(time_M=4, dt=0.5, schedule=WavefrontSchedule(tile=(6, 6), height=2),
                 engine=engine)
    assert not u.data_with_halo.any()
    assert not getattr(masks, "_preflight_ok", False)
    return str(excinfo.value)


ENGINES = ["c", "fused", "interp"]


@pytest.mark.parametrize("engine", ENGINES)
def test_preflight_detects_ids_out_of_sorted_order(grid3d, engine):
    """An affected point's id is its row in ``points``; the C sparse kernels
    read slot ``z2`` of pencil ``p`` as id ``start[p] + z2``.  Two swapped
    rows are refused before timestep 0 on every rung."""

    def swap(masks):
        masks.points[[0, -1]] = masks.points[[-1, 0]]

    assert "sorted key order" in _corrupted_apply(grid3d, engine, swap)


@pytest.mark.parametrize("engine", ENGINES)
def test_preflight_detects_corrupt_sp_sid(grid3d, engine):
    """Slot 0 of the source's first pencil lowered by one ``z``: the C rung
    would inject there while ``fused`` and ``interp`` never read Sp_SID."""

    def lower_slot(masks):
        p = np.flatnonzero(masks.nnz.reshape(-1))[0]
        sp = masks.sp_sid.reshape(masks.nnz.size, -1)
        sp[p, 0] = sp[p, 0] - 1 if sp[p, 0] > 0 else sp[p, 0] + 1

    assert "Sp_SID slot 0" in _corrupted_apply(grid3d, engine, lower_slot)


@pytest.mark.parametrize("engine", ENGINES)
def test_preflight_detects_moved_nnz_count(grid3d, engine):
    """One count moved to an empty pencil keeps ``nnz.sum() == npts``."""

    def move(masks):
        nnz = masks.nnz.reshape(-1)
        nnz[np.flatnonzero(nnz)[0]] -= 1
        nnz[np.flatnonzero(nnz == 0)[0]] += 1

    assert "affected point(s) lie there" in _corrupted_apply(grid3d, engine, move)


def test_preflight_detects_wavelet_shape_mismatch(grid2d):
    op, plan = _aligned_plan(grid2d)
    dsrc = plan.injections[0][0].dsrc
    dsrc.masks._preflight_ok = False
    good = dsrc.data
    dsrc.data = good[:, :-1]  # drop one decomposed wavelet column
    try:
        with pytest.raises(PlanValidationError, match="decomposed source"):
            plan.validate()
    finally:
        dsrc.data = good


def test_preflight_detects_receiver_weight_mismatch(grid2d):
    op, plan = _aligned_plan(grid2d)
    drec = plan.receivers[0][0].drec
    drec.masks._preflight_ok = False
    good = drec.weights
    drec.weights = good[:, :-1]
    try:
        with pytest.raises(PlanValidationError, match="weight matrix"):
            plan.validate()
    finally:
        drec.weights = good


def test_check_masks_is_memoised(grid2d):
    op, plan = _aligned_plan(grid2d)
    masks = plan.injections[0][0].dsrc.masks
    plan.validate()
    assert masks._preflight_ok
    # memoisation means a later (undetected) mutation is deliberately not
    # rescanned -- corruption *between* applies needs an explicit reset
    nnz = masks.nnz.reshape(-1)
    p = np.flatnonzero(nnz)[0]
    nnz[p] += 1
    plan.validate()
    masks._preflight_ok = False
    with pytest.raises(PlanValidationError):
        check_masks(masks)
    nnz[p] -= 1
