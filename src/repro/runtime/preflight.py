"""Pre-flight validation: surface failures before timestep 0.

Long temporally blocked runs die most painfully when a bad input only
manifests thousands of sweeps in.  These checks front-load the three classes
of avoidable aborts:

* **Stability** — ``dt`` against the model's CFL-critical timestep
  (:func:`check_cfl`, raising or warning with
  :class:`~repro.errors.StabilityViolation` /
  :class:`~repro.errors.StabilityWarning`).
* **Geometry** — batch validation of every source/receiver coordinate
  against the physical domain, when the ``SparseTimeFunction`` is
  constructed (:func:`repro.dsl.interpolation.validate_coordinates`).
* **Structure** — consistency of the precomputed sparse structures with
  what the kernels read: the sorted affected points (a point's id is its
  row), the compressed ``nnz``/``Sp_SID`` pair and the decomposed wavelet
  matrix ``src_dcmp``
  (:func:`check_masks`, :func:`check_source`, :func:`check_receiver`).

:func:`validate_plan` runs the structural checks over a bound
:class:`~repro.execution.executors.ExecutionPlan`; mask checks are memoised
per-masks-object, so the per-``apply`` cost after the first call is a few
attribute reads.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import PlanValidationError, StabilityViolation, StabilityWarning

__all__ = [
    "check_cfl",
    "check_masks",
    "check_source",
    "check_receiver",
    "validate_plan",
]


def check_cfl(dt: float, model, kind: str = "acoustic", policy: str = "raise", cfl=None):
    """Validate *dt* against ``model.critical_dt(kind)``.

    ``policy`` is ``"raise"`` (pre-flight hard failure) or ``"warn"`` (emit a
    :class:`StabilityWarning` and continue — the default in
    ``Propagator.forward``, which must keep running deliberately unstable
    experiments).  Returns the critical dt.
    """
    if policy not in ("raise", "warn"):
        raise ValueError(f"unknown CFL policy {policy!r}; expected 'raise' or 'warn'")
    try:
        return model.validate_dt(dt, kind=kind, cfl=cfl)
    except StabilityViolation as err:
        if policy == "raise":
            raise
        warnings.warn(StabilityWarning(str(err)), stacklevel=2)
        return err.context.get("critical")


def check_masks(masks) -> None:
    """What the sparse kernels read, checked against ``points``: the points
    ascend strictly in key order (an affected point's id is its row),
    ``nnz`` is their per-pencil count and ``Sp_SID[p, slot]`` is the ``z``
    of point ``start[p] + slot``.  O(npts + pencils); memoised per masks
    object."""
    if getattr(masks, "_preflight_ok", False):
        return
    grid = masks.grid
    npts = masks.npts
    if masks.points.shape != (npts, grid.ndim):
        raise PlanValidationError(
            f"affected-point table has shape {masks.points.shape}, "
            f"expected ({npts}, {grid.ndim})"
        )
    if masks.nnz.shape != grid.shape[:-1]:
        raise PlanValidationError(
            f"nnz mask shape {masks.nnz.shape} does not match pencil shape "
            f"{grid.shape[:-1]}"
        )
    if masks.sp_sid.shape != masks.nnz.shape + (masks.max_nnz,):
        raise PlanValidationError(
            f"Sp_SID shape {masks.sp_sid.shape} inconsistent with nnz shape "
            f"{masks.nnz.shape} and max_nnz {masks.max_nnz}"
        )
    # one key array serves the order, nnz and Sp_SID checks
    try:
        keys = np.ravel_multi_index(tuple(masks.points.T), grid.shape)
    except ValueError:
        raise PlanValidationError("an affected point lies outside the grid") from None
    out_of_order = np.flatnonzero(keys[1:] <= keys[:-1])
    if out_of_order.size:
        i = int(out_of_order[0]) + 1
        raise PlanValidationError(
            f"affected points break the sorted key order: point {i} "
            f"{tuple(int(v) for v in masks.points[i])} does not follow point {i - 1}"
        )
    pencils = keys // grid.shape[-1]
    zs = masks.points[:, -1]
    nnz = masks.nnz.reshape(-1)
    moved = np.flatnonzero(np.bincount(pencils, minlength=nnz.size) != nnz)
    if moved.size:
        p = int(moved[0])
        raise PlanValidationError(
            f"nnz counts {int(nnz[p])} point(s) in pencil {p}, but "
            f"{int(np.count_nonzero(pencils == p))} affected point(s) lie there"
        )
    if int(nnz.max()) > masks.max_nnz:
        raise PlanValidationError(
            f"nnz counts up to {int(nnz.max())} point(s) per pencil, but Sp_SID "
            f"holds {masks.max_nnz} slot(s)"
        )
    slots = np.arange(npts) - (np.cumsum(nnz) - nnz)[pencils]
    wrong = np.flatnonzero(masks.sp_sid.reshape(-1).take(pencils * masks.max_nnz + slots) != zs)
    if wrong.size:
        i = int(wrong[0])
        raise PlanValidationError(
            f"Sp_SID slot {int(slots[i])} of pencil {int(pencils[i])} does not "
            f"hold the z of affected point {i} ({int(zs[i])})"
        )
    masks._preflight_ok = True


def check_source(dsrc) -> None:
    """Decomposed-source consistency: ``src_dcmp`` must be (nt, npts)."""
    check_masks(dsrc.masks)
    if dsrc.data.ndim != 2 or dsrc.data.shape[1] != dsrc.masks.npts:
        raise PlanValidationError(
            f"decomposed source wavelets have shape {dsrc.data.shape}, expected "
            f"(nt, {dsrc.masks.npts})",
            field=dsrc.field_name,
        )


def check_receiver(drec) -> None:
    """Decomposed-receiver consistency: weight matrix columns == npts."""
    check_masks(drec.masks)
    expected_cols = max(drec.masks.npts, 1)
    if drec.weights.shape[1] != expected_cols:
        raise PlanValidationError(
            f"receiver weight matrix has {drec.weights.shape[1]} column(s), "
            f"expected {expected_cols}",
            field=drec.field_name,
        )


def validate_plan(plan) -> None:
    """Structural pre-flight of a bound plan's precomputed sparse operators."""
    for lst in plan.injections.values():
        for op in lst:
            if hasattr(op, "dsrc"):
                check_source(op.dsrc)
    for lst in plan.receivers.values():
        for op in lst:
            if hasattr(op, "drec"):
                check_receiver(op.drec)
                if op.output.shape[1] != op.drec.weights.shape[0]:
                    raise PlanValidationError(
                        f"receiver trace array holds {op.output.shape[1]} "
                        f"trace(s) but the weight matrix reconstructs "
                        f"{op.drec.weights.shape[0]}",
                        field=op.drec.field_name,
                    )
