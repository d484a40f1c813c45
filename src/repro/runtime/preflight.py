"""Pre-flight validation: surface failures before timestep 0.

Long temporally blocked runs die most painfully when a bad input only
manifests thousands of sweeps in.  These checks front-load the three classes
of avoidable aborts:

* **Stability** — ``dt`` against the model's CFL-critical timestep
  (:func:`check_cfl`, raising or warning with
  :class:`~repro.errors.StabilityViolation` /
  :class:`~repro.errors.StabilityWarning`).
* **Geometry** — batch validation of every source/receiver coordinate
  against the physical domain (:func:`check_coordinates`, delegating to the
  single implementation in :mod:`repro.dsl.interpolation`).
* **Structure** — shape/consistency of the precomputed sparse structures:
  the binary mask ``SM``, the id map ``SID`` (and its sorted id order), the
  compressed ``nnz``/``Sp_SID`` pair and the decomposed wavelet matrix
  ``src_dcmp``
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
from ..dsl.interpolation import validate_coordinates

__all__ = [
    "check_cfl",
    "check_coordinates",
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


def check_coordinates(sparse_fn) -> None:
    """Batch-validate a sparse function's points against its grid's domain."""
    validate_coordinates(sparse_fn.coordinates, sparse_fn.grid, name=sparse_fn.name)


def check_masks(masks) -> None:
    """SM/SID/nnz/Sp_SID consistency, and the sorted id order the C sparse
    kernels rely on (``SID`` at ``points`` is ``0..npts-1``, so slot ``z2``
    of pencil ``p`` holds id ``start[p] + z2``); memoised per masks object."""
    if getattr(masks, "_preflight_ok", False):
        return
    grid = masks.grid
    npts = masks.npts
    if masks.points.shape != (npts, grid.ndim):
        raise PlanValidationError(
            f"affected-point table has shape {masks.points.shape}, "
            f"expected ({npts}, {grid.ndim})"
        )
    if masks.sm.shape != grid.shape or masks.sid.shape != grid.shape:
        raise PlanValidationError(
            f"SM/SID shapes {masks.sm.shape}/{masks.sid.shape} do not match "
            f"the grid shape {grid.shape}"
        )
    n_sm = int(np.count_nonzero(masks.sm))
    if n_sm != npts:
        raise PlanValidationError(
            f"binary source mask marks {n_sm} point(s) but the id map defines {npts}"
        )
    n_sid = int(np.count_nonzero(masks.sid >= 0))
    if n_sid != npts:
        raise PlanValidationError(
            f"source-id map assigns {n_sid} id(s) but the mask defines {npts} point(s)"
        )
    ids = masks.sid[tuple(masks.points.T)]
    out_of_order = np.flatnonzero(ids != np.arange(npts))
    if out_of_order.size:
        i = int(out_of_order[0])
        raise PlanValidationError(
            f"source-id map breaks the sorted key order: affected point {i} "
            f"{tuple(int(v) for v in masks.points[i])} holds id {int(ids[i])}"
        )
    if masks.nnz.shape != grid.shape[:-1]:
        raise PlanValidationError(
            f"nnz mask shape {masks.nnz.shape} does not match pencil shape "
            f"{grid.shape[:-1]}"
        )
    if int(masks.nnz.sum()) != npts:
        raise PlanValidationError(
            f"compressed nnz counts sum to {int(masks.nnz.sum())}, expected {npts}"
        )
    if masks.sp_sid.shape != masks.nnz.shape + (masks.max_nnz,):
        raise PlanValidationError(
            f"Sp_SID shape {masks.sp_sid.shape} inconsistent with nnz shape "
            f"{masks.nnz.shape} and max_nnz {masks.max_nnz}"
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
