"""Grid-aligned sparse-operator executors — step 4 of the scheme (Listing 4/5).

After decomposition, source injection is a per-grid-point addition and
receiver measurement a per-grid-point gather; both operate on arbitrary
sub-boxes, which is precisely what makes them legal inside space-time tiles.

:class:`AlignedInjection` applies ``u[t+k, p] += src_dcmp[t, id(p)]`` for the
affected points *p* of a box, visiting only the compressed non-zero structure
(the executable analogue of the fused ``z2`` loop of Listing 5).

:class:`AlignedReceiver` gathers the wavefield at the affected points of a
box into a per-timestep staging vector and reconstructs the off-the-grid
receiver traces with a sparse weight matrix once a timestep's wavefield is
complete (at time-tile boundaries).
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.functions import TimeFunction
from ..dsl.interpolation import check_flat_view, linear_index
from .decompose import DecomposedReceiver, DecomposedSource

__all__ = ["AlignedInjection", "AlignedReceiver"]

Box = Tuple[Tuple[int, int], ...]


class _Aligned:
    """What both executors share: the target field (whose buffers must have
    a flat view, checked here, once), the masks, and *c*, a
    :class:`repro.ir.cgen.SparseKernels` passed when the plan bound the C
    engine — it replaces the Python bodies with the compiled Listing-5 loops
    over ``nnz`` / ``Sp_SID``: same arithmetic, same returned counts."""

    def __init__(self, decomposed, field: TimeFunction, c):
        if field.name != decomposed.field_name:
            raise ValueError(
                f"decomposition targets field {decomposed.field_name!r}, got {field.name!r}"
            )
        check_flat_view(field.buffer(0))
        self.field = field
        self.masks = decomposed.masks
        self.time_offset = decomposed.time_offset
        self._c = c

    @functools.cached_property
    def _lin(self) -> np.ndarray:
        """One linear index per affected point into the flat view of a padded
        time buffer, built when a Python body first needs it (the C kernels
        never do).  A box's slice is gathered per call: memoising that per
        box costs more resident memory than the gather saves (DESIGN.md §2)."""
        return linear_index(self.masks.points, self.field.halo, self.field.buffer(0))


class AlignedInjection(_Aligned):
    """Executable grid-aligned injection over boxes."""

    def __init__(self, dsrc: DecomposedSource, field: TimeFunction, c=None):
        super().__init__(dsrc, field, c)
        self.dsrc = dsrc
        self.nt = dsrc.data.shape[0]
        # convert the decomposed amplitudes to the field dtype once -- the hot
        # apply() path previously paid an astype per (t, box) instance
        self._amplitudes = np.ascontiguousarray(dsrc.data, dtype=field.dtype)
        self._rows = self._amplitudes.ctypes.data, self._amplitudes.strides[0]

    def apply(self, t: int, box: Optional[Box] = None) -> int:
        """Add timestep *t*'s decomposed amplitudes into ``field[t + offset]``;
        returns the number of grid points injected.

        With *box* given, only affected points inside the (half-open) box are
        injected — the form used inside space-time tiles.
        """
        if not 0 <= t < self.nt or self.masks.npts == 0:
            return 0
        if self._c is not None:
            base, stride = self._rows
            return self._c.inject(t + self.time_offset, box, base + t * stride)
        # each affected point appears exactly once: plain fancy add suffices
        if box is None:
            flat = self.field.buffer(t + self.time_offset).reshape(-1)
            flat[self._lin] += self._amplitudes[t]
            return self.masks.npts
        ids = self.masks.points_in_box(box)
        if ids.size == 0:  # the common case inside small tiles: nothing to do
            return 0
        flat = self.field.buffer(t + self.time_offset).reshape(-1)
        flat[self._lin.take(ids)] += self._amplitudes[t].take(ids)
        return ids.size

    def overhead_points(self) -> int:
        """Number of per-timestep extra updates the scheme performs."""
        return self.masks.npts


class AlignedReceiver(_Aligned):
    """Executable grid-aligned measurement over boxes.

    ``gather(t, box)`` stages field values of affected points in the box for
    timestep ``t + offset``; ``finalize(rows)`` reconstructs the receiver
    samples for completed timesteps and clears the staging storage.  With *c*
    both run in C: ``stage[id] = (double)u[p]``, then the weight matrix
    applied to the staging row.
    """

    def __init__(
        self, drec: DecomposedReceiver, field: TimeFunction, output: np.ndarray, c=None
    ):
        super().__init__(drec, field, c)
        self.drec = drec
        self.output = output  # (nt, npoint) receiver traces
        self._staging: Dict[int, np.ndarray] = {}
        self._stage_addr: Dict[int, int] = {}  # row -> staging address, for C
        self._reconstruct = c.reconstruction(drec.weights, output) if c is not None else None

    def _row(self, t: int) -> Optional[np.ndarray]:
        row = t + self.time_offset
        if not 0 <= row < self.output.shape[0]:
            return None
        if row not in self._staging:
            self._staging[row] = np.zeros(max(self.masks.npts, 1), dtype=np.float64)
            self._stage_addr[row] = self._staging[row].ctypes.data
        return self._staging[row]

    def gather(self, t: int, box: Optional[Box] = None) -> int:
        """Stage wavefield values at affected points (optionally box-local);
        returns the number of grid points staged."""
        if self.masks.npts == 0:
            return 0
        if self._c is not None:
            if self._row(t) is None:
                return 0
            row = t + self.time_offset
            return self._c.gather(row, box, self._stage_addr[row])
        if box is not None:
            ids = self.masks.points_in_box(box)
            if ids.size == 0:  # nothing of this receiver in the tile
                return 0
        stage = self._row(t)
        if stage is None:
            return 0
        flat = self.field.buffer(t + self.time_offset).reshape(-1)
        if box is None:
            stage[: self.masks.npts] = flat.take(self._lin)
            return self.masks.npts
        stage[ids] = flat.take(self._lin.take(ids))
        return ids.size

    def finalize(self, t: int) -> None:
        """Reconstruct receiver samples for iteration *t* (wavefield complete).

        Reconstruction stays in float64 — weights and staging precision
        matter for bit-identity with the raw off-grid path — and casts once
        to the trace dtype.  On the C rung ``aligned_reconstruct_*`` does it
        with the operations of ``weights.dot(stage)``: per receiver, from
        0.0, the row's entries added in stored order, so the two agree at 0
        ulp."""
        row = t + self.time_offset
        stage = self._staging.pop(row, None)
        address = self._stage_addr.pop(row, None)
        if stage is None:
            if 0 <= row < self.output.shape[0] and self.masks.npts == 0:
                self.output[row] = 0.0
            return
        if self._reconstruct is not None:
            self._reconstruct(row, address)
        else:
            self.output[row] = self.drec.weights.dot(stage[: max(self.masks.npts, 1)])

    def pending_rows(self):
        return sorted(self._staging)

    def restore_staging(self, staging: Dict[int, np.ndarray]) -> None:
        """Reopen a snapshot's staging rows: copies of *staging*, each with
        its own address for the C kernels."""
        self._staging = {row: np.array(stage) for row, stage in staging.items()}
        self._stage_addr = {row: stage.ctypes.data for row, stage in self._staging.items()}
