"""Grid-aligned sparse-operator executors — step 4 of the scheme (Listing 4/5).

After decomposition, source injection is a per-grid-point addition and
receiver measurement a per-grid-point gather; both operate on arbitrary
sub-boxes, which is precisely what makes them legal inside space-time tiles.

:class:`AlignedInjection` applies ``u[t+k, p] += src_dcmp[t, id(p)]`` for the
affected points *p* of a box, visiting only the compressed non-zero structure
(the executable analogue of the fused ``z2`` loop of Listing 5).

:class:`AlignedReceiver` gathers the wavefield at the affected points of a
box into a per-timestep staging row and reconstructs the off-the-grid
receiver traces with a sparse weight matrix once a timestep's wavefield is
complete (at time-tile boundaries).  On the C rung both run inside the
sweep that writes their field (:func:`repro.ir.cgen.emit_sweep`).
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from ..dsl.functions import TimeFunction
from ..dsl.interpolation import check_flat_view, linear_index
from .decompose import DecomposedReceiver, DecomposedSource

__all__ = ["AlignedInjection", "AlignedReceiver"]

Box = Tuple[Tuple[int, int], ...]


class _Aligned:
    """What both executors share: the target field (whose buffers must have
    a flat view, checked here, once), the masks, and the descriptor record
    with which a C sweep's Listing-5 epilogue replaces the Python body
    (:meth:`_record`) — same arithmetic, same counts."""

    def __init__(self, decomposed, field: TimeFunction):
        if field.name != decomposed.field_name:
            raise ValueError(
                f"decomposition targets field {decomposed.field_name!r}, got {field.name!r}"
            )
        check_flat_view(field.buffer(0))
        self.field = field
        self.masks = decomposed.masks
        self.time_offset = decomposed.time_offset

    @functools.cached_property
    def _lin(self) -> np.ndarray:
        """One linear index per affected point into the flat view of a padded
        time buffer, built when a Python body first needs it (the C epilogue
        never does).  A box's slice is gathered per call: memoising that per
        box costs more resident memory than the gather saves (DESIGN.md §2)."""
        return linear_index(self.masks.points, self.field.halo, self.field.buffer(0))

    def _record(self, rows: np.ndarray, toff: int, nrows: int) -> list:
        """This operator's :data:`repro.ir.cgen.SPARSE_RECORD`: at timestep
        ``t`` its row is ``t + toff`` of *rows*, skipped unless in
        ``[0, nrows)``."""
        tables = [a.ctypes.data for a in self.masks.c_tables] + [self.masks.max_nnz]
        return tables + [rows.ctypes.data, rows.strides[0], toff, nrows, rows.shape[0]]


class AlignedInjection(_Aligned):
    """Executable grid-aligned injection over boxes."""

    def __init__(self, dsrc: DecomposedSource, field: TimeFunction):
        super().__init__(dsrc, field)
        self.dsrc = dsrc
        self.nt = dsrc.data.shape[0]
        # convert the decomposed amplitudes to the field dtype once -- the hot
        # apply() path previously paid an astype per (t, box) instance
        self._amplitudes = np.ascontiguousarray(dsrc.data, dtype=field.dtype)

    def c_record(self) -> list:
        return self._record(self._amplitudes, 0, self.nt)

    def apply(self, t: int, box: Optional[Box] = None) -> int:
        """Add timestep *t*'s decomposed amplitudes into ``field[t + offset]``;
        returns the number of grid points injected.

        With *box* given, only affected points inside the (half-open) box are
        injected — the form used inside space-time tiles.
        """
        if not 0 <= t < self.nt or self.masks.npts == 0:
            return 0
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
    timestep ``t + offset`` into a ring of rows (one per timestep of a time
    tile, :meth:`reserve`; the boxes gathering one timestep partition the
    grid, so a slot is rewritten whole before it is read again);
    ``finalize(t)`` reconstructs that row's receiver samples, with
    ``aligned_reconstruct_*`` when *c* (the plan bound the C rung).
    """

    def __init__(
        self, drec: DecomposedReceiver, field: TimeFunction, output: np.ndarray, c: bool = False
    ):
        super().__init__(drec, field)
        self.drec = drec
        self.output = output  # (nt, npoint) receiver traces
        self._ring = np.zeros((1, max(self.masks.npts, 1)), dtype=np.float64)
        from ..ir.cgen import reconstruction

        self._reconstruct = reconstruction(drec.weights, output) if c else None

    def reserve(self, height: int) -> None:
        """Stage *height* rows (a time tile's) at once, and one after a
        finished run: a plan kept alive then holds no staged memory."""
        if height != self._ring.shape[0]:
            self._ring = np.zeros((height, self._ring.shape[1]), dtype=np.float64)

    def c_record(self) -> list:
        return self._record(self._ring, self.time_offset, self.output.shape[0])

    def gather(self, t: int, box: Optional[Box] = None) -> int:
        """Stage wavefield values at affected points (optionally box-local);
        returns the number of grid points staged."""
        if self.masks.npts == 0:
            return 0
        if box is not None:
            ids = self.masks.points_in_box(box)
            if ids.size == 0:  # nothing of this receiver in the tile
                return 0
        row = t + self.time_offset
        if not 0 <= row < self.output.shape[0]:
            return 0
        stage = self._ring[row % self._ring.shape[0]]
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
        if not 0 <= row < self.output.shape[0]:
            return
        if self.masks.npts == 0:
            self.output[row] = 0.0
            return
        stage = self._ring[row % self._ring.shape[0]]
        if self._reconstruct is not None:
            self._reconstruct(row, stage.ctypes.data)
        else:
            self.output[row] = self.drec.weights.dot(stage)
