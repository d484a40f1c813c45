"""Grid-aligned sparse-operator executors — step 4 of the scheme (Listing 4/5).

After decomposition, source injection is a per-grid-point addition and
receiver measurement a per-grid-point gather; both operate on arbitrary
sub-boxes, which is precisely what makes them legal inside space-time tiles.

:class:`AlignedInjection` applies ``u[t+k, p] += src_dcmp[t, SID[p]]`` for the
affected points *p* of a box, visiting only the compressed non-zero structure
(the executable analogue of the fused ``z2`` loop of Listing 5).

:class:`AlignedReceiver` gathers the wavefield at the affected points of a
box into a per-timestep staging vector and reconstructs the off-the-grid
receiver traces with a sparse weight matrix once a timestep's wavefield is
complete (at time-tile boundaries).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.functions import TimeFunction
from ..dsl.interpolation import linear_index
from .decompose import DecomposedReceiver, DecomposedSource

__all__ = ["AlignedInjection", "AlignedReceiver"]

Box = Tuple[Tuple[int, int], ...]


class AlignedInjection:
    """Executable grid-aligned injection over boxes.

    Holds one linear index per affected point into the flat view of a padded
    time buffer and gathers a box's slice of it per call: memoising that per
    box costs more resident memory than the gather saves (DESIGN.md §2).

    *c* (a :class:`repro.ir.cgen.SparseKernels`, passed when the plan bound
    the C engine) replaces that body with the compiled Listing-5 loop over
    ``nnz`` / ``Sp_SID`` / ``SID``; same additions, same returned count.
    """

    def __init__(self, dsrc: DecomposedSource, field: TimeFunction, c=None):
        if field.name != dsrc.field_name:
            raise ValueError(
                f"decomposition targets field {dsrc.field_name!r}, got {field.name!r}"
            )
        self.dsrc = dsrc
        self.field = field
        self.masks = dsrc.masks
        self.time_offset = dsrc.time_offset
        self.nt = dsrc.data.shape[0]
        self._lin = linear_index(self.masks.points, field.halo, field.buffer(0))
        # convert the decomposed amplitudes to the field dtype once -- the hot
        # apply() path previously paid an astype per (t, box) instance
        self._amplitudes = np.ascontiguousarray(dsrc.data, dtype=field.dtype)
        self._c = c
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


class AlignedReceiver:
    """Executable grid-aligned measurement over boxes.

    ``gather(t, box)`` stages field values of affected points in the box for
    timestep ``t + offset``; ``finalize(rows)`` reconstructs the receiver
    samples for completed timesteps and clears the staging storage.  *c* as
    for :class:`AlignedInjection`: ``stage[SID[p]] = (double)u[p]`` in C.
    """

    def __init__(
        self, drec: DecomposedReceiver, field: TimeFunction, output: np.ndarray, c=None
    ):
        if field.name != drec.field_name:
            raise ValueError(
                f"decomposition targets field {drec.field_name!r}, got {field.name!r}"
            )
        self.drec = drec
        self.field = field
        self.masks = drec.masks
        self.time_offset = drec.time_offset
        self.output = output  # (nt, npoint) receiver traces
        self._lin = linear_index(self.masks.points, field.halo, field.buffer(0))
        self._staging: Dict[int, np.ndarray] = {}
        self._c = c
        self._stage_addr: Dict[int, int] = {}  # row -> staging address, for C

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
        """Reconstruct receiver samples for iteration *t* (wavefield complete)."""
        row = t + self.time_offset
        stage = self._staging.pop(row, None)
        self._stage_addr.pop(row, None)
        if stage is None:
            if 0 <= row < self.output.shape[0] and self.masks.npts == 0:
                self.output[row] = 0.0
            return
        # reconstruction stays in float64 (weights/staging precision matters
        # for bit-identity with the raw off-grid path); the assignment below
        # performs the single cast to the trace dtype
        self.output[row] = self.drec.weights.dot(stage[: max(self.masks.npts, 1)])

    def pending_rows(self):
        return sorted(self._staging)
