"""Sparse-operator mask structures — steps 2 and 5 of the scheme (Fig. 5/6).

From the affected-point set we build:

* ``points`` — the affected grid points in sorted (C-order key) order.  An
  affected point's id is its row here: this is the paper's source mask
  ``SM`` and source-ID map ``SID`` (Fig. 5b/5c) without a grid-sized array;
* ``nnz`` / ``sp_sid`` — the compressed iteration structures of Listing 5 /
  Fig. 6: for each ``(x, y)`` pencil, ``nnz[x, y]`` counts the affected ``z``
  positions and ``sp_sid[x, y, k]`` (k < nnz) stores them, so the fused
  injection loop visits only affected slots instead of scanning all of ``z``.
  Both follow the id order, so slot ``k`` of pencil ``p`` is the point with
  id ``start[p] + k``, ``start`` being the prefix sum of ``nnz``.

3-D is the primary layout (compression along ``z``); 1-D/2-D grids compress
along their innermost dimension for the same effect.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.functions import SparseTimeFunction
from ..dsl.grid import Grid
from .precompute import affected_keys, key_points, support_keys

__all__ = ["SourceMasks", "build_masks"]


@dataclass
class SourceMasks:
    """The grid-aligned sparse-operator data structures of §II-A."""

    grid: Grid
    #: unique affected grid points, canonical (lexicographic) order, (npts, ndim);
    #: a point's id is its row
    points: np.ndarray
    #: per-pencil count of affected innermost positions, int32, shape grid.shape[:-1]
    nnz: np.ndarray
    #: compacted innermost indices, int32, shape grid.shape[:-1] + (max_nnz,)
    sp_sid: np.ndarray
    #: the support every decomposition reads, both (npoint, 2^ndim): per
    #: corner its multilinear weight and the id of its grid point — ``npts``
    #: (a dummy slot) for a zero-weight corner no source affects
    weights: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    corner_ids: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: leading-dim bucket index: ``_starts[x] .. _starts[x+1]`` is the id range
    #: of points with leading coordinate ``x`` (built lazily; points are in
    #: canonical lexicographic order so ids within a slab are contiguous)
    _starts: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    #: memoised per-box id lookups (box geometry repeats across time tiles)
    _box_cache: Dict[Tuple, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)
    #: instrumentation: queries served and candidate points actually scanned
    #: (versus ``queries * npts`` for the brute-force scan); cache hits listed
    #: separately so op-count tests can reason about cold lookups
    stats: Dict[str, int] = field(default_factory=lambda: {"queries": 0, "scanned": 0, "cache_hits": 0}, init=False, repr=False, compare=False)

    @property
    def npts(self) -> int:
        return int(self.points.shape[0])

    @property
    def max_nnz(self) -> int:
        return int(self.sp_sid.shape[-1])

    def density(self) -> float:
        """Fraction of grid points affected — drives the Fig. 10 corner cases."""
        return self.npts / float(self.grid.npoints)

    def pencil_occupancy(self) -> float:
        """Fraction of innermost pencils containing at least one affected point.

        This is what the Listing-5 compression exploits: the fused ``z2`` loop
        body is skipped entirely for the ``1 - occupancy`` empty pencils.
        """
        return float(np.count_nonzero(self.nnz)) / float(self.nnz.size)

    @functools.cached_property
    def c_tables(self) -> tuple:
        """What the C sweep epilogue reads, C-contiguous: ``nnz``, ``sp_sid``
        (int32) and ``start`` (int64: the prefix sum of ``nnz``, each pencil's
        id of slot 0)."""
        start = np.concatenate(([0], np.cumsum(self.nnz, dtype=np.int64)))
        return (*(np.ascontiguousarray(a, np.int32) for a in (self.nnz, self.sp_sid)), start)

    def memory_bytes(self) -> int:
        """Footprint of the auxiliary structures (scheme overhead accounting)."""
        return int(self.nnz.nbytes + self.sp_sid.nbytes)

    # -- box queries used by the blocked executors --------------------------------
    def _leading_starts(self) -> np.ndarray:
        """Bucket boundaries of the leading coordinate (lazy, O(npts log n))."""
        if self._starts is None:
            lead = self.points[:, 0] if self.npts else np.empty(0, dtype=np.int64)
            # canonical order makes `lead` non-decreasing; guaranteed by
            # build_masks, asserted cheaply here so a future regression cannot
            # silently return wrong ids
            if lead.size and np.any(np.diff(lead) < 0):
                raise AssertionError("SourceMasks.points lost canonical order")
            n0 = int(self.grid.shape[0])
            self._starts = np.searchsorted(lead, np.arange(n0 + 1))
        return self._starts

    def points_in_box(self, box: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """Ids of affected points inside a half-open box ``((lo, hi), ...)``.

        Uses the bucketed leading-dimension index: two ``searchsorted``
        lookups select the candidate slab, and only those candidates are
        filtered on the trailing dimensions — O(candidates), not O(npts),
        per query (the executable analogue of the Listing-5 compression).
        Results are memoised per box; tile geometry repeats every time tile.
        """
        self.stats["queries"] += 1
        # probe with the raw box first: int-valued tuples hash equal to
        # their canonical form, so repeated hot-loop queries skip the
        # per-element int() conversion below entirely
        hit = self._box_cache.get(box)
        if hit is None:
            box = tuple((int(lo), int(hi)) for lo, hi in box)
            hit = self._box_cache.get(box)
        if hit is not None:
            self.stats["cache_hits"] += 1
            return hit
        starts = self._leading_starts()
        n0 = int(self.grid.shape[0])
        lo0 = min(max(box[0][0], 0), n0)
        hi0 = min(max(box[0][1], lo0), n0)
        a, b = int(starts[lo0]), int(starts[hi0])
        self.stats["scanned"] += b - a
        sel = np.ones(b - a, dtype=bool)
        for d, (lo, hi) in enumerate(box[1:], start=1):
            col = self.points[a:b, d]
            sel &= (col >= lo) & (col < hi)
        ids = a + np.flatnonzero(sel)
        if len(self._box_cache) >= 4096:  # safety valve
            self._box_cache.clear()
        self._box_cache[box] = ids
        return ids

    def _points_in_box_scan(self, box: Tuple[Tuple[int, int], ...]) -> np.ndarray:
        """Brute-force boolean scan over all points (reference for tests)."""
        sel = np.ones(self.npts, dtype=bool)
        for d, (lo, hi) in enumerate(box):
            sel &= (self.points[:, d] >= lo) & (self.points[:, d] < hi)
        return np.flatnonzero(sel)


def build_masks(sparse: SparseTimeFunction) -> SourceMasks:
    """Build all mask structures for a sparse point set (Fig. 5b/5c + Fig. 6)."""
    grid = sparse.grid
    keys, weights = support_keys(sparse)
    point_keys = affected_keys(sparse, keys, weights)
    npts = point_keys.size

    # the corner ids come from a transient map holding id + 1 (0: unaffected);
    # np.zeros is calloc-backed, so only the pages that hold a corner are
    # touched, and the map is dropped before this returns
    id_map = np.zeros(grid.npoints, dtype=np.int32)
    id_map[point_keys] = np.arange(1, npts + 1, dtype=np.int32)
    corner_ids = id_map.take(keys) - 1
    del id_map
    unaffected = corner_ids < 0
    if np.any(unaffected & (np.abs(weights) > 0)):
        raise RuntimeError("affected-point discovery missed a nonzero-weight support point")
    corner_ids[unaffected] = npts

    # compress along the innermost dimension (z for 3-D grids): keys are
    # sorted, so a pencil's points are consecutive and a point's slot is its
    # id minus the id of its pencil's first point
    pencils, zs = np.divmod(point_keys, grid.shape[-1])
    counts = np.bincount(pencils, minlength=grid.npoints // grid.shape[-1])
    nnz = counts.reshape(grid.shape[:-1]).astype(np.int32)
    sp_sid = np.full(grid.shape[:-1] + (max(int(counts.max()), 1),), -1, dtype=np.int32)
    slots = np.arange(npts) - (np.cumsum(counts) - counts)[pencils]
    sp_sid.reshape(-1, sp_sid.shape[-1])[pencils, slots] = zs

    return SourceMasks(
        grid=grid,
        points=key_points(grid, point_keys),
        nnz=nnz,
        sp_sid=sp_sid,
        weights=weights,
        corner_ids=corner_ids,
    )
