"""Data-dependence analysis for stencil update systems.

The wavefront temporal-blocking transformation is legal only if every flow
dependence points backwards along the skewed coordinate.  This module
extracts, from a list of symbolic update equations:

* the per-equation written access and read accesses,
* *sweeps* -- maximal groups of consecutive equations that may share one
  spatial traversal (no intra-group flow dependence of nonzero radius),
* each sweep's **read radius** (the largest spatial offset with which it reads
  any time-stepped field), which determines the extra wavefront *lag* the
  sweep contributes (Fig. 7/8 of the paper: the wavefront angle is the sum of
  the per-sweep radii, and steepens with the stencil radius),
  which :func:`repro.core.scheduler.instance_lags` accumulates into the lag
  table :func:`repro.core.scheduler.lower` skews the wavefront by.

The legality argument (checked per schedule by :mod:`repro.verify.prover`)
is: order the sweep *instances* of a time tile lexicographically by
(timestep, sweep); give instance ``i`` the lag
``L[i] = L[i-1] + read_radius(i)``.  Then for any instance ``A`` reading data
written by an earlier instance ``B``, ``L[A] - L[B] >= read_radius(A)``,
hence executing each instance on the window ``[X0 - L, X1 - L)`` of a tile
``[X0, X1)``, tiles ascending, never reads a point that has not yet been
written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..dsl.equation import Eq
from ..dsl.functions import TimeFunction
from ..dsl.symbols import Indexed

__all__ = [
    "Access",
    "Sweep",
    "access_of",
    "read_accesses",
    "written_access",
    "build_sweeps",
    "wavefront_angle",
]


@dataclass(frozen=True)
class Access:
    """One field access: function, time offset and per-dimension space offsets."""

    function: object
    time_offset: int
    space_offsets: Tuple[Tuple[str, int], ...]

    @property
    def radius(self) -> int:
        """Largest absolute spatial offset (Chebyshev radius)."""
        if not self.space_offsets:
            return 0
        return max(abs(s) for _, s in self.space_offsets)

    def radius_along(self, dim_name: str) -> int:
        for d, s in self.space_offsets:
            if d == dim_name:
                return abs(s)
        return 0


def access_of(indexed: Indexed) -> Access:
    """Reduce one :class:`Indexed` leaf to its :class:`Access`."""
    func = indexed.function
    offsets = indexed.offset_map()
    t_off = 0
    space = []
    for name, shift in offsets.items():
        if name == "t":
            t_off = shift
        else:
            space.append((name, shift))
    return Access(func, t_off, tuple(sorted(space)))


def written_access(eq: Eq) -> Access:
    return access_of(eq.lhs)


def read_accesses(eq: Eq) -> List[Access]:
    """The reads of *eq*, in one order whatever the hash seed (``key=str``,
    as :class:`~repro.execution.evalbox.BoundEq` sorts them)."""
    return [access_of(ix) for ix in sorted(eq.rhs.atoms(Indexed), key=str)]


@dataclass
class Sweep:
    """A group of equations sharing one spatial traversal of the grid.

    All equations in a sweep are evaluated, in order, for every point of a
    box before the executor moves to the next box.
    """

    eqs: List[Eq] = field(default_factory=list)

    @property
    def writes(self) -> List[Access]:
        return [written_access(e) for e in self.eqs]

    @property
    def written_keys(self) -> set:
        return {(w.function.name, w.time_offset) for w in self.writes}

    def time_reads(self) -> List[Access]:
        """Reads of time-stepped fields not produced inside this sweep."""
        produced = self.written_keys
        out = []
        for e in self.eqs:
            for a in read_accesses(e):
                if not isinstance(a.function, TimeFunction):
                    continue
                if (a.function.name, a.time_offset) in produced:
                    continue
                out.append(a)
        return out

    def read_radius(self) -> int:
        """Maximal spatial radius of external time-field reads: the lag this
        sweep adds to the wavefront."""
        return max((a.radius for a in self.time_reads()), default=0)

    def __repr__(self) -> str:
        names = ",".join(e.write_function.name for e in self.eqs)
        return f"Sweep([{names}], r={self.read_radius()})"


def _blocks_merge(candidate: Eq, sweep: Sweep) -> bool:
    """True if *candidate* cannot join *sweep*.

    Merging is illegal when the candidate reads, at nonzero spatial radius,
    a value written earlier in the same sweep (the read would cross the box
    boundary into not-yet-computed data).  Radius-0 intra-sweep reads are
    fine: equations run in order over each box.
    """
    produced = sweep.written_keys
    for a in read_accesses(candidate):
        key = (a.function.name, a.time_offset)
        if key in produced and a.radius > 0:
            return True
    # a sweep may write each (field, time) slot only once
    w = written_access(candidate)
    if (w.function.name, w.time_offset) in produced:
        return True
    return False


def build_sweeps(eqs: Sequence[Eq]) -> List[Sweep]:
    """Greedily group consecutive equations into sweeps (program order kept)."""
    sweeps: List[Sweep] = []
    for eq in eqs:
        if sweeps and not _blocks_merge(eq, sweeps[-1]):
            sweeps[-1].eqs.append(eq)
        else:
            sweeps.append(Sweep([eq]))
    return sweeps


def wavefront_angle(sweeps: Sequence[Sweep]) -> int:
    """Wavefront skew per timestep: the sum of the per-sweep read radii.

    For single-sweep kernels this is the stencil radius (Fig. 7); for the
    staggered/coupled kernels it is the sum over the sweeps (Fig. 8b).
    """
    return sum(s.read_radius() for s in sweeps)
