"""Machine-checkable legality certificates and concrete counterexamples.

A :class:`LegalityCertificate` is the prover's positive verdict: for every
dependence edge of the operator it records the per-edge legality inequality —
required lag gap (from the distance vector) vs available lag gap (from the
schedule's cumulative-lag table) — together with the schedule geometry the
inequalities were evaluated under.  :meth:`LegalityCertificate.check`
re-evaluates every inequality from the recorded data alone, without the
operator that produced it; :meth:`to_dict` is the record the verify CLI
prints.

A :class:`Counterexample` is the negative verdict: two conflicting statement
instances, each named ``(t, tile, point)``, plus the dependence they violate.
The shadow-memory oracle (:mod:`repro.verify.oracle`) replays counterexamples
on small grids to confirm they manifest as real races.

A :class:`BoundsCertificate` is the halo analysis' peer verdict
(:mod:`repro.verify.absint.bounds`): per (access, dimension) the two integer
margins ``halo ± offset``, both non-negative iff the access stays inside its
field's padded storage under every schedule.  The negative verdict is a
:class:`BoundsCounterexample`: one concrete ``(t, tile, index)`` instance
whose access escapes the padded buffer.

:class:`Diagnostic` is the one finding record of every lint-style analysis
(equation checks, scratch liveness, slot dtypes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Diagnostic",
    "InstanceRef",
    "Counterexample",
    "CheckedDependence",
    "LegalityCertificate",
    "CheckedBound",
    "BoundsCounterexample",
    "BoundsCertificate",
    "CheckedGrowth",
    "GrowthCertificate",
]

Box = Tuple[Tuple[int, int], ...]


def _plain(value):
    """*value* as JSON data: a record as its dict, tuples as lists, a
    mapping's keys sorted."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return dict(sorted(value.items())) if isinstance(value, dict) else value


class Record:
    """:meth:`to_dict` of the dataclass records below, the record the verify
    CLI prints: every field as JSON data, then each ``_derived`` key with the
    attribute it names (called when it is a method)."""

    _derived: Dict[str, str] = {}

    def to_dict(self) -> dict:
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        for key, name in self._derived.items():
            value = getattr(self, name)
            out[key] = value() if callable(value) else value
        return out


@dataclass(frozen=True)
class Diagnostic(Record):
    """One finding of a static analysis."""

    code: str  # "E101", "W302", ...
    severity: str  # "error" | "warning"
    message: str
    sweep: Optional[int] = None
    statement: Optional[str] = None
    field: Optional[str] = None


    def render(self) -> str:
        where = f"sweep {self.sweep}: " if self.sweep is not None else ""
        return f"{self.code} [{self.severity}] {where}{self.message}"


@dataclass(frozen=True)
class InstanceRef(Record):
    """One statement instance: timestep, space(-time) tile, grid point."""

    t: int
    sweep: int
    tile: Box
    point: Tuple[int, ...]
    role: str = "stencil"

    def describe(self) -> str:
        tile = "x".join(f"[{lo},{hi})" for lo, hi in self.tile)
        return (
            f"{self.role} instance (t={self.t}, sweep={self.sweep}, "
            f"tile={tile}, point={self.point})"
        )



@dataclass(frozen=True)
class Counterexample(Record):
    """Two conflicting instances violating a dependence under a schedule.

    ``first`` executes before ``second`` under the *schedule*, but sequential
    semantics requires the opposite order (or an ordering the schedule cannot
    provide).  ``manifest`` states whether the conflict is realisable with
    the operator's actual source/tile geometry — when the prover rejects a
    schedule *class* (e.g. off-the-grid injection under wavefront blocking)
    but the concrete source placement happens to dodge every tile boundary,
    it still emits the nearest would-be conflict with ``manifest=False``.
    """

    kind: str  # dependence kind violated: "flow" | "anti" | "output"
    field: str
    first: InstanceRef
    second: InstanceRef
    reason: str
    manifest: bool = True

    def describe(self) -> str:
        return (
            f"{self.kind} violation on field {self.field!r}: "
            f"{self.first.describe()} conflicts with {self.second.describe()} "
            f"— {self.reason}"
        )



@dataclass(frozen=True)
class CheckedDependence(Record):
    """One dependence edge with its legality inequality evaluated.

    ``required <= available`` is the edge's legality condition; ``cross_tile``
    marks edges whose instances always fall in different time tiles (a full
    barrier separates them, so the inequality is vacuous).
    """

    kind: str
    function: str
    source: Tuple[int, int, str]  # (sweep, stmt index, role)
    sink: Tuple[int, int, str]
    time_distance: int
    distance: Tuple[Tuple[str, int], ...]
    required: int
    available: int
    cross_tile: bool = False
    affine: bool = True
    _derived = {"satisfied": "satisfied"}

    @property
    def satisfied(self) -> bool:
        if self.time_distance < 0:
            return False
        if not self.affine:
            return False
        return self.cross_tile or self.available >= self.required

    def to_dict(self) -> dict:
        return {**super().to_dict(), "distance": dict(self.distance)}



@dataclass
class LegalityCertificate(Record):
    """The prover's positive verdict for (operator, schedule, sparse mode)."""

    operator: str
    schedule: Dict  # Schedule.describe()
    sparse_mode: str
    dims: Tuple[str, ...]
    skewed_dims: Tuple[str, ...]
    sweep_radii: Tuple[int, ...]
    wavefront_angle: int
    lags: Tuple[int, ...]  # per-instance cumulative lags of one time tile
    dependences: Tuple[CheckedDependence, ...] = ()
    _derived = {"max_distance": "max_distance", "tile_skew": "tile_skew", "legal": "check"}

    @property
    def max_distance(self) -> Dict[str, int]:
        """Componentwise maximum absolute distance vector over all edges
        (``"t"`` plus each spatial dimension)."""
        out = {"t": 0}
        for d in self.dims:
            out[d] = 0
        for dep in self.dependences:
            out["t"] = max(out["t"], abs(dep.time_distance))
            for dim, s in dep.distance:
                out[dim] = max(out.get(dim, 0), abs(s))
        return out

    @property
    def tile_skew(self) -> int:
        """Total skew across one time tile (lag of the last instance)."""
        return self.lags[-1] if self.lags else 0

    def check(self) -> bool:
        """Re-evaluate every recorded legality inequality."""
        return all(dep.satisfied for dep in self.dependences)

    def violations(self) -> List[CheckedDependence]:
        return [dep for dep in self.dependences if not dep.satisfied]


    def summary(self) -> str:
        md = self.max_distance
        dist = ", ".join(f"{k}={v}" for k, v in md.items())
        return (
            f"LegalityCertificate({self.operator}, "
            f"schedule={self.schedule.get('kind')}, sparse={self.sparse_mode}, "
            f"angle={self.wavefront_angle}, skew={self.tile_skew}, "
            f"edges={len(self.dependences)}, max_distance=({dist}), "
            f"legal={self.check()})"
        )

    __repr__ = summary


# -- halo (bounds) certificates ----------------------------------------------------


@dataclass(frozen=True)
class CheckedBound(Record):
    """One access along one dimension with its two halo margins.

    Every executor clips each box to the interior ``[0, N)`` and skips empty
    ones, so an access at *offset* into a field padded by *halo* touches
    padded-buffer indices ``[halo + lo + offset, halo + hi + offset)`` with
    ``[lo, hi) ⊆ [0, N)``; that stays inside the padded extent ``N + 2*halo``
    for every extent, tile shape, height and lag iff

    * ``margin_lo = halo + offset >= 0`` (lower padded edge), and
    * ``margin_hi = halo - offset >= 0`` (upper padded edge).
    """

    sweep: int
    statement: str
    function: str
    role: str  # "read" | "write"
    dim: str
    offset: int
    halo: int
    margin_lo: int
    margin_hi: int
    _derived = {"satisfied": "satisfied"}

    @property
    def satisfied(self) -> bool:
        return self.margin_lo >= 0 and self.margin_hi >= 0



@dataclass(frozen=True)
class BoundsCounterexample(Record):
    """A concrete out-of-bounds instance: (t, tile, index).

    ``index`` is the padded-buffer index the access resolves to at
    ``instance.point`` — provably outside ``[0, extent)`` along ``dim``.
    NumPy note: a negative index *wraps silently* (reading the wrong end of
    the buffer, no exception), an index past the end clips the view and
    surfaces as a shape-mismatch error — and a native backend would
    segfault; either way execution is wrong on every engine and schedule,
    which is why ``Operator.apply`` rejects before any timestep runs.
    """

    instance: InstanceRef
    function: str
    dim: str
    offset: int
    halo: int
    index: Tuple[int, ...]
    extent: Tuple[int, ...]
    reason: str

    def describe(self) -> str:
        return (
            f"out-of-bounds access on field {self.function!r}: "
            f"{self.instance.describe()} reads offset {self.offset:+d} along "
            f"{self.dim} (halo {self.halo}) at padded-buffer index "
            f"{list(self.index)} outside extent {list(self.extent)} — "
            f"{self.reason}"
        )



@dataclass(frozen=True)
class CheckedGrowth(Record):
    """One written field's per-step amplitude amplification bound.

    The interval ``[lo, hi]`` is the image of the field's update expression
    under interval arithmetic with every wavefield read set to
    the unit interval ``[-1, 1]`` and every model read set to its actual
    data range (see :mod:`repro.verify.absint.growth`).  By linearity of the
    update in the wavefields, ``gain = max(|lo|, |hi|)`` bounds the factor
    by which one timestep can amplify the state's max-norm.  An infinite
    gain (e.g. a division whose abstract denominator straddles zero) marks
    the check unsatisfied — the certificate then cannot support a runtime
    amplitude invariant and the ABFT guard degrades to checksum-only mode.
    """

    sweep: int
    field: str
    lo: float
    hi: float
    _derived = {"gain": "gain", "satisfied": "satisfied"}

    @property
    def gain(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    @property
    def satisfied(self) -> bool:
        return math.isfinite(self.gain)



@dataclass
class GrowthCertificate(Record):
    """The growth analysis' verdict: per-step amplitude amplification bounds.

    The peer of :class:`BoundsCertificate` for the ABFT amplitude invariant
    (:mod:`repro.runtime.abft`): ``checks`` holds one :class:`CheckedGrowth`
    per written field of every sweep, and :attr:`step_gain` — the product of
    the per-sweep worst-case gains, clamped at 1 — bounds how much one full
    timestep can amplify the state's max-norm.  The runtime invariant
    ``|u|_exit <= slack * (G**h * |u|_entry + source energy)`` over a time
    tile of height *h* follows by induction; a finite-valued bit flip that
    rewrites an exponent field violates it by many orders of magnitude.
    Like its peers, the certificate re-verifies from its own recorded data
    after a serialisation round-trip.
    """

    operator: str
    dt: float
    checks: Tuple[CheckedGrowth, ...] = ()
    _derived = {"step_gain": "step_gain", "bounded": "check"}

    @property
    def sweep_gains(self) -> Dict[int, float]:
        """Worst-case gain per sweep, clamped at 1 (a sweep that leaves a
        field untouched is the identity on it)."""
        gains: Dict[int, float] = {}
        for c in self.checks:
            gains[c.sweep] = max(gains.get(c.sweep, 1.0), c.gain)
        return gains

    @property
    def step_gain(self) -> float:
        """Amplification bound of one full timestep (all sweeps in order)."""
        g = 1.0
        for gain in self.sweep_gains.values():
            g *= gain
        return max(g, 1.0)

    def gain(self, height: int) -> float:
        """Amplification bound across a time tile of *height* steps."""
        return self.step_gain ** max(int(height), 1)

    def check(self) -> bool:
        return all(c.satisfied for c in self.checks) and math.isfinite(self.step_gain)

    def violations(self) -> List[CheckedGrowth]:
        return [c for c in self.checks if not c.satisfied]


    def summary(self) -> str:
        return (
            f"GrowthCertificate({self.operator}, dt={self.dt:g}, "
            f"checks={len(self.checks)}, step_gain={self.step_gain:.4g}, "
            f"bounded={self.check()})"
        )

    __repr__ = summary


@dataclass
class BoundsCertificate(Record):
    """The halo analysis' verdict for one operator, valid under every
    schedule and engine (the margins do not depend on either).

    ``checks`` holds one :class:`CheckedBound` per (access, dimension).  Like
    :class:`LegalityCertificate`, the certificate re-verifies from its own
    recorded data (:meth:`check`) after a serialisation round-trip.
    """

    operator: str
    dims: Tuple[str, ...]
    halos: Dict[str, int]
    checks: Tuple[CheckedBound, ...] = ()
    counterexample: Optional[BoundsCounterexample] = None
    _derived = {"min_margin": "min_margin", "safe": "check"}

    def check(self) -> bool:
        return self.counterexample is None and all(c.satisfied for c in self.checks)

    def violations(self) -> List[CheckedBound]:
        return [c for c in self.checks if not c.satisfied]

    @property
    def min_margin(self) -> Optional[int]:
        """The tightest halo margin over all checks (0 means some access
        touches the outermost halo layer — still safe, no slack)."""
        margins = [min(c.margin_lo, c.margin_hi) for c in self.checks]
        return min(margins) if margins else None


    def summary(self) -> str:
        return (
            f"BoundsCertificate({self.operator}, "
            f"checks={len(self.checks)}, min_margin={self.min_margin}, "
            f"safe={self.check()})"
        )

    __repr__ = summary
