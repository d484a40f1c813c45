"""Statement-level dependence analysis with per-dimension distance vectors.

This supersedes the radius-only summary of :mod:`repro.ir.dependencies`: every
statement of an operator — stencil equations, injection nests and
interpolation nests — is reduced to explicit read/write :class:`AccessInfo`
sets, and all
pairwise flow / anti / output dependences between statements are enumerated
with their per-dimension distance vectors.

Conventions
-----------
* A statement *instance* is (timestep ``t``, iteration point ``x``).  The
  stencil statement writing ``u[t+1, x]`` and reading ``u[t, x+d]`` yields a
  **flow** dependence with ``time_distance = 1`` and spatial component ``d``:
  the reader at iteration point ``x`` consumes the value produced by the
  writer's instance at iteration point ``x + d`` of ``time_distance`` steps
  earlier.
* **Anti** dependences are circular-buffer slot reuse: the writer of
  ``(f, t+w)`` overwrites the buffer slot that held ``(f, t+w-b)`` (``b`` time
  buffers), which an earlier instance may still need to read.
* **Output** dependences are two writes to the same buffer slot (same
  ``(field, time)`` within a step, or slot reuse ``b`` steps apart).

Sparse operators contribute accesses with ``kind="sparse"``: grid-aligned
(precomputed) injection/measurement is pointwise over the affected-point set
and behaves like a radius-0 access; raw off-the-grid operators have a
non-affine footprint (``affine=False``) — their support corners are not a
function of the iteration point — which is exactly what the wavefront
legality prover must reject (paper Fig. 4b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dsl.functions import Injection, Interpolation, TimeFunction
from ..dsl.symbols import Indexed
from ..ir.dependencies import Sweep, access_of

__all__ = [
    "AccessInfo",
    "Statement",
    "Dependence",
    "classify_indexed",
    "statements_for",
    "compute_dependences",
]


@dataclass(frozen=True)
class AccessInfo:
    """One access of a statement: field, time offset, spatial offsets."""

    function: str
    kind: str = "grid"  # "grid" | "sparse"
    is_time: bool = False  # accesses a circular time buffer
    time_offset: int = 0
    offsets: Tuple[Tuple[str, int], ...] = ()  # spatial (dim, shift) pairs
    affine: bool = True  # False: off-the-grid footprint (not a fn of x)

    @property
    def radius(self) -> int:
        if not self.offsets:
            return 0
        return max(abs(s) for _, s in self.offsets)

    def offset_along(self, dim: str) -> int:
        for d, s in self.offsets:
            if d == dim:
                return s
        return 0


@dataclass(frozen=True)
class Statement:
    """One statement in program order: role, position, read/write sets."""

    sweep: int  # owning sweep index
    index: int  # statement index within the sweep
    role: str  # "stencil" | "injection" | "interpolation"
    text: str
    writes: Tuple[AccessInfo, ...]
    reads: Tuple[AccessInfo, ...]

    @property
    def position(self) -> Tuple[int, int]:
        return (self.sweep, self.index)

    def describe(self) -> str:
        return f"sweep {self.sweep} stmt {self.index} ({self.role}): {self.text}"


@dataclass(frozen=True)
class Dependence:
    """A dependence edge between two statements.

    ``source`` executes first in sequential (reference) order; ``sink``
    second.  ``time_distance`` is the number of timesteps separating the two
    instances (>= 0 for any causally executable system).  ``distance`` holds
    the spatial components: for a flow dependence these are the sink's read
    offsets ``d`` (the sink at point ``x`` consumes data produced at
    ``x + d``); for anti/output dependences they relate the conflicting slot
    accesses the same way.
    """

    kind: str  # "flow" | "anti" | "output"
    source: Statement
    sink: Statement
    function: str
    time_distance: int
    distance: Tuple[Tuple[str, int], ...]
    affine: bool = True

    def distance_along(self, dim: str) -> int:
        for d, s in self.distance:
            if d == dim:
                return s
        return 0

    @property
    def max_abs_distance(self) -> int:
        if not self.distance:
            return 0
        return max(abs(s) for _, s in self.distance)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "source": [self.source.sweep, self.source.index, self.source.role],
            "sink": [self.sink.sweep, self.sink.index, self.sink.role],
            "function": self.function,
            "time_distance": self.time_distance,
            "distance": {d: s for d, s in self.distance},
            "affine": self.affine,
        }


def classify_indexed(indexed: Indexed) -> AccessInfo:
    """Reduce one :class:`Indexed` leaf to an :class:`AccessInfo`."""
    access = access_of(indexed)
    return AccessInfo(
        function=access.function.name,
        kind="grid",
        is_time=isinstance(access.function, TimeFunction),
        time_offset=access.time_offset,
        offsets=access.space_offsets,
    )


def _sparse_access(field_fn, time_offset: int, affine: bool) -> AccessInfo:
    return AccessInfo(
        function=field_fn.name,
        kind="sparse",
        is_time=isinstance(field_fn, TimeFunction),
        time_offset=int(time_offset),
        offsets=(),
        affine=affine,
    )


def statements_for(
    sweeps: Sequence[Sweep],
    injections: Sequence[Injection] = (),
    interpolations: Sequence[Interpolation] = (),
    sweep_of: Optional[Dict[object, int]] = None,
    aligned: bool = True,
) -> List[Statement]:
    """Program-order statement list of an operator.

    *sweep_of* maps sparse operator (the object) -> sweep index (as computed by
    :meth:`repro.ir.operator.Operator._sweep_index_for`); without it sparse
    statements attach to the sweep writing/reading their field's time slot,
    falling back to the last sweep.  *aligned* states whether the sparse
    operators run in their precomputed grid-aligned form (affine, pointwise
    over the affected-point set) or raw off-the-grid (non-affine footprint).
    """
    stmts: List[Statement] = []
    counters = [0] * len(sweeps)
    for j, sweep in enumerate(sweeps):
        for eq in sweep.eqs:
            writes = (classify_indexed(eq.lhs),)
            reads = tuple(
                classify_indexed(ix) for ix in sorted(eq.rhs.atoms(Indexed), key=str)
            )
            stmts.append(
                Statement(j, counters[j], "stencil", str(eq), writes, reads)
            )
            counters[j] += 1

    def _sweep_for(op) -> int:
        if sweep_of is not None and op in sweep_of:
            return sweep_of[op]
        key = (op.field.name, op.time_offset)
        for j, sweep in enumerate(sweeps):
            if key in sweep.written_keys:
                return j
        return len(sweeps) - 1

    for inj in injections:
        j = _sweep_for(inj)
        acc = _sparse_access(inj.field, inj.time_offset, affine=aligned)
        stmts.append(
            Statement(
                j,
                counters[j],
                "injection",
                f"{inj.field.name}[t+{inj.time_offset}, p] += "
                f"{'src_dcmp[t, id(p)]' if aligned else 'w(p)*src[t]'}",
                (acc,),
                (),
            )
        )
        counters[j] += 1
    for itp in interpolations:
        j = _sweep_for(itp)
        acc = _sparse_access(itp.field, itp.time_offset, affine=aligned)
        stmts.append(
            Statement(
                j,
                counters[j],
                "interpolation",
                f"rec[t+{itp.time_offset}] <- {itp.field.name}"
                f"[t+{itp.time_offset}, {'p' if aligned else 'w(p)'}]",
                (),
                (acc,),
            )
        )
        counters[j] += 1
    return stmts


def compute_dependences(
    stmts: Sequence[Statement],
    buffers: Dict[str, int],
) -> List[Dependence]:
    """All flow/anti/output dependences between *stmts*.

    *buffers* maps field name -> number of circular time buffers (used for
    the slot-reuse anti/output dependences).  Kernel scratch slots never
    appear here: they are private to one (t, box) instance and their hazards
    are the linter's domain, not schedule legality.
    """
    deps: List[Dependence] = []
    writes = [(st, a) for st in stmts for a in st.writes]
    reads = [(st, a) for st in stmts for a in st.reads]

    def order(a: Statement, b: Statement) -> int:
        """-1: a before b in sequential same-timestep order, +1 after, 0 same."""
        if a.position < b.position:
            return -1
        if a.position > b.position:
            return 1
        return 0

    # flow: write (f, tw) -> read (f, tr); instances meet at time distance
    # k = tw - tr (the read executes k steps after the write)
    for w_st, w in writes:
        for r_st, r in reads:
            if w.function != r.function:
                continue
            k = w.time_offset - r.time_offset
            if k < 0:
                continue  # the write never precedes this read: not a flow dep
            if k == 0 and order(w_st, r_st) >= 0:
                continue  # same timestep but the read comes first (or self)
            deps.append(
                Dependence(
                    kind="flow",
                    source=w_st,
                    sink=r_st,
                    function=w.function,
                    time_distance=k,
                    distance=r.offsets,
                    affine=w.affine and r.affine,
                )
            )
    # future reads: a read of (f, tr) with tr > every write offset available
    # at its own timestep and no earlier producer — expressed as a flow dep
    # with negative time distance so the prover can reject it with an edge
    for w_st, w in writes:
        for r_st, r in reads:
            if w.function != r.function:
                continue
            k = w.time_offset - r.time_offset
            if k < 0 or (k == 0 and order(w_st, r_st) > 0):
                deps.append(
                    Dependence(
                        kind="flow",
                        source=w_st,
                        sink=r_st,
                        function=w.function,
                        time_distance=k if k < 0 else 0,
                        distance=r.offsets,
                        affine=w.affine and r.affine,
                    )
                )

    # anti: read (f, tr) -> later write (f, tw) overwriting the same slot;
    # tightest reuse is one buffer cycle: time distance k = tr - tw + b
    for r_st, r in reads:
        if not r.is_time:
            continue
        b = buffers.get(r.function, 1)
        for w_st, w in writes:
            if w.function != r.function or not w.is_time:
                continue
            k = r.time_offset - w.time_offset + b
            if k < 0 or (k == 0 and order(r_st, w_st) >= 0):
                continue
            deps.append(
                Dependence(
                    kind="anti",
                    source=r_st,
                    sink=w_st,
                    function=r.function,
                    time_distance=k,
                    distance=r.offsets,
                    affine=w.affine and r.affine,
                )
            )
    # output: two writes to the same slot.  Same (f, t_off): program order
    # decides; one buffer cycle apart: time distance b.
    for i, (a_st, a) in enumerate(writes):
        for b_st, bacc in writes[i:]:
            if a.function != bacc.function:
                continue
            if a.time_offset == bacc.time_offset:
                if a_st.position == b_st.position:
                    continue
                first, second = (
                    (a_st, b_st) if order(a_st, b_st) < 0 else (b_st, a_st)
                )
                deps.append(
                    Dependence(
                        kind="output",
                        source=first,
                        sink=second,
                        function=a.function,
                        time_distance=0,
                        distance=(),
                        affine=a.affine and bacc.affine,
                    )
                )
            elif a.is_time and bacc.is_time:
                b = buffers.get(a.function, 1)
                if abs(a.time_offset - bacc.time_offset) % b == 0:
                    deps.append(
                        Dependence(
                            kind="output",
                            source=a_st,
                            sink=b_st,
                            function=a.function,
                            time_distance=b,
                            distance=(),
                            affine=a.affine and bacc.affine,
                        )
                    )
    return deps
