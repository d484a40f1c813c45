"""Kernel characterisation for the performance model.

A :class:`KernelSpec` captures, per sweep, everything the traffic/roofline
model needs: distinct data slices read (with each slice's stencil radius,
time offset and buffer count), slices written, total per-point accesses and
flops, plus the per-point bytes of live state.
:meth:`KernelSpec.from_operator` derives all of it from the *actual symbolic
operator*, so the model and the executed code can never drift apart; the
paper-scale (512^3) predictions then reuse the spec with a different grid
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import eq_flops
from repro.dsl.functions import Function, TimeFunction
from repro.dsl.symbols import Indexed
from repro.ir.dependencies import read_accesses, written_access

__all__ = ["SliceAccess", "SweepSpec", "KernelSpec"]


@dataclass(frozen=True)
class SliceAccess:
    """One distinct data slice touched by a sweep.

    ``time_offset`` is ``None`` for time-invariant model fields; ``buffers``
    is the circular-buffer depth of the owning field (1 for model fields).
    """

    name: str
    radius: int
    time_offset: Optional[int] = None
    buffers: int = 1


@dataclass(frozen=True)
class SweepSpec:
    """Per-point accounting of one spatial sweep."""

    name: str
    radius: int  # wavefront lag contribution (external time-field reads)
    reads: Tuple[SliceAccess, ...]  # distinct slices read (time + model fields)
    writes_detail: Tuple[SliceAccess, ...]  # distinct slices written
    accesses: int  # total array accesses per point (reads incl. duplicates + writes)
    flops: float
    #: stencil slices live together during one traversal (max per equation);
    #: sets the footprint the layer conditions must retain
    concurrency: int = 1

    @property
    def read_count(self) -> int:
        return len(self.reads)

    @property
    def writes(self) -> int:
        return len(self.writes_detail)


@dataclass(frozen=True)
class KernelSpec:
    """A full timestep: ordered sweeps plus the live state footprint."""

    name: str
    sweeps: Tuple[SweepSpec, ...]
    state_bytes_per_point: float
    #: bytes per point that must *stay* cached between consecutive timesteps
    #: for temporal reuse: the forward time slices (time_order per field) plus
    #: the time-invariant model fields
    retained_bytes_per_point: float = 0.0
    dtype_bytes: int = 4

    @property
    def angle(self) -> int:
        """Wavefront skew per timestep."""
        return sum(s.radius for s in self.sweeps)

    @property
    def flops_per_point_step(self) -> float:
        return sum(s.flops for s in self.sweeps)

    @property
    def accesses_per_step(self) -> int:
        return sum(s.accesses for s in self.sweeps)

    @classmethod
    def from_operator(cls, op, name: str | None = None) -> "KernelSpec":
        """Derive the spec from a :class:`repro.ir.Operator`."""
        sweeps: List[SweepSpec] = []
        functions: Dict[str, object] = {}

        def buffers_of(func) -> int:
            return func.buffers if isinstance(func, TimeFunction) else 1

        for sweep in op.sweeps:
            slice_radius: Dict[Tuple[str, Optional[int]], int] = {}
            accesses = 0
            flops = 0.0
            writes: Dict[Tuple[str, Optional[int]], SliceAccess] = {}
            concurrency = 1
            for eq in sweep.eqs:
                w = written_access(eq)
                wkey = (w.function.name, w.time_offset)
                writes[wkey] = SliceAccess(
                    name=f"{w.function.name}@{w.time_offset}",
                    radius=0,
                    time_offset=w.time_offset,
                    buffers=buffers_of(w.function),
                )
                functions[w.function.name] = w.function
                reads = list(eq.rhs.atoms(Indexed))
                accesses += len(reads) + 1
                flops += eq_flops(eq)
                eq_stencil_slices = set()
                for a in read_accesses(eq):
                    functions[a.function.name] = a.function
                    t_off = a.time_offset if isinstance(a.function, TimeFunction) else None
                    key = (a.function.name, t_off)
                    slice_radius[key] = max(slice_radius.get(key, 0), a.radius)
                    if a.radius > 0:
                        eq_stencil_slices.add(key)
                concurrency = max(concurrency, len(eq_stencil_slices))
            # slices produced by this sweep and read back pointwise are served
            # by registers/store-forwarding; drop them from the read set
            reads_out = []
            for (fname, toff), r in sorted(
                slice_radius.items(), key=lambda kv: (kv[0][0], kv[0][1] if kv[0][1] is not None else 0)
            ):
                if (fname, toff) in writes and r == 0:
                    continue
                func = functions[fname]
                reads_out.append(
                    SliceAccess(
                        name=f"{fname}@{toff}" if toff is not None else fname,
                        radius=r,
                        time_offset=toff,
                        buffers=buffers_of(func),
                    )
                )
            sweeps.append(
                SweepSpec(
                    name="+".join(sorted({e.write_function.name for e in sweep.eqs})),
                    radius=sweep.read_radius(),
                    reads=tuple(reads_out),
                    writes_detail=tuple(writes.values()),
                    accesses=accesses,
                    flops=flops,
                    concurrency=concurrency,
                )
            )
        dtype_bytes = op.grid.dtype.itemsize
        state = 0.0
        retained = 0.0
        for func in functions.values():
            if isinstance(func, TimeFunction):
                state += func.buffers * dtype_bytes
                retained += func.time_order * dtype_bytes
            elif isinstance(func, Function):
                state += dtype_bytes
                retained += dtype_bytes
        return cls(
            name=name or op.name,
            sweeps=tuple(sweeps),
            state_bytes_per_point=state,
            retained_bytes_per_point=retained,
            dtype_bytes=dtype_bytes,
        )
