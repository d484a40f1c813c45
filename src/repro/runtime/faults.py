"""Deterministic, seedable fault injection for resilience testing.

A :class:`FaultInjector` is handed to a run (``op.apply(..., faults=...)``)
and fired by the runtime monitor at the exit of every containment unit
``[t0, t1)`` — a time tile under wavefront blocking, one timestep otherwise
— the one point where the state is a wavefield.  Each :class:`Fault` is
armed once and fires at the exit of the unit holding its timestep ``t``,
before the guard judges that exit and before its checkpoint save: either
*raising* :class:`~repro.errors.InjectedFault` (exercising
checkpoint/restart) or *corrupting* one value of the newest live slot,
``buffer(t1)``, of its field with NaN/Inf or a finite exponent rewrite
(exercising the ABFT guard, which scans exactly that slot and must attribute
the corruption to that unit, its field and its point).

``point`` pins the corrupted grid index; without it the position is drawn
over the whole grid from the injector's seeded RNG, so a given
``(faults, seed)`` pair replays identically.

:func:`break_engine` is the codegen counterpart: a context manager that makes
a compiled rung's compiler raise, exercising the
engine-degradation ladder in :meth:`repro.ir.operator.Operator._bind`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InjectedFault
from .checkpoint import _wavefields

__all__ = ["Fault", "FaultInjector", "break_engine", "split_seed", "flip_finite"]

KINDS = ("raise", "nan", "inf", "bitflip")


def split_seed(batch_seed: int, *key: int) -> int:
    """Derive an independent substream seed from one batch seed and a key.

    Built on :class:`numpy.random.SeedSequence` with the key as
    ``spawn_key``, so the derived seed depends only on ``(batch_seed,
    key)`` — never on how many substreams were derived before or in what
    order.  That is what makes chaos runs reproducible regardless of worker
    scheduling: job *i* of a batch draws its faults from
    ``split_seed(batch_seed, i)`` whether it runs first, last or is retried
    on a different worker.
    """
    seq = np.random.SeedSequence(int(batch_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def flip_finite(value, dtype, rng) -> Tuple[float, int]:
    """Corrupt *value* by rewriting its IEEE-754 exponent field, staying finite.

    Returns ``(corrupted, mask)`` where *mask* is the xor applied to the raw
    bit pattern (a multi-bit exponent upset plus the sign/mantissa left
    intact).  The new exponent is drawn from the top octaves of the format,
    strictly below all-ones — the corrupted value is therefore always finite
    (invisible to the NaN/Inf scan) yet many orders of magnitude above any
    certified amplitude bound, so the ABFT invariant is guaranteed to see
    it.  Single low-order mantissa flips are deliberately *not* modelled:
    they are below both the detection and the numerical-significance
    threshold, so injecting them would just make chaos runs flaky.
    """
    dt = np.dtype(dtype)
    if dt == np.float32:
        itype, mantbits, expbits = np.uint32, 23, 8
    elif dt == np.float64:
        itype, mantbits, expbits = np.uint64, 52, 11
    else:
        raise ValueError(f"flip_finite supports float32/float64, got {dt}")
    raw = int(np.asarray(value, dtype=dt).view(itype))
    exp_all_ones = (1 << expbits) - 1
    # seeded exponent in [all_ones - 64, all_ones - 2]: huge but finite
    new_exp = int(rng.integers(exp_all_ones - 64, exp_all_ones - 1))
    sign_mant = raw & ~(exp_all_ones << mantbits)
    flipped = sign_mant | (new_exp << mantbits)
    corrupted = np.asarray(flipped, dtype=itype).view(dt)[()]
    return dt.type(corrupted), raw ^ flipped


@dataclass
class Fault:
    """One programmed fault.

    Parameters
    ----------
    t:
        Logical timestep at which to fire.
    kind:
        ``"raise"`` aborts the run with :class:`InjectedFault`;
        ``"nan"``/``"inf"`` poke one non-finite value into the newest live
        slot of the field; ``"bitflip"`` silently corrupts one value by
        rewriting its IEEE-754 exponent field — the result stays *finite*,
        so only the ABFT amplitude invariant can catch it.
    field:
        Name of the time function to corrupt (default: the first field the
        plan writes).
    point:
        Absolute grid index the corruption lands on (default: a seeded
        position over the whole grid).
    """

    t: int
    kind: str = "raise"
    field: Optional[str] = None
    point: Optional[Tuple[int, ...]] = None
    message: str = "injected fault"
    armed: bool = dc_field(default=True)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.point is not None:
            self.point = tuple(int(p) for p in self.point)


class FaultInjector:
    """Arms a set of :class:`Fault` objects and fires them deterministically."""

    def __init__(self, faults: Sequence[Fault], seed: int = 0):
        self.faults: List[Fault] = list(faults)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        #: (t, kind, field) of every fault fired, in order
        self.log: List[Tuple] = []
        #: structured detail of every "bitflip" fired: dicts with the
        #: journaled coordinates (t, field, index) plus the xor mask
        #: applied to the IEEE-754 representation and before/after values
        self.flips: List[dict] = []

    @classmethod
    def substream(
        cls, faults: Sequence[Fault], batch_seed: int, job_index: int
    ) -> "FaultInjector":
        """An injector seeded from the *job_index*-th substream of
        *batch_seed* (see :func:`split_seed`): corruption positions replay
        identically for a given ``(batch_seed, job_index)`` no matter when
        or where the job runs."""
        return cls(faults, seed=split_seed(batch_seed, job_index))

    def reset(self) -> None:
        """Re-arm every fault and reset the RNG (exact replay)."""
        for f in self.faults:
            f.armed = True
        self.rng = np.random.default_rng(self.seed)
        self.log.clear()
        self.flips.clear()

    # -- monitor hooks ---------------------------------------------------------------
    def validate(self, plan) -> None:
        """Reject, before timestep 0, a fault naming a field the plan does
        not hold or a point outside its grid."""
        fields = _wavefields(plan)
        shape = plan.grid.shape
        for f in self.faults:
            if f.field is not None and f.field not in fields:
                raise ValueError(
                    f"fault field {f.field!r} is not a time function of the plan "
                    f"(expected one of {sorted(fields)})"
                )
            if f.point is not None and not (
                len(f.point) == len(shape)
                and all(0 <= p < s for p, s in zip(f.point, shape))
            ):
                raise ValueError(f"fault point {f.point} lies outside the grid {shape}")

    def fire(self, plan, t0: int, t1: int) -> None:
        """Fire every armed fault whose timestep lies in the unit ``[t0, t1)``."""
        for f in self.faults:
            if not f.armed or not t0 <= f.t < t1:
                continue
            f.armed = False
            if f.kind == "raise":
                self.log.append((f.t, f.kind, None))
                raise InjectedFault(f.message, t=f.t)
            self._corrupt(plan, t1, f)

    def _corrupt(self, plan, t1: int, f: Fault) -> None:
        if f.field is None:
            func = plan.sweeps[0].beqs[0].lhs.function
        else:
            func = _wavefields(plan)[f.field]
        point = f.point or tuple(int(self.rng.integers(0, s)) for s in plan.grid.shape)
        slot = func.buffer(t1)
        pos = tuple(p + func.halo for p in point)
        if f.kind == "bitflip":
            before = slot[pos]
            corrupted, mask = flip_finite(before, slot.dtype, self.rng)
            slot[pos] = corrupted
            self.flips.append(
                {
                    "t": int(f.t),
                    "field": func.name,
                    "index": point,
                    "mask": int(mask),
                    "before": float(before),
                    "after": float(corrupted),
                }
            )
        else:
            slot[pos] = np.nan if f.kind == "nan" else np.inf
        self.log.append((f.t, f.kind, func.name))

    def __repr__(self) -> str:
        armed = sum(f.armed for f in self.faults)
        return f"FaultInjector({len(self.faults)} fault(s), {armed} armed, seed={self.seed})"


@contextmanager
def break_engine(engine: str = "fused", exc: Optional[Exception] = None):
    """Force the named compiled rung's compiler to raise inside the ``with``
    block.

    ``"fused"`` patches :func:`repro.ir.pycodegen.compile_sweep` — the front
    half the C rung shares, so ``c`` falls with it — and ``"c"`` patches
    :func:`repro.ir.cgen.build`, the C rung's find-or-compile-and-load step
    (the interpreter compiles nothing, so it cannot be broken).  Both are
    looked up at call time by the execution layer, so the patch takes effect
    for every sweep bound while the context is active; the block binds
    against an empty bind table (:func:`repro.ir.pycodegen.structural`), the
    one in-process cache of compiled sweeps, so every bind in it compiles
    and reaches the broken compiler, and what it fills is dropped on exit.
    """
    from ..ir import cgen, pycodegen

    targets = {"fused": (pycodegen, "compile_sweep"), "c": (cgen, "build")}
    if engine not in targets:
        raise ValueError(f"break_engine supports {sorted(targets)}, got {engine!r}")
    module, name = targets[engine]
    original, table = getattr(module, name), pycodegen._BIND_CACHE

    def broken(*args, **kwargs):
        raise exc if exc is not None else RuntimeError(
            f"injected {engine} codegen failure"
        )

    setattr(module, name, broken)
    pycodegen._BIND_CACHE = {}
    try:
        yield
    finally:
        setattr(module, name, original)
        pycodegen._BIND_CACHE = table
