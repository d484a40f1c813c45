"""Deterministic, seedable fault injection for resilience testing.

A :class:`FaultInjector` is handed to a run (``op.apply(..., faults=...)``)
and consulted by the executors after every sweep instance.  Each
:class:`Fault` is armed once and fires at its programmed ``(t, tile)``:
either *raising* :class:`~repro.errors.InjectedFault` (exercising
checkpoint/restart) or *corrupting* a written buffer with NaN/Inf
(exercising the ABFT guard, which must then attribute the blowup to the
containment unit — timestep or time tile — the fault fired in).

``point`` pins a fault to the tile containing that grid point — without it,
the fault fires at the first instance of timestep ``t`` and corruption
positions are drawn from the injector's seeded RNG, so a given
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
from ..execution.evalbox import Box, box_view

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
        ``"raise"`` aborts the instance with :class:`InjectedFault`;
        ``"nan"``/``"inf"`` poke one non-finite value into the buffer the
        instance just wrote; ``"bitflip"`` silently corrupts one value by
        rewriting its IEEE-754 exponent field — the result stays *finite*,
        so only the ABFT amplitude invariant can catch it.
    field:
        Restrict corruption to the named field (default: the instance's
        first written field).
    point:
        Absolute grid index; the fault only fires on an instance whose box
        contains it, and corruption lands exactly there.
    sweep:
        Restrict to a sweep index.
    """

    t: int
    kind: str = "raise"
    field: Optional[str] = None
    point: Optional[Tuple[int, ...]] = None
    sweep: Optional[int] = None
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
        #: (t, tile, kind, field) of every fault fired, in order
        self.log: List[Tuple] = []
        #: structured detail of every "bitflip" fired: dicts with the
        #: journaled coordinates (t, tile, field, index) plus the xor mask
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

    # -- executor hook ---------------------------------------------------------------
    def fire(self, plan, j: int, t: int, box: Box) -> None:
        for f in self.faults:
            if not f.armed or f.t != t:
                continue
            if f.sweep is not None and f.sweep != j:
                continue
            if f.point is not None and not all(
                lo <= p < hi for p, (lo, hi) in zip(f.point, box)
            ):
                continue
            f.armed = False
            if f.kind == "raise":
                self.log.append((t, box, f.kind, None))
                raise InjectedFault(f.message, t=t, tile=box)
            self._corrupt(plan, j, t, box, f)

    def _corrupt(self, plan, j: int, t: int, box: Box, f: Fault) -> None:
        sweep = plan.sweeps[j]
        beq = next(
            (b for b in sweep.beqs if b.lhs.function.name == f.field),
            sweep.beqs[0],
        )
        view = box_view(beq.lhs, t, box, sweep.dim_names)
        if f.point is not None:
            pos = tuple(p - lo for p, (lo, _hi) in zip(f.point, box))
        else:
            pos = tuple(int(self.rng.integers(0, s)) for s in view.shape)
        name = beq.lhs.function.name
        if f.kind == "bitflip":
            before = view[pos]
            corrupted, mask = flip_finite(before, view.dtype, self.rng)
            view[pos] = corrupted
            index = tuple(int(p) + lo for p, (lo, _hi) in zip(pos, box))
            self.flips.append(
                {
                    "t": int(t),
                    "tile": tuple(tuple(b) for b in box),
                    "field": name,
                    "index": index,
                    "mask": int(mask),
                    "before": float(before),
                    "after": float(corrupted),
                }
            )
        else:
            view[pos] = np.nan if f.kind == "nan" else np.inf
        self.log.append((t, box, f.kind, name))

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
    for every sweep bound while the context is active.
    """
    from ..ir import cgen, pycodegen

    targets = {"fused": (pycodegen, "compile_sweep"), "c": (cgen, "build")}
    if engine not in targets:
        raise ValueError(f"break_engine supports {sorted(targets)}, got {engine!r}")
    module, name = targets[engine]
    original = getattr(module, name)

    def broken(*args, **kwargs):
        raise exc if exc is not None else RuntimeError(
            f"injected {engine} codegen failure"
        )

    setattr(module, name, broken)
    try:
        yield
    finally:
        setattr(module, name, original)
