"""The three-address kernel IR.

:func:`repro.ir.pycodegen.compile_sweep` lowers every sweep into a linear
program of ``np.ufunc(a, b, out)`` instructions, a :class:`TAProgram` of
typed operands, and returns it as a :class:`CompiledSweep` — the one form of
a compiled sweep.  The static analyses (:mod:`repro.verify.absint`) read the
program, the C back end (:mod:`repro.ir.cgen`) emits its loop nest from it,
and only the ``fused`` rung executes its rendering as Python
(:func:`repro.ir.pycodegen.numpy_kernel`).  Both are field-free and frozen,
so the bind table keeps one per structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["TAOperand", "TAInstr", "TAProgram", "CompiledSweep"]


@dataclass(frozen=True)
class TAOperand:
    """One operand of a three-address instruction.

    ``kind`` is one of:

    * ``"view"``  — a read view ``vN`` (box-shaped array of a field read)
    * ``"out"``   — an output view ``oN`` (box-shaped array of a field write)
    * ``"slot"``  — a scratch slot ``sN`` from the :class:`ScratchPool`
    * ``"const"`` — a prebound 0-d constant ``_cN``
    * ``"scalar"``— a Python numeric literal (weak promotion semantics)

    ``dtype`` is the NumPy dtype name for array operands and ``None`` for raw
    scalars (whose promotion is *weak*: they adapt to the partner operand).
    """

    kind: str
    name: str
    dtype: Optional[str] = None


@dataclass(frozen=True)
class TAInstr:
    """One instruction: a ufunc call ``np.op(args..., out)`` or a ``store``
    (``out[...] = value``, with the single value in ``args``)."""

    op: str
    args: Tuple[TAOperand, ...]
    out: TAOperand

    def render(self) -> str:
        if self.op == "store":
            return f"{self.out.name}[...] = {self.args[0].name}"
        args = ", ".join(a.name for a in self.args)
        return f"np.{self.op}({args}, {self.out.name})"


@dataclass(frozen=True)
class TAProgram:
    """The complete three-address program of one fused sweep kernel.

    ``slots``/``views``/``outs``/``consts`` map operand names to NumPy dtype
    names, in declaration order.
    """

    instrs: Tuple[TAInstr, ...]
    slots: Tuple[Tuple[str, str], ...]
    views: Tuple[Tuple[str, str], ...]
    outs: Tuple[Tuple[str, str], ...]
    consts: Tuple[Tuple[str, str], ...] = ()

    def pool_ids(self) -> Dict[str, Tuple[str, int]]:
        """Each slot's scratch-pool identity ``(dtype, per-dtype index)``, in
        slot order: the slab a :class:`~repro.ir.pycodegen.ScratchPool`
        checks out for it, under which sweeps share slabs."""
        dtypes = [dtype for _, dtype in self.slots]
        return {name: (dt, dtypes[:i].count(dt)) for i, (name, dt) in enumerate(self.slots)}

    def render(self) -> str:
        return "\n".join(i.render() for i in self.instrs)


@dataclass(frozen=True)
class CompiledSweep:
    """One sweep as :func:`~repro.ir.pycodegen.compile_sweep` compiled it:
    ``constvals`` in ``program.consts`` order (the C rung passes them in a
    table, so its source depends on structure alone), the CSE temporaries,
    and the per-point flops and accesses (reads + the write, per equation)
    of the right-hand sides it lowered."""

    program: TAProgram
    constvals: Tuple[float, ...]
    ntemps: int
    flops: float
    accesses: int
