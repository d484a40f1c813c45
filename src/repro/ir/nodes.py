"""The three-address kernel IR.

:func:`repro.ir.pycodegen.compile_sweep` lowers every sweep into a linear
program of ``np.ufunc(a, b, out)`` instructions.  Besides the executable
source text (``kernel.__source__``), the compiler attaches the same program
in structured form (``kernel.__program__``): the static analyses
(:mod:`repro.verify.absint`) operate on typed operands instead of re-parsing
generated text, and the C back end (:mod:`repro.ir.cgen`) emits its loop nest
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["TAOperand", "TAInstr", "TAProgram"]


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

    def __str__(self) -> str:
        return self.name


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

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class TAProgram:
    """The complete three-address program of one fused sweep kernel.

    ``slots``/``views``/``outs``/``consts`` map operand names to NumPy dtype
    names, in declaration order (slot order matches ``kernel.__slotspec__``).
    """

    instrs: Tuple[TAInstr, ...]
    slots: Tuple[Tuple[str, str], ...]
    views: Tuple[Tuple[str, str], ...]
    outs: Tuple[Tuple[str, str], ...]
    consts: Tuple[Tuple[str, str], ...] = ()

    def dtype_of(self, name: str) -> Optional[str]:
        for table in (self.slots, self.views, self.outs, self.consts):
            for n, dt in table:
                if n == name:
                    return dt
        return None

    def render(self) -> str:
        return "\n".join(i.render() for i in self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)
