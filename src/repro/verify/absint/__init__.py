"""Abstract-interpretation pass framework over the kernel IR.

Layered like a small compiler-analysis toolkit:

* :mod:`repro.verify.absint.domain` — the abstract domains: integer
  :class:`~repro.verify.absint.domain.Interval`\\ s (with widening),
  :class:`~repro.verify.absint.domain.AffineForm`\\ s over named symbolic
  parameters (exact interval images — the source of the bounds analysis'
  zero-false-positive guarantee) and the admissible
  :class:`~repro.verify.absint.domain.ParamSpace` a proof quantifies over.
* :mod:`repro.verify.absint.framework` — :class:`DataflowPass` /
  :func:`run_pass` / :func:`fixpoint`: directional dataflow over the
  three-address :class:`~repro.ir.nodes.TAProgram`, including cyclic
  whole-program iteration around one timestep's kernel sequence.
* :mod:`repro.verify.absint.bounds` — :func:`prove_bounds`: parametric
  halo-safety certificates (or concrete counterexamples) for whole schedule
  families.
* :mod:`repro.verify.absint.dtypes` — the NEP 50 promotion lattice,
  :func:`expr_dtype` promotion chains (powering the linter's W201) and the
  :class:`DtypePass` slot-typing consistency check.
* :mod:`repro.verify.absint.liveness` — whole-program scratch-slot liveness:
  the E301/W302 check that licenses sharing the scratch slabs across sweeps.
"""

from .bounds import build_param_space, prove_bounds
from .domain import AffineForm, Interval, ParamSpace
from .dtypes import DtypePass, expr_dtype, promote, ufunc_result
from .framework import DataflowPass, Finding, PassResult, fixpoint, run_pass
from .growth import GrowthPass, interval_ufunc, prove_growth, read_interval
from .liveness import LivenessReport, PoolLivenessPass, analyse_programs

__all__ = [
    "AffineForm",
    "Interval",
    "ParamSpace",
    "DataflowPass",
    "Finding",
    "PassResult",
    "run_pass",
    "fixpoint",
    "build_param_space",
    "prove_bounds",
    "DtypePass",
    "expr_dtype",
    "promote",
    "ufunc_result",
    "GrowthPass",
    "prove_growth",
    "interval_ufunc",
    "read_interval",
    "LivenessReport",
    "PoolLivenessPass",
    "analyse_programs",
]
