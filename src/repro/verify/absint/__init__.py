"""Static analyses over the equations and the kernel IR.

Four questions, one module each, none needing a lattice framework — fused
kernels are straight-line programs and halo margins are integers:

* :mod:`repro.verify.absint.bounds` — :func:`prove_bounds`: does every
  stencil access stay inside its field's halo?  (One
  :class:`~repro.verify.certificate.BoundsCertificate` per operator, or a
  concrete counterexample; gates every ``Operator.apply``.)
* :mod:`repro.verify.absint.liveness` — :func:`analyse_programs`: does any
  kernel read a scratch slot before writing it?  (The E301/W302 check that
  licenses sharing the scratch slabs across sweeps.)
* :mod:`repro.verify.absint.dtypes` — the NEP 50 promotion lattice:
  :func:`expr_dtype` promotion chains (the linter's W201) and
  :func:`audit_slot_dtypes`, the lattice-vs-emitter consistency check.
* :mod:`repro.verify.absint.growth` — :func:`prove_growth`: how much can
  one timestep amplify the state?  (Interval arithmetic over the bound
  equations; the ABFT guard's amplitude invariant.)
"""

from .bounds import halo_margins, prove_bounds
from .dtypes import audit_slot_dtypes, expr_dtype, promote, ufunc_result
from .growth import interval_ufunc, prove_growth, read_interval
from .liveness import LivenessReport, analyse_programs

__all__ = [
    "halo_margins",
    "prove_bounds",
    "audit_slot_dtypes",
    "expr_dtype",
    "promote",
    "ufunc_result",
    "prove_growth",
    "interval_ufunc",
    "read_interval",
    "LivenessReport",
    "analyse_programs",
]
