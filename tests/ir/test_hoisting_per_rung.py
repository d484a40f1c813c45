"""What each compiled rung hoists out of its loop nest.

``fused`` hoists every maximal model-only subtree into a precomputed grid
(inline, each would cost one ufunc pass per box); ``c`` keeps model terms as
register work on live reads of the model and hoists only the subtrees C
cannot express.  Either way the bits are the same, and :meth:`Operator.ccode`
prints the program the C rung really binds.
"""

import warnings

import numpy as np
import pytest

from repro.core import WavefrontSchedule
from repro.dsl.symbols import Call, Number, Pow
from repro.errors import EngineFallbackWarning
from repro.execution.evalbox import BoundSweep
from repro.ir import cgen
from repro.propagators.examples import EXAMPLES, build_example
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, needs_cc

NT = 6
DT = 0.5
WF = WavefrontSchedule(tile=(6, 6), height=3)

#: model terms whose lowering emits an instruction outside ``cgen.ELIGIBLE_OPS``
MODEL_TERMS = {
    "sin": lambda m: Call("sin", m),
    "pow": lambda m: Pow(m, Number(0.3)),
}


def _bind(make, engine):
    """Apply the operator *make* builds on *engine*; a fallback is an error."""
    op, u, m, src, rec = make()
    tel = Telemetry()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        plan = op.apply(time_M=NT, dt=DT, schedule=WF, engine=engine, telemetry=tel)
    assert tel.meta["engine"] == engine and tel.counters["engine_fallbacks"] == 0
    return plan, m, u.data_with_halo.copy(), rec.data.copy()


@needs_cc
@pytest.mark.parametrize("term", sorted(MODEL_TERMS))
def test_c_hoists_only_what_c_cannot_express(grid3d, term):
    """``sin(m)`` / ``m**0.3``: the operator still binds ``c`` (no fall to
    ``fused``), equals ``fused`` at 0 ulp, and the ineligible subtree is the
    C sweep's only hoisted grid."""
    def make():
        return make_acoustic_operator(grid3d, model=MODEL_TERMS[term])

    plan_c, m, u_c, rec_c = _bind(make, "c")
    plan_f, _, u_f, rec_f = _bind(make, "fused")
    (sweep,) = plan_c.sweeps
    assert [hf.expr for hf in sweep.hoisted_fields] == [MODEL_TERMS[term](m.indexify())]
    # fused hoists the whole model term around it
    assert all(hf.expr != sweep.hoisted_fields[0].expr for hf in plan_f.sweeps[0].hoisted_fields)
    np.testing.assert_array_equal(u_c.view(np.uint32), u_f.view(np.uint32))
    np.testing.assert_array_equal(rec_c.view(np.uint32), rec_f.view(np.uint32))
    assert np.abs(u_c).max() > 0


@needs_cc
@pytest.mark.parametrize("so", (4, 8, 12))
@pytest.mark.parametrize("kind", EXAMPLES)
def test_c_streams_no_hoisted_grid_and_ccode_prints_its_program(kind, so):
    """On the nine shipped operators the C rung hoists nothing (no copy of
    the model is allocated), ``fused`` still does, and each ``sweep{j}`` of
    ``ccode(dt)`` is the emission of the program the C rung bound."""
    prop, dt = build_example(kind, so=so)
    _, plan = prop.forward(nt=2, dt=dt)
    assert [sw.engine for sw in plan.sweeps] == ["c"] * len(plan.sweeps)
    assert all(sw.hoisted_fields == [] for sw in plan.sweeps)
    code = prop.op.ccode(dt)
    for j, sw in enumerate(plan.sweeps):
        assert cgen.emit_sweep(sw.kernel_program(), sw.dim_names, name=f"sweep{j}") in code
    fused = [BoundSweep(eqs, prop.op.grid, engine="fused") for eqs in prop.op.bound_equations(dt)]
    assert any(sw.hoisted_fields for sw in fused)
    assert "__inv" not in code
