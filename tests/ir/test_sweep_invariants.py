"""What every engine rung relies on, checked on the operators themselves.

A non-pointwise write is refused when the operator is built, before any
rung binds; every sweep of the shipped operators reads its own writes only
at radius 0 (the C emitter's ``ivdep`` premise); and every kernel program
the compiled rungs run writes each scratch slot before reading it and reads
every value it writes (no E301 / W302).
"""

import warnings

import numpy as np
import pytest

from repro.dsl import Eq, Grid, TimeFunction
from repro.errors import EngineFallbackWarning, PlanValidationError
from repro.execution.evalbox import ENGINES, BoundEq, compile_front_half
from repro.ir import Operator, pycodegen
from repro.ir.dependencies import read_accesses
from repro.ir.pycodegen import clear_kernel_caches
from repro.propagators.examples import EXAMPLES, build_example
from repro.verify import analyse_programs

from ..conftest import make_acoustic_operator

ORDERS = (4, 8, 12)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_non_pointwise_write_is_refused_before_any_bind(engine):
    grid = Grid(shape=(8, 8))
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    eq = Eq(u.forward.shift(grid.dimensions[0], 1), u.indexify())
    clear_kernel_caches()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        with pytest.raises(PlanValidationError, match="non-pointwise write") as err:
            Operator([eq]).apply(time_M=2, dt=0.5, engine=engine)
    assert err.value.field == "u" and err.value.equation == str(eq)
    assert not pycodegen._BIND_CACHE


@pytest.mark.parametrize("so", ORDERS)
@pytest.mark.parametrize("kind", EXAMPLES)
def test_shipped_sweeps_read_their_own_writes_only_at_radius_0(kind, so):
    op, _ = _example_op(kind, so)
    for sweep in op.sweeps:
        written = [(w.function.name, w.time_offset) for w in sweep.writes]
        assert len(set(written)) == len(written)
        assert all(w.radius == 0 for w in sweep.writes)
        for eq in sweep.eqs:
            own = [a for a in read_accesses(eq) if (a.function.name, a.time_offset) in written]
            assert all(a.radius == 0 for a in own), (kind, so, eq)


def _programs(op, dt, rung):
    return [
        compile_front_half([BoundEq(e, op.grid) for e in eqs], rung)[2].program
        for eqs in op.bound_equations(dt)
    ]


def _example_op(kind, so):
    prop, dt = build_example(kind, so=so)
    return prop.op, dt


def _shipped():
    """``(operator, dt)`` builders: every example at every order, and one
    float64 operator."""
    for kind in EXAMPLES:
        for so in ORDERS:
            yield pytest.param(lambda kind=kind, so=so: _example_op(kind, so),
                               id=f"{kind}-so{so}-float32")
    grid = dict(shape=(10, 9, 8), extent=(90.0, 80.0, 70.0), dtype=np.float64)
    yield pytest.param(lambda: (make_acoustic_operator(Grid(**grid), so=8)[0], 0.5),
                       id="acoustic-so8-float64")


@pytest.mark.parametrize("rung", ["c", "fused"])
@pytest.mark.parametrize("build", _shipped())
def test_shipped_programs_have_no_stale_or_dead_slots(build, rung):
    op, dt = build()
    report = analyse_programs(_programs(op, dt, rung))
    assert report.findings == [] and report.safe_for_slab
