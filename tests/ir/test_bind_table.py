"""The bind table: one bind per problem structure, per process.

What an operator's bind derives from its structure alone — factorised
sweeps, each compiled rung's front halves, the legality and bounds
certificates — is kept in ``pycodegen._BIND_CACHE`` under the
operator's ``signature``.  A second problem of the same structure analyses
nothing, pins nothing of the first, and computes the same bits.
"""

import gc
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import repro.verify.absint.bounds as bounds_mod
import repro.verify.prover as prover_mod
from repro.core import NaiveSchedule, WavefrontSchedule
from repro.dsl import Eq, Function, Grid, SparseTimeFunction, TimeFunction, solve
from repro.errors import EngineFallbackWarning
from repro.ir import Operator, pycodegen
from repro.ir.pycodegen import clear_kernel_caches
from repro.propagators.examples import build_example
from repro.runtime import break_engine
from repro.telemetry import Telemetry

from ..conftest import AVAILABLE_ENGINES, make_acoustic_operator, needs_cc

NT = 16
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: a survey problem: the example builder's shot, moved by *shift*, on a model
#: scaled by *scale* — what changes between jobs, and nothing structural
PROBLEM = """
import hashlib
from repro.propagators.examples import build_example
def shot(shift, scale):
    prop, dt = build_example("acoustic", nt={nt}, shift=shift)
    prop.model.m.data_with_halo[...] *= scale
    rec, _ = prop.forward(nt={nt}, dt=dt, schedule="wavefront")
    return prop, hashlib.sha256(rec.tobytes()).hexdigest()
""".format(nt=NT)
_ns = {}
exec(PROBLEM, _ns)
shot = _ns["shot"]


@pytest.fixture
def spies(monkeypatch):
    """Calls of each structural analysis, by name."""
    calls = {"legality": 0, "bounds": 0}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(prover_mod, "prove_schedule", "legality")
    spy(bounds_mod, "prove_bounds", "bounds")
    return calls


def test_second_problem_of_a_structure_analyses_nothing(spies):
    clear_kernel_caches()
    first, _ = shot((0.1, -0.1, 0.05), 1.0)
    assert spies == {"legality": 1, "bounds": 1}
    second, _ = shot((-0.15, 0.2, 0.0), 1.02)  # new coordinates, new model
    assert spies == {"legality": 1, "bounds": 1}
    assert second.op.signature == first.op.signature
    assert second.op.analyzer_seconds == 0.0


def test_second_problem_does_not_pin_the_first():
    clear_kernel_caches()
    first, _ = shot((0.1, -0.1, 0.05), 1.0)
    refs = [weakref.ref(first.u._data), weakref.ref(first.model.m._data)]
    del first
    second, _ = shot((-0.15, 0.2, 0.0), 1.02)
    gc.collect()
    assert len(pycodegen._BIND_CACHE) > 0 and second.u._data is not None
    assert all(ref() is None for ref in refs)


def test_served_problem_matches_a_cold_process():
    """Receivers of a problem bound from a warm table are bit-identical to
    the same problem in a process that never bound anything."""
    shift, scale = (-0.15, 0.2, 0.0), 1.02
    shot((0.1, -0.1, 0.05), 1.0)  # warm the table with another problem
    _, warm = shot(shift, scale)
    script = PROBLEM + f"print(shot({shift!r}, {scale!r})[1])\n"
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    cold = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    ).stdout.strip()
    assert warm == cold


def test_clear_kernel_caches_empties_the_table():
    shot((0.1, -0.1, 0.05), 1.0)
    assert pycodegen._BIND_CACHE
    clear_kernel_caches()
    assert not pycodegen._BIND_CACHE


def _counted(kind, engine=None, shift=None):
    """``kernel_cache_hits``, ``kernel_cache_misses`` of one wavefront shot."""
    prop, dt = build_example(kind, nt=NT, shift=shift)
    tel = Telemetry()
    prop.forward(nt=NT, dt=dt, schedule="wavefront", engine=engine, telemetry=tel)
    return tel.counters["kernel_cache_hits"], tel.counters["kernel_cache_misses"]


def _broken(rung, kind, engine=None):
    with break_engine(rung):
        return _counted(kind, engine)


#: case -> (the shots it runs, returning the last one's counters; the
#: expected counters, given the example's number of sweeps)
COUNTER_CASES = {
    "cold bind": (lambda kind: _counted(kind, COMPILED), lambda n: (0, n)),
    "served by the table": (
        lambda kind: [_counted(kind, COMPILED, shift) for shift in (None, (0.1, -0.1, 0.05))][-1],
        lambda n: (n, 0),
    ),
    # the C rung compiles each front half, then its build fails
    "broken c, cold": (lambda kind: _broken("c", kind), lambda n: (0, n + 1)),
    "broken fused": (lambda kind: _broken("fused", kind, "fused"), lambda n: (0, 0)),
    "broken c, again": (
        lambda kind: [_broken("c", kind) for _ in range(2)][-1], lambda n: (0, n + 1),
    ),
}


@pytest.mark.filterwarnings("ignore::repro.errors.EngineFallbackWarning")
@pytest.mark.parametrize("kind, sweeps", [("acoustic", 1), ("tti", 2), ("elastic", 2)])
@pytest.mark.parametrize("case", list(COUNTER_CASES))
def test_kernel_counters_count_what_the_table_did(case, kind, sweeps):
    """A served bind counts one hit per sweep; a compiled one, one miss per
    front half — a C sweep whose build then fails included.  A block of
    ``break_engine`` binds against an empty table, so a second one compiles
    again."""
    run, expected = COUNTER_CASES[case]
    clear_kernel_caches()
    assert run(kind) == expected(sweeps)


def _served(kind, engine, monkeypatch):
    """Bind a wavefront shot of *kind* (source and receivers, precomputed),
    then a second problem of the same structure: ``(first plan, second
    plan, second bind's telemetry, C sweeps emitted during the second)``."""
    from repro.ir import cgen

    def bind(shift, telemetry=None):
        prop, dt = build_example(kind, nt=NT, shift=shift)
        return prop.op.apply(time_M=NT, dt=dt, schedule="wavefront",
                             sparse_mode="precomputed", engine=engine, telemetry=telemetry)

    clear_kernel_caches()
    first = bind(None)
    emitted = []
    real = cgen.emit_sweep
    monkeypatch.setattr(cgen, "emit_sweep", lambda *a, **k: emitted.append(a) or real(*a, **k))
    tel = Telemetry()
    second = bind((0.1, -0.1, 0.05), tel)
    return first, second, tel, emitted


@needs_cc
@pytest.mark.parametrize("kind", ["acoustic", "tti"])
def test_a_served_c_bind_generates_and_loads_nothing(kind, monkeypatch):
    """A second operator of a bound structure is served its loaded sweep
    functions: no C source is emitted or hashed, no shared object is
    looked up (``c_cache_*`` both 0), and it runs the first operator's."""
    first, second, tel, emitted = _served(kind, "c", monkeypatch)
    assert tel.counters["kernel_cache_hits"] == len(second.sweeps) and not emitted
    assert tel.counters["c_cache_hits"] == tel.counters["c_cache_misses"] == 0
    assert [sw.engine for sw in second.sweeps] == ["c"] * len(second.sweeps)
    assert all(a._kernel is b._kernel for a, b in zip(first.sweeps, second.sweeps))


@pytest.mark.parametrize("kind", ["acoustic", "tti"])
def test_a_served_fused_bind_reuses_the_numpy_closure(kind, monkeypatch):
    first, second, tel, _ = _served(kind, "fused", monkeypatch)
    assert tel.counters["kernel_cache_hits"] == len(second.sweeps)
    assert [sw.engine for sw in second.sweeps] == ["fused"] * len(second.sweeps)
    assert all(a._kernel is b._kernel for a, b in zip(first.sweeps, second.sweeps))
    assert all(a.compiled is b.compiled for a, b in zip(first.sweeps, second.sweeps))


def test_a_broken_compiler_is_reached_on_a_warm_table(grid2d):
    op, *_ = make_acoustic_operator(grid2d)
    op.apply(time_M=2, dt=0.5, engine="fused")
    table = dict(pycodegen._BIND_CACHE)
    with break_engine("fused"):
        fresh, *_ = make_acoustic_operator(grid2d)
        with pytest.warns(EngineFallbackWarning):
            plan = fresh.apply(time_M=2, dt=0.5, engine="fused")
    assert plan.sweeps[0].engine == "interp"
    assert pycodegen._BIND_CACHE == table  # the block's entries are dropped


# -- soundness: each signature component keys its own entries --------------------


def _problem(shape=(10, 9), spacing=10.0, so=2, time_order=2, m_halo=None,
             dtype=np.float32, src_field="u"):
    """Two independent acoustic fields ``u`` and ``v`` on one model, a
    source injected into *src_field* and a receiver on ``u``."""
    grid = Grid(shape=shape, extent=tuple(spacing * (n - 1) for n in shape), dtype=dtype)
    m = Function("m", grid, space_order=m_halo or so)
    m.data = 1.0 / 1.5**2
    fields = {
        name: TimeFunction(name, grid, time_order=time_order, space_order=so)
        for name in ("u", "v")
    }
    eqs = [
        Eq(f.forward, solve(m * f.dt2 - f.laplace, f.forward)) for f in fields.values()
    ]
    centre = np.asarray(grid.extent)[None, :] * 0.45
    src = SparseTimeFunction("src", grid, npoint=1, nt=8, coordinates=centre)
    src.data[:] = 1.0
    rec = SparseTimeFunction("rec", grid, npoint=1, nt=8, coordinates=centre)
    sparse = [src.inject(fields[src_field], expr=grid.stepping_dim.spacing**2 / m),
              rec.interpolate(fields["u"])]
    return Operator(eqs, sparse=sparse, name="table-test")


def _bind(**kwargs):
    """Apply a few steps under the wavefront kind's legality preflight."""
    kwargs = {"dt": 0.5, "schedule": WavefrontSchedule(tile=(4, 4), height=2),
              "sparse_mode": "precomputed", "engine": "fused", **kwargs}
    return lambda op: op.apply(time_M=4, **kwargs)


def _certify(sparse_mode):
    return lambda op: op.certificate_for(NaiveSchedule(), sparse_mode)


ALL = {"eqs", "rung", "bounds", "legality"}
COMPILED = AVAILABLE_ENGINES[0]

#: (component, second problem's builder kwargs, first and second bind, entry
#: kinds the second bind must add)
COMPONENTS = [
    ("space order", dict(so=4), _bind(), _bind(), ALL),
    ("time order", dict(time_order=3), _bind(), _bind(), ALL),
    ("halo", dict(m_halo=4), _bind(), _bind(), ALL),
    ("grid shape", dict(shape=(11, 9)), _bind(), _bind(), ALL),
    ("spacing", dict(spacing=12.0), _bind(), _bind(), ALL),
    ("dtype", dict(dtype=np.float64), _bind(), _bind(), ALL),
    ("grid rank", dict(shape=(10, 9, 8)), _bind(), _bind(), ALL),
    ("source field", dict(src_field="v"), _bind(), _bind(), ALL),
    ("dt", {}, _bind(), _bind(dt=0.4), {"eqs", "rung"}),
    ("engine", {}, _bind(engine="interp"), _bind(engine=COMPILED), {"rung"}),
    ("schedule", {}, _bind(), _bind(schedule=WavefrontSchedule(tile=(8, 4), height=2)),
     {"legality"}),
    ("sparse mode", {}, _certify("precomputed"), _certify("offgrid"), {"legality"}),
]


@pytest.mark.parametrize(
    "component, build, first_bind, second_bind, kinds", COMPONENTS,
    ids=[c[0] for c in COMPONENTS],
)
def test_each_signature_component_keys_its_own_entries(
    component, build, first_bind, second_bind, kinds
):
    clear_kernel_caches()
    first = _problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        first_bind(first)
        before = set(pycodegen._BIND_CACHE)
        second = _problem(**build)
        second_bind(second)
    added = {key[1] for key in set(pycodegen._BIND_CACHE) - before}
    assert added >= kinds
    assert (second.signature != first.signature) == (kinds == ALL)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_served_bind_takes_its_hoisted_dtypes_from_the_table(dtype, monkeypatch):
    """A served bind evaluates no specimen of a hoisted field's defining
    expression: its dtypes are the cold bind's, kept in the rung entry."""
    import repro.ir.passes as passes_mod

    clear_kernel_caches()
    cold = _bind()(_problem(dtype=dtype))  # fused hoists the model terms
    dtypes = [[hf.dtype for hf in sw.hoisted_fields] for sw in cold.sweeps]
    assert any(dtypes)

    def specimen_dtype(expr):
        raise AssertionError("a served bind evaluated a specimen")

    monkeypatch.setattr(passes_mod, "_specimen_dtype", specimen_dtype)
    served = _bind()(_problem(dtype=dtype))
    assert [[hf.dtype for hf in sw.hoisted_fields] for sw in served.sweeps] == dtypes
    clear_kernel_caches()
