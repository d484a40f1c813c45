"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import contextlib
import shutil

import numpy as np
import pytest
from hypothesis import settings

from repro.dsl import Eq, Function, Grid, SparseTimeFunction, TimeFunction, solve
from repro.execution.evalbox import ENGINES
from repro.ir import Operator


# tier-1 must not flip between runs: every property test draws the same
# examples each time, and none are replayed from a local example database
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """One temporary ``.so`` cache for the whole session: tier-1 neither reads
    nor pollutes ``~/.cache``, and each distinct kernel is compiled once.  Set
    through the platform's own variable so spawned workers inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


HAVE_CC = bool(shutil.which("gcc") or shutil.which("cc"))
#: for tests that need the compiled C rung itself (fallback tests do not)
needs_cc = pytest.mark.skipif(
    not HAVE_CC, reason="no C compiler on PATH: the C rung degrades to fused"
)
#: the ladder as parametrize values: the C case skips without a compiler
ENGINE_PARAMS = [pytest.param(e, marks=needs_cc) if e == "c" else e for e in ENGINES]
#: the rungs that can bind on this host, for loops inside a test
AVAILABLE_ENGINES = tuple(e for e in ENGINES if e != "c" or HAVE_CC)


@contextlib.contextmanager
def omp_team(nthreads):
    """Run the body with this thread's OpenMP team size set to *nthreads*
    through the standard API (``omp_set_num_threads``; the program itself has
    no thread option), reached through the handle of a threaded kernel."""
    from repro.ir import cgen
    from repro.ir.nodes import TAInstr, TAOperand, TAProgram

    if cgen._OMP is None:  # nothing threaded loaded yet: a 2-D copy kernel will do
        v, o = TAOperand("view", "v0", "float32"), TAOperand("out", "o0", "float32")
        copy = TAProgram((TAInstr("store", (v,), o),), (), (("v0", "float32"),), (("o0", "float32"),))
        cgen.build(cgen.emit_sweep(copy, ("x", "y")))
    omp = cgen._OMP
    before = omp.omp_get_max_threads()
    omp.omp_set_num_threads(nthreads)
    try:
        yield
    finally:
        omp.omp_set_num_threads(before)


def run_sweep(sweep, t, box, sp=None):
    """One ``(t, box)`` instance of *sweep*: ``evaluate`` on ``fused`` /
    ``interp``; on ``c`` (which has no ``evaluate``) a run of one step built
    by the executor's own ``_runs`` and walked by the static unit, on the team
    iff the box reaches ``PARALLEL_MIN_POINTS``, its epilogue counting into
    the ``sparse_table`` *sp*: the path the executor takes."""
    if sweep.engine != "c":
        sweep.evaluate(t, box)
        return
    from repro.core.scheduler import NO_SPARSE
    from repro.execution.executors import _runs
    from repro.ir import cgen

    npoints = int(np.prod([max(hi - lo, 0) for lo, hi in box]))
    if npoints:
        lowered = _runs([(0, 0, box, NO_SPARSE, None, npoints)], (False,), 1, [sweep], t)
        (_, address, threaded), = lowered[0]
        sps = np.array([0 if sp is None else sp.ctypes.data], dtype=np.int64)
        cgen.static_unit().walk(1, address, sps.ctypes.data, t, threaded, 0)


@pytest.fixture
def grid3d():
    return Grid(shape=(12, 11, 10), extent=(110.0, 100.0, 90.0))


@pytest.fixture
def grid2d():
    return Grid(shape=(14, 12), extent=(130.0, 110.0))


@pytest.fixture
def grid1d():
    return Grid(shape=(32,), extent=(310.0,))


def make_acoustic_operator(grid, so=4, nt=10, src_coords=None, rec_coords=None, seed=7,
                           model=None):
    """A fully-populated acoustic operator on *grid* with off-grid sparse ops.

    *model* maps the access ``m[x, ...]`` to the term that multiplies
    ``u.dt2`` (default: ``m`` itself)."""
    rng = np.random.default_rng(seed)
    u = TimeFunction("u", grid, time_order=2, space_order=so)
    m = Function("m", grid, space_order=so)
    m.data = (1.0 / 1.5**2) * (1.0 + 0.05 * rng.random(grid.shape))
    term = m if model is None else model(m.indexify())
    update = Eq(u.forward, solve(term * u.dt2 - u.laplace, u.forward))

    sparse = []
    src = rec = None
    lo = np.asarray(grid.origin)
    hi = lo + np.asarray(grid.extent)
    if src_coords is None:
        src_coords = lo + (hi - lo) * rng.uniform(0.2, 0.8, size=(2, grid.ndim))
    if src_coords is not False:
        src = SparseTimeFunction("src", grid, npoint=len(src_coords), nt=nt + 1,
                                 coordinates=np.asarray(src_coords))
        t = np.arange(nt + 1)
        src.data[:] = (np.sin(0.9 * t)[:, None] + 0.3) * rng.uniform(0.5, 1.5, src.npoint)
        dt_sym = grid.stepping_dim.spacing
        sparse.append(src.inject(u, expr=dt_sym**2 / m))
    if rec_coords is None:
        rec_coords = lo + (hi - lo) * rng.uniform(0.15, 0.85, size=(3, grid.ndim))
    if rec_coords is not False:
        rec = SparseTimeFunction("rec", grid, npoint=len(rec_coords), nt=nt + 1,
                                 coordinates=np.asarray(rec_coords))
        sparse.append(rec.interpolate(u))
    op = Operator([update], sparse=sparse, name="acoustic-test")
    return op, u, m, src, rec


def run_and_capture(op, u, rec, nt, dt, schedule, sparse_mode="auto", engine=None):
    """Zero state, run, return (final wavefield copy, receiver copy)."""
    u.data_with_halo[...] = 0.0
    if rec is not None:
        rec.data[...] = 0.0
    op.apply(time_M=nt, dt=dt, schedule=schedule, sparse_mode=sparse_mode, engine=engine)
    return u.interior(nt).copy(), (rec.data.copy() if rec is not None else None)
