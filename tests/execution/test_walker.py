"""The C rung's walker: each run of lowered steps with no Python work between
them is one C call and one OpenMP region (``cgen.static_unit().walk``), the
sweeps' orphaned ``omp for`` barriers ordering its instances.  Bit-identity
to the naive schedule on every physics, schedule kind and sparse mode, on one
thread and on a team of two; one call per time tile of a precomputed
wavefront; no ``BoundSweep.evaluate`` on the C rung; ABFT replays and
checkpoint resumes at tile boundaries; per-instance trace spans from the
walker's stamps; and the wavefield reset on the team."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import SpatialBlockSchedule, WavefrontSchedule
from repro.core.scheduler import NO_SPARSE
from repro.dsl import Grid
from repro.errors import InjectedFault
from repro.execution.evalbox import BoundSweep
from repro.execution.executors import _runs
from repro.ir import cgen
from repro.propagators.examples import build_example
from repro.runtime import ABFTGuard, CheckpointConfig, Fault, FaultInjector, MemoryCheckpointStore
from repro.telemetry import Telemetry

from ..conftest import make_acoustic_operator, needs_cc

pytestmark = needs_cc

SRC = str(Path(__file__).resolve().parents[2] / "src")
NT = 12
WAVEFRONT = WavefrontSchedule(tile=(6, 5), height=3)
SPATIAL = SpatialBlockSchedule(block=(5, 6))

_SHAS = """
import hashlib, json
from repro.core import NaiveSchedule, SpatialBlockSchedule, WavefrontSchedule
from repro.propagators.examples import build_example
from repro.telemetry import Telemetry

SCHEDULES = {"naive": NaiveSchedule(), "spatial": SpatialBlockSchedule(block=(5, 6)),
             "wavefront": WavefrontSchedule(tile=(6, 5), height=3)}

def sha(prop, rec):
    h = hashlib.sha256(rec.tobytes())
    for f in prop.fields:
        h.update(f.data_with_halo.tobytes())
    return h.hexdigest()

out = {}
for kind in ("acoustic", "tti", "elastic"):
    prop, dt = build_example(kind, nt=12)
    for mode in ("precomputed", "offgrid"):
        rec, _ = prop.forward(nt=12, dt=dt, schedule="naive", sparse_mode=mode, engine="fused")
        out[f"{kind}/naive-fused/{mode}"] = sha(prop, rec)
        for name, schedule in SCHEDULES.items():
            if name == "wavefront" and mode == "offgrid":
                continue  # the prover rejects raw off-grid operators inside tiles
            tel = Telemetry()
            rec, _ = prop.forward(nt=12, dt=dt, schedule=schedule, sparse_mode=mode,
                                  engine="c", telemetry=tel)
            assert tel.meta["engine"] == "c"
            out[f"{kind}/{name}/{mode}"] = sha(prop, rec)
            out["threads"] = tel.meta["threads"]
print(json.dumps(out))
"""


def _shas(threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OMP_", "GOMP_"))}
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(_SHAS)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_walker_is_naive_bit_for_bit_on_one_thread_and_on_two():
    """Every physics x schedule kind x sparse mode on the C rung equals the
    fused naive run of its mode, in a process whose team is one thread and in
    one whose team is two."""
    runs = [_shas(1), _shas(2)]
    assert [r.pop("threads") for r in runs] == [1, 2]
    assert runs[0] == runs[1]
    for key, digest in runs[0].items():
        kind, _, mode = key.split("/")
        assert digest == runs[0][f"{kind}/naive-fused/{mode}"], key
    assert len(runs[0]) == 3 * 7


class _Counting:
    """The static unit with its walker counted."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def walk(self, n, *args):
        self.calls.append(n)
        return self.lib.walk(n, *args)


@pytest.fixture
def walks(monkeypatch):
    """The walker's calls, each recorded as its number of instances."""
    counting = _Counting(cgen.static_unit())
    monkeypatch.setattr(cgen, "static_unit", lambda: counting)
    return counting.calls


def _no_evaluate(monkeypatch):
    def refuse(self, t, box):
        raise AssertionError("the C rung evaluated a sweep instance in Python")

    monkeypatch.setattr(BoundSweep, "evaluate", refuse)


def test_one_call_per_time_tile_and_no_python_instance(walks, monkeypatch):
    """A precomputed wavefront run: one walker call per time tile, covering
    all of its instances, and not one ``BoundSweep.evaluate``."""
    prop, dt = build_example("tti", nt=NT)
    tel = Telemetry()
    _no_evaluate(monkeypatch)
    prop.forward(nt=NT, dt=dt, schedule=WAVEFRONT, sparse_mode="precomputed", engine="c",
                 telemetry=tel)
    assert len(walks) == NT // WAVEFRONT.height
    assert sum(walks) == tel.counters["instances"]


def test_raw_off_grid_operators_end_a_run(walks, monkeypatch):
    """Spatial blocks with raw off-grid operators: the Python injection and
    interpolation after each sweep's last block end the run, so it is one
    call per sweep per timestep, and still no Python instance."""
    prop, dt = build_example("acoustic", nt=NT)
    _no_evaluate(monkeypatch)
    _, plan = prop.forward(nt=NT, dt=dt, schedule=SPATIAL, sparse_mode="offgrid", engine="c")
    blocks = len(range(0, prop.grid.shape[0], 5)) * len(range(0, prop.grid.shape[1], 6))
    assert plan.nsweeps == 1 and walks == [blocks] * NT


def _sha(prop, rec):
    return rec.tobytes() + b"".join(f.data_with_halo.tobytes() for f in prop.fields)


@pytest.mark.faults
def test_abft_containment_replays_the_tile_call(walks):
    """A bit flip at a tile exit: the guard rolls the tile back and the
    walker runs the tile's call again; the result is the clean run's."""
    prop, dt = build_example("acoustic", nt=NT)
    run = dict(nt=NT, dt=dt, schedule=WAVEFRONT, sparse_mode="precomputed", engine="c")
    clean = _sha(prop, prop.forward(**run)[0])
    del walks[:]
    guard = ABFTGuard()
    rec, _ = prop.forward(**run, abft=guard,
                          faults=FaultInjector([Fault(t=7, kind="bitflip")], seed=11))
    replays = guard.stats["tiles_reexecuted"]
    assert replays >= 1 and len(walks) == NT // WAVEFRONT.height + replays
    assert _sha(prop, rec) == clean


@pytest.mark.faults
def test_checkpoint_resume_in_the_middle_of_a_run(walks):
    """A crash in the third tile; the resume restores the snapshot at the
    second tile's exit and walks only the tiles left."""
    prop, dt = build_example("elastic", nt=NT)
    run = dict(nt=NT, dt=dt, schedule=WAVEFRONT, sparse_mode="precomputed", engine="c")
    clean = _sha(prop, prop.forward(**run)[0])
    store = MemoryCheckpointStore()
    with pytest.raises(InjectedFault):
        prop.forward(**run, checkpoint=CheckpointConfig(every=3, store=store),
                     faults=FaultInjector([Fault(t=7, kind="raise")]))
    assert store.latest().step == 6
    del walks[:]
    rec, _ = prop.forward(**run, checkpoint=CheckpointConfig(every=3, store=store, resume=True))
    assert len(walks) == (NT - 6) // WAVEFRONT.height
    assert _sha(prop, rec) == clean


def test_trace_spans_come_from_the_walker_stamps():
    """``detail="trace"``: one ``sweep{j}`` span per instance, in order,
    back to back inside their tile's span, from the stamps the walker took."""
    prop, dt = build_example("tti", nt=NT)
    tel = Telemetry(detail="trace")
    prop.forward(nt=NT, dt=dt, schedule=WAVEFRONT, sparse_mode="precomputed", engine="c",
                 telemetry=tel)
    spans = [s for s in tel.spans if s.name.startswith("sweep")]
    assert len(spans) == tel.counters["instances"]
    for tile in tel.find("tile"):
        inside = [s for s in spans if tile.attrs["t0"] <= s.attrs["t"] < tile.attrs["t1"]]
        assert inside and tile.start <= inside[0].start and inside[-1].end <= tile.end
        for a, b in zip(inside, inside[1:]):
            assert a.dur >= 0 and a.end == pytest.approx(b.start, abs=1e-9)
        assert sum(s.dur for s in inside[:-1]) > 0  # the stamps split the call


def test_fields_are_reset_on_the_team(monkeypatch):
    """After a C shot the reset runs through the static unit and leaves every
    buffer zero; with no static unit loaded it falls back to NumPy."""
    prop, dt = build_example("acoustic", nt=NT)
    prop.forward(nt=NT, dt=dt, engine="c")
    buffers = [f.data_with_halo for f in prop.fields]
    assert any(b.any() for b in buffers)
    assert cgen.zero(buffers) and not any(b.any() for b in buffers)
    prop.forward(nt=NT, dt=dt, engine="c")
    monkeypatch.setattr(cgen, "_STATIC", None)
    assert not cgen.zero(buffers) and any(b.any() for b in buffers)
    prop.zero_fields()
    assert not any(b.any() for b in buffers)


def test_a_replayed_run_reads_refreshed_invariants():
    """A model term C cannot express (``sin(m)``) is hoisted into a grid.  A
    replayed run binds nothing, so an in-place model update between applies
    must refresh that grid before the walker reads it: C equals fused after
    the update."""
    from repro.dsl import Eq, Function, Grid, TimeFunction, solve
    from repro.dsl.symbols import Call
    from repro.ir import Operator

    out = {}
    for engine in ("c", "fused"):
        grid = Grid(shape=(12, 11, 10), extent=(110.0, 100.0, 90.0))
        u = TimeFunction("u", grid, time_order=2, space_order=4)
        m = Function("m", grid, space_order=4)
        op = Operator([Eq(u.forward, solve(Call("sin", m.indexify()) * u.dt2 - u.laplace,
                                           u.forward))])
        for scale in (1.0, 1.3):
            m.data = 0.45 * scale  # in place: the second pass finds sin(m) stale
            u.data_with_halo[...] = 0.0
            u.interior(0)[...] = 1.0
            plan = op.apply(time_M=6, dt=0.5, schedule=WAVEFRONT, engine=engine)
        assert plan.sweeps[0].engine == engine and plan.sweeps[0].hoisted_fields
        out[engine] = u.data_with_halo.tobytes()
    assert out["c"] == out["fused"]


def _c_sweep():
    grid = Grid(shape=(6, 40, 64), extent=(50.0, 390.0, 630.0))
    op, *_ = make_acoustic_operator(grid)
    (eqs,) = op.bound_equations(0.5)
    return BoundSweep(eqs, grid, engine="c")


def test_each_run_decides_its_own_team():
    """A step with Python sparse work ends a run; each run is on the team
    iff its own largest box reaches ``PARALLEL_MIN_POINTS``, whatever the
    tile's other runs hold."""
    sweep = _c_sweep()
    small, big = ((1, 2), (0, 31), (0, 64)), ((2, 3), (0, 40), (0, 64))
    assert 31 * 64 < cgen.PARALLEL_MIN_POINTS <= 40 * 64
    steps = [(0, 0, small, small, None, 31 * 64), (1, 0, big, NO_SPARSE, None, 40 * 64)]
    runs, counts, _ = _runs(steps, (True,), 1, [sweep], 0)
    assert [(len(run), threaded) for run, _, threaded in runs] == [(1, 0), (1, 1)]
    assert counts.tolist() == [[2], [71 * 64]]


def test_a_c_sweep_has_no_evaluate():
    with pytest.raises(TypeError, match="walker"):
        _c_sweep().evaluate(0, ((0, 1), (0, 1), (0, 1)))


def test_a_full_view_cache_drops_the_run_tables():
    """The view cache's safety valve also clears the run tables that point
    into its bindings, so neither outgrows 4096 entries."""
    sweep = _c_sweep()
    sweep.runs["tile"] = ("tables",)
    sweep._view_cache.update({(k, None): () for k in range(4096)})
    assert sweep.bind(0, ((0, 1), (0, 1), (0, 1))) is not None
    assert not sweep.runs and len(sweep._view_cache) == 1
