"""The C rung's threading contract: the team is the OpenMP runtime's own
default in a process that was not forked, one in a forked child — libgomp's
thread pool does not survive ``fork()``, so a child that started a team of two
after a threaded parent would wait forever on threads it never had.

Every scenario runs in a fresh interpreter (what the parent has or has not
loaded is the point) with hard timeouts inside and out: a regression fails,
it does not wedge the suite."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path


from ..conftest import needs_cc

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 16^3 padded grid, one instance per step: 4 096 points, above the ``if`` clause
_PRELUDE = """
import multiprocessing, os, sys
import numpy as np
from repro.ir import cgen
from repro.propagators.examples import build_example
from repro.telemetry import Telemetry

CPUS = len(os.sched_getaffinity(0))
assert np.prod(build_example("acoustic")[0].model.grid.shape) >= cgen.PARALLEL_MIN_POINTS

def shot(engine="c"):
    prop, dt = build_example("acoustic")
    tel = Telemetry()
    rec, plan = prop.forward(nt=16, dt=dt, engine=engine, telemetry=tel)
    assert plan.sweeps[0].engine == tel.meta["engine"] == engine
    return rec.tobytes(), tel.meta["threads"]

def dense_tti_shot():
    '''(receiver sha256, threads) of a 24^3 TTI wavefront shot with 1 000
    sources and 1 000 receivers: some sparse boxes span more than
    SPARSE_PARALLEL_MIN ids, most fewer, and the receiver matrix has 8 000
    entries, so every sparse kernel runs on both sides of its if clause.'''
    import hashlib
    from repro.core import WavefrontSchedule
    from repro.dsl import SparseTimeFunction
    from repro.propagators import SeismicModel, TTIPropagator, layered_velocity, point_source
    shape, nt, npoint = (20, 20, 20), 8, 1000
    model = SeismicModel(shape, (20.0,) * 3, layered_velocity(shape, 1.5, 3.0, 3), nbl=2,
                         space_order=4, epsilon=0.12, delta=0.05, theta=0.35, phi=0.4)
    dt = model.critical_dt("tti")
    rng = np.random.default_rng(5)
    xyz = lambda: rng.uniform(0.0, 20.0 * 19, (npoint, 3))
    src = point_source("src", model.grid, nt, xyz(), f0=0.015, dt=dt)
    rec = SparseTimeFunction("rec", model.grid, npoint=npoint, nt=nt, coordinates=xyz())
    prop = TTIPropagator(model, space_order=4, source=src, receivers=rec)
    tel = Telemetry()
    out, plan = prop.forward(nt=nt, dt=dt, schedule=WavefrontSchedule(tile=(16, 16), height=4),
                             telemetry=tel)
    assert tel.meta["engine"] == "c" and tel.counters["engine_fallbacks"] == 0
    assert plan.all_receivers()[0].drec.weights.nnz >= cgen.SPARSE_PARALLEL_MIN
    return hashlib.sha256(out.tobytes()).hexdigest(), tel.meta["threads"]

def forked(fn, *args):
    '''fn(*args) in a forked child; SystemExit if it has not answered in 20 s.'''
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: child.send(fn(*args)))
    proc.start()
    try:
        if not parent.poll(20):
            raise SystemExit("the forked child hangs in its C sweep")
        return parent.recv()
    finally:
        proc.kill()
        proc.join(10)
"""


def _run(body: str, timeout: float = 120.0, **env_extra: str) -> str:
    """*body* after the prelude in a fresh interpreter; returns its stdout."""
    # the serial reading is OpenMP's own variable: keep a caller's out of it
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OMP_", "GOMP_"))}
    env.update(PYTHONPATH=SRC, **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] or proc.stdout[-2000:]
    return proc.stdout


@needs_cc
def test_child_of_a_threaded_parent_finishes_on_a_team_of_one():
    _run("""
        rec, threads = shot()
        assert threads == CPUS, threads  # libgomp's default: the affinity mask
        child_rec, child_threads = forked(shot)
        assert child_threads == 1, child_threads
        assert child_rec == rec
        assert shot() == (rec, CPUS)  # the parent's team is untouched
    """)


@needs_cc
def test_child_of_a_parent_that_never_loaded_a_kernel_is_single_threaded_too():
    _run("""
        rec, threads = shot("fused")
        assert threads == 1 and cgen._OMP is None and not cgen._LIBS
        child_rec, child_threads = forked(shot)
        assert child_threads == 1, child_threads
        assert child_rec == rec
        # and so is its own child
        assert forked(forked, shot) == (rec, 1)
    """)


@needs_cc
def test_dense_sparse_layer_is_the_same_on_one_thread_and_on_the_team():
    """The sparse kernels touch every affected point from exactly one
    iteration: a dense-source TTI shot's receivers are byte-equal under
    ``OMP_NUM_THREADS=1`` and on the default team."""
    body = """
        digest, threads = dense_tti_shot()
        print(digest, threads, CPUS)
    """
    serial = _run(body, OMP_NUM_THREADS="1").split()
    team = _run(body).split()
    assert serial[1] == "1" and team[1] == team[2], (serial, team)
    assert serial[0] == team[0]


@needs_cc
def test_child_after_threaded_sparse_kernels_finishes_on_a_team_of_one():
    _run("""
        digest, threads = dense_tti_shot()
        assert threads == CPUS, threads
        assert forked(dense_tti_shot) == (digest, 1)
        assert dense_tti_shot() == (digest, CPUS)
    """)


@needs_cc
def test_job_fleets_after_a_threaded_supervisor(tmp_path):
    """Daemons are forked from a supervisor whose pool is live: they run
    single-threaded; the inline fleet is the supervisor and keeps its team."""
    _run(f"""
        from pathlib import Path
        from repro.jobs import JobPool, JobSpec, run_job_inline
        from repro.jobs.worker import durable_result

        assert shot()[1] == CPUS
        specs = [JobSpec(f"shot-{{i}}", nt=16, seed=i, schedule="naive", engine="c",
                         deadline=15.0, max_attempts=1) for i in range(4)]
        for workers, team in ((2, 1), (0, CPUS)):
            workdir = Path({str(tmp_path)!r}) / f"w{{workers}}"
            pool = JobPool(workers=workers, workdir=workdir, batch_seed=3)
            pool.submit(specs)
            report = pool.run()
            assert report.ok, [(r.spec.job_id, r.status, r.error) for r in report.results]
            for spec in specs:
                result = report.result_for(spec.job_id)
                assert result.engine == "c"
                assert np.array_equal(result.receivers, run_job_inline(spec))
                meta = durable_result(workdir / spec.job_id, None)[1]
                assert meta["threads"] == team, (workers, meta["threads"])
    """, timeout=300.0)
