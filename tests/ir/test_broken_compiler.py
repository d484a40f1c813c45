"""A host whose compiler runs but fails (here: a ``gcc`` that exits 1).
``cgen.build`` remembers such a failure per process and per build key, so a
warm process pays one failed compile per source, not one per run; every run
still falls to ``fused`` with its warning and the same bits, and the shot
service reports each fall with its reason."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.errors import EngineCompilationError, EngineFallbackWarning
from repro.ir import cgen
from repro.ir.pycodegen import clear_kernel_caches
from repro.jobs import JobSpec, run_batch, run_job_inline
from repro.jobs.worker import build_problem

SOURCE = '#include <stdint.h>\nint64_t answer(void) { return 42; }\n'


@pytest.fixture
def broken_gcc(tmp_path, monkeypatch):
    """A ``gcc`` first on ``PATH`` that logs one line per run and exits 1,
    a private kernel cache, and clean in-process tables.  Returns the number
    of compiler runs so far."""
    bindir, log = tmp_path / "bin", tmp_path / "gcc-runs"
    bindir.mkdir()
    shim = bindir / "gcc"
    shim.write_text(f'#!/bin/sh\ncat > /dev/null\necho run >> "{log}"\nexit 1\n')
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    clear_kernel_caches()
    yield lambda: len(log.read_text().splitlines()) if log.exists() else 0
    clear_kernel_caches()


def _forward(prop, dt, engine):
    rec, plan = prop.forward(
        nt=16, dt=dt, schedule="wavefront", engine=engine
    )
    return rec, plan.sweeps[0].engine


def test_a_failed_build_is_remembered_until_reset(broken_gcc):
    prop, dt = build_problem(JobSpec("shot", nt=16))
    reference, _ = _forward(prop, dt, "fused")
    for _ in range(2):
        with pytest.warns(EngineFallbackWarning, match="exited 1"):
            rec, engine = _forward(prop, dt, "c")
        assert engine == "fused"
        np.testing.assert_array_equal(rec, reference)
    # one compiler run per distinct source (the sweep's: its failure ends
    # the C bind), not one per run
    assert broken_gcc() == 1
    cgen.reset()
    with pytest.warns(EngineFallbackWarning):
        _forward(prop, dt, "c")
    assert broken_gcc() == 2


def test_the_remembered_failure_is_the_build_failure(broken_gcc):
    for _ in range(2):
        with pytest.raises(EngineCompilationError, match="exited 1") as excinfo:
            cgen.build(SOURCE)
        assert excinfo.value.reason == "build-failed"
    assert broken_gcc() == 1


def test_an_unwritable_cache_is_not_remembered(broken_gcc, tmp_path, monkeypatch):
    """No usable cache directory is not a function of the key: once one is
    usable again, the next build runs the compiler."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    for _ in range(2):
        with pytest.raises(EngineCompilationError) as excinfo:
            cgen.build(SOURCE)
        assert excinfo.value.reason == "cache-unwritable"
    assert broken_gcc() == 0
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    with pytest.raises(EngineCompilationError) as excinfo:
        cgen.build(SOURCE)
    assert excinfo.value.reason == "build-failed" and broken_gcc() == 1


@pytest.mark.faults
def test_daemons_on_a_broken_compiler_pay_one_build_each(broken_gcc, tmp_path):
    specs = [JobSpec(f"shot-{i}", nt=16, seed=i, engine="c") for i in range(6)]
    report = run_batch(specs, workers=2, workdir=tmp_path / "batch")
    assert report.ok
    # one source reaches the compiler (the sweep's; its failure ends the
    # C bind), at most once in each of the two forked daemons
    assert 1 <= broken_gcc() <= 2 * 1
    for spec in specs:
        result = report.result_for(spec.job_id)
        assert result.engine == "fused"
        assert result.fallbacks == [
            {"failed": "c", "degraded_to": "fused", "reason": "build-failed"}
        ]
        with pytest.warns(EngineFallbackWarning):  # in this process too
            reference = run_job_inline(spec)
        np.testing.assert_array_equal(result.receivers, reference)
