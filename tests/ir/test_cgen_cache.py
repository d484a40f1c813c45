"""The on-disk ``.so`` cache: keyed by content, published atomically, trusted
only when it is ours alone, self-healing when an object will not load — and
every way it can fail ends on ``fused`` with identical numbers."""

import hashlib
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.errors import EngineCompilationError, EngineFallbackWarning
from repro.ir import cgen
from repro.ir.pycodegen import clear_kernel_caches, kernel_cache_stats

from ..conftest import make_acoustic_operator, needs_cc

pytestmark = needs_cc

NT = 6
DT = 0.5
SOURCE = '#include <stdint.h>\nint64_t answer(void) { return 42; }\n'


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A private, empty cache directory and clean in-process tables."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    clear_kernel_caches()
    yield tmp_path / "xdg" / "repro" / "kernels"
    clear_kernel_caches()


def _apply(grid, **kwargs):
    op, u, m, src, rec = make_acoustic_operator(grid, nt=NT)
    plan = op.apply(time_M=NT, dt=DT, **kwargs)
    return plan.sweeps[0].engine, u.interior(NT).copy(), rec.data.copy()


def test_hit_miss_accounting_and_what_clear_clears(cache, grid2d):
    assert cgen.build(SOURCE).answer() == 42
    assert kernel_cache_stats()["c_cache_misses"] == 1
    assert kernel_cache_stats()["c_compile_s"] > 0
    (so,) = cache.glob("*.so")
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    cgen.build(SOURCE)  # this process's table
    assert kernel_cache_stats()["c_cache_hits"] == 1
    clear_kernel_caches()  # in-process tables only: the disk cache is cross-process
    assert kernel_cache_stats()["c_cache_hits"] == kernel_cache_stats()["c_cache_misses"] == 0
    assert so.exists()
    assert cgen.build(SOURCE).answer() == 42  # from disk: no compiler run
    stats = kernel_cache_stats()
    assert (stats["c_cache_hits"], stats["c_cache_misses"], stats["c_compile_s"]) == (1, 0, 0.0)
    cgen.clear_disk_cache()
    assert not list(cache.glob("*.so"))


def test_one_object_serves_every_dt_and_model(cache, grid2d, grid3d):
    from repro.telemetry import Telemetry

    for dt in (0.5, 0.25):
        op, *_ = make_acoustic_operator(grid2d, nt=NT)
        tel = Telemetry()
        op.apply(time_M=NT, dt=dt, telemetry=tel)
        assert tel.meta["engine"] == "c"
        if dt == 0.5:  # the sweep and the sparse unit, compiled inside `precompute`
            assert tel.counters["c_cache_misses"] == 2
            assert 0 < tel.meta["c_compile_s"] <= tel.phase_seconds["precompute"]
        else:
            assert tel.counters["c_cache_misses"] == 0 and tel.counters["c_cache_hits"] > 0
    assert len(list(cache.glob("*.so"))) == 2
    make_acoustic_operator(grid3d, nt=NT)[0].apply(time_M=NT, dt=DT)  # another rank
    assert len(list(cache.glob("*.so"))) == 3


_RACER = """
import hashlib, sys
import numpy as np
sys.path.insert(0, {tests!r})
from tests.conftest import make_acoustic_operator
from repro.dsl import Grid
from repro.ir.pycodegen import kernel_cache_stats
op, u, m, src, rec = make_acoustic_operator(Grid(shape=(14, 12), extent=(130.0, 110.0)), nt=6)
plan = op.apply(time_M=6, dt=0.5)
print(plan.sweeps[0].engine, kernel_cache_stats()["c_cache_misses"],
      hashlib.sha256(u.interior(6).tobytes() + rec.data.tobytes()).hexdigest())
"""


def _spawn():
    """The racer script in a fresh interpreter sharing this test's cache."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONWARNINGS="error")
    return subprocess.Popen(
        [sys.executable, "-c", _RACER.format(tests=str(root))], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    engine, misses, digest = out.split()
    return engine, int(misses), digest


def _digest(u, rec):
    return hashlib.sha256(u.tobytes() + rec.tobytes()).hexdigest()


def _damaged(blob: bytes, damage: str) -> bytes:
    if damage == "truncate":
        return blob[: len(blob) // 3]
    if damage == "garbage":
        return b"\x7fELF" + b"\0" * 64
    flipped = bytearray(blob)  # same length: it may still load, and run wrong code
    flipped[len(blob) // 2] ^= 0xFF
    return bytes(flipped)


@pytest.mark.parametrize("damage", ["truncate", "garbage", "flip"])
def test_unloadable_object_is_deleted_and_rebuilt_once(cache, grid2d, damage):
    """Another process left objects this one must not load (a truncated file,
    a foreign ISA, a flipped byte only the seal sees): no warning, one rebuild
    each, the same bits."""
    engine, misses, digest = _finish(_spawn())
    assert (engine, misses) == ("c", 2)
    for so in cache.glob("*.so"):
        so.write_bytes(_damaged(so.read_bytes(), damage))
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        engine, got_u, got_rec = _apply(grid2d)
    assert engine == "c" and kernel_cache_stats()["c_cache_misses"] == 2
    assert _digest(got_u, got_rec) == digest
    assert _finish(_spawn()) == ("c", 0, digest)  # and the repaired cache serves others


def test_compiler_that_emits_junk_falls_to_fused(cache, grid2d, tmp_path, monkeypatch):
    """Rebuilt once, still unloadable: ``load-failed``, one warning, fused."""
    _, ref_u, ref_rec = _apply(grid2d, engine="fused")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    fake = bindir / "gcc"
    fake.write_text(
        '#!/bin/sh\ncat > /dev/null\nwhile [ "$1" != "-o" ]; do shift; done\necho junk > "$2"\n'
    )
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir))
    with pytest.warns(EngineFallbackWarning, match="will not load") as caught:
        engine, got_u, got_rec = _apply(grid2d)
    assert engine == "fused" and len(caught) == 1
    assert kernel_cache_stats()["c_cache_misses"] == 2  # built, then rebuilt once
    assert not list(cache.glob("*"))  # the junk was not left behind
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)


def test_untrusted_directory_is_refused(cache, grid2d, tmp_path, monkeypatch):
    """Group/world-writable or not ours: fall to the temp-dir location, then
    to ``fused`` — never load a ``.so`` somebody else could have put there."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    fallback = Path(tmp_path / "tmp") / f"repro-kernels-{os.getuid()}"
    assert _apply(grid2d)[0] == "c"
    assert not list(cache.glob("*.so")) and len(list(fallback.glob("*.so"))) == 2
    assert stat.S_IMODE(fallback.stat().st_mode) == 0o700

    clear_kernel_caches()
    fallback.chmod(0o770)
    _, ref_u, ref_rec = _apply(grid2d, engine="fused")
    with pytest.warns(EngineFallbackWarning, match="cache directory") as caught:
        engine, got_u, got_rec = _apply(grid2d)
    assert engine == "fused" and len(caught) == 1
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)

    cache.chmod(0o700)  # closed again, but somebody else's
    monkeypatch.setattr(os, "getuid", lambda: cache.stat().st_uid + 1)
    with pytest.raises(EngineCompilationError) as excinfo:
        cgen.build(SOURCE)
    assert excinfo.value.reason == "cache-unwritable"


def test_two_processes_race_on_an_empty_cache(cache, grid2d):
    """Same operator, same hash, no coordination: both run on C with the same
    bits, each kernel is compiled once or twice, and only whole objects are
    ever published (sealed through a temp sibling private to each process)."""
    procs = [_spawn(), _spawn()]
    (e1, m1, d1), (e2, m2, d2) = map(_finish, procs)
    assert (e1, e2) == ("c", "c") and d1 == d2
    assert 2 <= m1 + m2 <= 4  # sweep + sparse unit, each once or twice
    assert sorted(p.suffix for p in cache.iterdir()) == [".so", ".so"]
    engine, u, rec = _apply(grid2d)  # and what they left behind loads here
    assert engine == "c" and kernel_cache_stats()["c_cache_misses"] == 0
    assert _digest(u, rec) == d1
