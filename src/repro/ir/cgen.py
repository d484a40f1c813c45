"""The C back end: the ``"c"`` rung of the engine ladder.

:func:`emit_sweep` turns the typed three-address program of the shared front
half (post-factorise, post-CSE, only what C cannot express hoisted: model
terms like ``1/(c*m + c*damp)`` are register work on live reads) into one C
function per sweep — the paper's loop nest (Listings 1/4): outer loops over
the leading dimensions, one row pointer per operand, the innermost loop
vectorised, scratch slots as scalar locals.  There is no second front end:
the lint, the dtype audit and the liveness check read the very program this
emitter consumes.
Each pencil ends with the Listing-5 body of the grid-aligned injections and
receivers attached to the sweep — fused at the ``z`` level as Listing 4
does; the id of slot ``z2`` of pencil ``p`` is ``start[p] + z2``: an
affected point's id is its row.  :data:`STATIC_SOURCE` holds what does not
depend on the program: the walker that runs a run of sweep instances in one
OpenMP region, the wavefield reset, and the receiver reconstruction (the
operations of SciPy's ``csr_matvec``).

**FP contract.**  C and the fused NumPy kernel agree at 0 ulp because only
IEEE correctly-rounded operations are eligible (:data:`ELIGIBLE_OPS`, operand
dtype = result dtype, float32 or float64), the statement order per point is
the program's, contraction is off and ``-ffast-math`` is never passed
(:data:`FLAGS` is a constant, not an option).  ``#pragma GCC ivdep`` on the
innermost loop is sound because a sweep reads what it writes only at radius
0 (lint E401 rejects anything else): no dependence is carried between
iterations.  Constants arrive in an argument table, so the source depends
on program structure alone and one ``.so`` serves every ``dt``, spacing and
model of a physics x space order x dtype x rank.

**Threading contract.**  The same radius-0 argument makes the rows of one
instance independent, so each sweep's leading loops are one orphaned ``omp
for`` (Listing 6: threads share a ``(tile, t)`` instance) and every point is
still computed by the same statement sequence: a team of N equals a team of
one at 0 ulp.  The team is forked once per run of steps — the stretch of a
time tile with no Python work between its instances — by the static unit's
walker (:data:`STATIC_SOURCE`), and the ``for``'s implicit barrier orders
one instance before the next.  The sparse epilogue rides the same loop: it
touches only its pencil's points and ids, which no other pencil of the sweep
reads (radius 0 again), and each thread adds its point counts atomically.
There is no thread option: the team is the OpenMP runtime's default (the
CPUs this process may run on); a run whose largest instance is under
:data:`PARALLEL_MIN_POINTS` points (a matrix under :data:`SPARSE_PARALLEL_MIN`
entries) stays on the caller, and a forked child runs teams of one
(:func:`_after_fork_in_child`).

**Cache.**  :func:`build` keeps one shared object per ``sha256(source, flags,
compiler identity, host ISA flags)`` under ``${XDG_CACHE_HOME:-~/.cache}/
repro/kernels`` (falling back to ``<tmp>/repro-kernels-<uid>``); a directory
is used only when this user owns it and nobody else can write to it, objects
are published sealed (:func:`repro.runtime.integrity.write_sealed`, whose
temp sibling is private to the writing process) so concurrent builders race
safely, and an object that is not whole or will not load is rebuilt once.  Every
failure is an :class:`~repro.errors.EngineCompilationError` with ``engine="c"``
and a ``reason`` class, which the ladder turns into one fall to ``fused``.
A compile in which the compiler ran and exited non-zero is a function of the
key, so :func:`build` remembers it for the life of the process and raises it
again without running the compiler: a warm process on a broken toolchain
pays one failed build per source, then a dict lookup per bind.  Nothing else
is remembered (an unwritable cache, an ``OSError``), a new compiler binary
is a new key, and :func:`reset` forgets.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import EngineCompilationError
from ..runtime.integrity import read_sealed, write_sealed
from .nodes import TAProgram

__all__ = [
    "FLAGS",
    "PARALLEL_MIN_POINTS",
    "SPARSE_PARALLEL_MIN",
    "ELIGIBLE_OPS",
    "STATIC_SOURCE",
    "emit_sweep",
    "static_unit",
    "team_size",
    "zero",
    "reconstruction",
    "build",
    "cache_dirs",
    "clear_disk_cache",
]

#: never ``-ffast-math``; ``-O3`` because gcc 12's ``-O2`` vectoriser uses
#: the very-cheap cost model and leaves the innermost loop scalar
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-shared", "-fPIC")

#: a run of steps whose largest box has fewer points runs on the calling
#: thread alone (the walker's ``threaded`` argument).  Under the walker, so=4
#: acoustic spatial blocks of a 40x40x144 grid on a 2-core host, two threads
#: lose 23 % at 1 152 points and 3-6 % at 2 304, and win 4-6 % at 4 608
#: (EXPERIMENTS.md entry 27)
PARALLEL_MIN_POINTS = 2048

#: the reconstruction's ``if`` clause: a weight matrix with fewer entries runs
#: on the calling thread alone; two threads first win at 2 048 (DESIGN.md §2)
SPARSE_PARALLEL_MIN = 2048

#: instruction -> C operator (``None``: spelled out in :func:`emit_sweep`)
ELIGIBLE_OPS = {
    "add": "+", "subtract": "-", "multiply": "*", "divide": "/", "sqrt": None, "store": None,
}
_CTYPE = {"float32": "float", "float64": "double"}

_LIBS: Dict[str, ctypes.CDLL] = {}
_STATIC = None  # the loaded static unit (:func:`static_unit`)
#: key -> message of a compile the compiler ran and rejected
_FAILED: Dict[str, str] = {}
STATS = {"c_cache_hits": 0, "c_cache_misses": 0, "c_compile_s": 0.0}


def reset() -> None:
    """Forget the loaded libraries and the remembered build failures, and
    zero the counters (the C half of
    :func:`repro.ir.pycodegen.clear_kernel_caches`).  The disk cache stays:
    it is cross-process state, like every JIT cache."""
    global _STATIC
    _LIBS.clear()
    _FAILED.clear()
    _STATIC = None
    STATS.update(c_cache_hits=0, c_cache_misses=0, c_compile_s=0.0)


def _fail(reason: str, message: str) -> EngineCompilationError:
    return EngineCompilationError(f"C engine: {message}", engine="c", reason=reason)


# -- threading ---------------------------------------------------------------------

_OMP = None  # the first loaded kernel that links the OpenMP runtime: resolves ``omp_*``
_FORKED = False  # this process was born by ``fork()``


def _adopt_runtime(lib: ctypes.CDLL) -> None:
    global _OMP
    if _OMP is None and hasattr(lib, "omp_set_num_threads"):
        lib.omp_set_num_threads.argtypes = (ctypes.c_int,)
        lib.omp_set_num_threads.restype = None
        lib.omp_get_max_threads.argtypes = ()
        lib.omp_get_max_threads.restype = ctypes.c_int
        _OMP = lib
        if _FORKED:
            lib.omp_set_num_threads(1)


def _after_fork_in_child() -> None:
    """A forked child runs teams of one.  libgomp's pool does not survive
    ``fork()``: the child inherits the forking thread's pool bookkeeping but
    none of its threads, and its next team of two waits on them forever."""
    global _FORKED
    _FORKED = True
    if _OMP is not None:
        _OMP.omp_set_num_threads(1)


os.register_at_fork(after_in_child=_after_fork_in_child)


def team_size(dims: Sequence[str]) -> int:
    """How many threads a sweep over *dims* called from this thread runs on:
    the OpenMP runtime's own ``nthreads`` (by default the CPUs this process
    may run on; 1 in a forked child), 1 where no loop is threaded."""
    return _OMP.omp_get_max_threads() if _OMP is not None and len(dims) > 1 else 1


# -- emission ----------------------------------------------------------------------


#: one attached operator's record in a sweep's ``sp`` table (:func:`emit_sweep`)
SPARSE_RECORD = ("nnz", "sid", "start", "max_nnz", "base", "stride", "toff", "nrows", "ring")

#: Listing 5 for pencil ``p``, per operator: slot ``z2`` is the point of id
#: ``start[p] + z2`` at ``z = Sp_SID[p][z2]``; ``ivdep`` is sound because
#: ``Sp_SID`` ascends strictly in a pencil (``runtime.preflight.check_masks``)
_EPILOGUE = """\
if (row{o}) {{  /* {what} {out} */
  const int32_t n = ((const int32_t *)(intptr_t)r{o}[0])[p];
  const int32_t *const zs = (const int32_t *)(intptr_t)r{o}[1] + p * r{o}[3];
  {data} = row{o} + ((const int64_t *)(intptr_t)r{o}[2])[p];
  if (zfull) {{
    {count} += n;
#pragma GCC ivdep
    for (int32_t z2 = 0; z2 < n; ++z2)
      {body}
  }} else
    for (int32_t z2 = 0; z2 < n; ++z2) {{
      const int64_t {z} = zs[z2] - lo_{z};
      if ({z} < 0 || {z} >= n{z}) continue;
      {checked}
      ++{count};
    }}
}}"""


def emit_sweep(
    program: TAProgram, dims: Sequence[str], name: str = "sweep",
    sparse: Sequence[Tuple[str, int]] = (),
) -> str:
    """The C function ``name(tab, ctab, sp, t)`` of one sweep over a
    ``len(dims)``-dimensional box, called by every thread of the walker's
    team: its leading loops are an orphaned ``omp for`` (a 1-D box, an ``omp
    single``), whose barrier ends the instance.

    ``tab`` holds the box extents, then one base pointer per operand (outs,
    then views) at the box origin, then each operand's byte strides over the
    leading dimensions (the innermost is contiguous, checked where the table
    is built), then the box origin; ``ctab`` holds the program's constants as
    doubles (exact for a float32 constant).

    *sparse* lists the grid-aligned operators attached to the sweep, as
    ``("inject" | "gather", index of the out operand they touch)``,
    injections first.  Their Listing-5 bodies run in each pencil's
    epilogue, after its ``z`` loop, unless ``sp`` is ``NULL``.  ``sp`` holds
    the injected and gathered counts (the kernel adds to them), the grid's
    innermost extent, the masks' pencil strides, then a
    :data:`SPARSE_RECORD` per operator: its ``nnz`` / ``Sp_SID`` / ``start``
    tables, then where its row for timestep ``t`` lives — row ``t + toff``,
    skipped unless in ``[0, nrows)``, at ``base + (row % ring) * stride``
    (``src_dcmp`` rows, or the receiver's staging ring).  Each thread adds
    its counts to ``sp`` atomically."""
    for ins in program.instrs:
        nargs = 2 if ELIGIBLE_OPS.get(ins.op) else 1
        if (
            ins.op not in ELIGIBLE_OPS
            or len(ins.args) != nargs
            or ins.out.dtype not in _CTYPE
            or any(a.kind == "scalar" or a.dtype != ins.out.dtype for a in ins.args)
        ):
            raise _fail(
                f"ineligible:{ins.op}",
                f"`{ins.render()}` is not a same-dtype float32/float64 "
                f"{'/'.join(ELIGIBLE_OPS)}",
            )
    *outer, inner = dims
    nd, nouter = len(dims), len(outer)
    operands = [(n, dt, "") for n, dt in program.outs] + [
        (n, dt, "const ") for n, dt in program.views
    ]
    lines = [
        f"void {name}(const int64_t *tab, const double *ctab, int64_t *sp, int64_t t)",
        "{",
        "  const int64_t " + ", ".join(f"n{d} = tab[{i}]" for i, d in enumerate(dims)) + ";",
    ]
    for i, (cname, dt) in enumerate(program.consts):
        lines.append(f"  const {_CTYPE[dt]} {cname} = ({_CTYPE[dt]})ctab[{i}];")
    epilogue = []
    if sparse:
        lo = nd + len(operands) * (1 + nouter)
        lines += [
            "  const int64_t " + ", ".join(f"lo_{d} = tab[{lo + i}]" for i, d in enumerate(dims))
            + ";",
            f"  const int zfull = sp && lo_{inner} == 0 && n{inner} == sp[2];",
            "  int64_t injected = 0, gathered = 0;",
        ]
        strides = [f"(lo_{d} + {d}) * sp[{3 + i}]" for i, d in enumerate(outer)]
        epilogue = ["if (sp) {", f"  const int64_t p = {' + '.join(strides) or '0'};"]
        for o, (kind, k) in enumerate(sparse):
            out, real, inj = program.outs[k][0], _CTYPE[program.outs[k][1]], kind == "inject"
            ctype = real if inj else "double"
            data = f"const {real} *const vals" if inj else "double *const stage"
            stmt = out + "[{z}] += vals[z2];" if inj else "stage[z2] = (double)" + out + "[{z}];"
            row, rec = f"(t + r{o}[6])", 3 + nouter + o * len(SPARSE_RECORD)
            lines += [
                f"  const int64_t *const r{o} = sp ? sp + {rec} : 0;",
                f"  {ctype} *const row{o} = r{o} && {row} >= 0 && {row} < r{o}[7] ? "
                f"({ctype} *)(intptr_t)(r{o}[4] + {row} % r{o}[8] * r{o}[5]) : 0;",
            ]
            text = _EPILOGUE.format(
                o=o, out=out, z=inner, data=data, body=stmt.format(z="zs[z2]"),
                checked=stmt.format(z=inner), what="injection into" if inj else "gather of",
                count="injected" if inj else "gathered",
            )
            epilogue += ["  " + line if line[0] != "#" else line for line in text.split("\n")]
        epilogue.append("}")
    pad = "  "
    if outer:
        lines.append(f"#pragma omp for collapse({nouter}) schedule(static)")
    else:  # no leading loop to share: one thread of the team runs the box
        lines += ["#pragma omp single", "  {"]
        pad = "    "
    for d in outer:
        lines.append(f"{pad}for (int64_t {d} = 0; {d} < n{d}; ++{d}) {{")
        pad += "  "
    for k, (oname, dt, const) in enumerate(operands):
        row = f"(char *)(intptr_t)tab[{nd + k}]" + "".join(
            f" + {d} * tab[{nd + len(operands) + k * nouter + i}]" for i, d in enumerate(outer)
        )
        lines.append(f"{pad}{const}{_CTYPE[dt]} *const {oname} = ({const}{_CTYPE[dt]} *)({row});")
    lines.append("#pragma GCC ivdep")
    lines.append(f"{pad}for (int64_t {inner} = 0; {inner} < n{inner}; ++{inner}) {{")
    body = pad + "  "
    by_type: Dict[str, List[str]] = {}
    for sname, dt in program.slots:
        by_type.setdefault(_CTYPE[dt], []).append(sname)
    for ctype, names in by_type.items():
        lines.append(f"{body}{ctype} {', '.join(names)};")

    def ref(operand) -> str:
        return operand.name if operand.kind in ("slot", "const") else f"{operand.name}[{inner}]"

    for ins in program.instrs:
        args = [ref(a) for a in ins.args]
        if ins.op == "store":
            rhs = args[0]
        elif ins.op == "sqrt":
            rhs = f"{'sqrtf' if ins.out.dtype == 'float32' else 'sqrt'}({args[0]})"
        else:
            rhs = f"{args[0]} {ELIGIBLE_OPS[ins.op]} {args[1]}"
        lines.append(f"{body}{ref(ins.out)} = {rhs};")
    lines.append(f"{pad}}}")
    lines += [line if line[0] == "#" else pad + line for line in epilogue]
    for depth in range(max(nouter, 1), 0, -1):
        lines.append("  " * depth + "}")
    if sparse:
        lines += [
            "  if (sp) {", "#pragma omp atomic", "    sp[0] += injected;",
            "#pragma omp atomic", "    sp[1] += gathered;", "  }",
        ]
    lines.append("}")
    return "#include <stdint.h>\n#include <math.h>\n\n" + "\n".join(lines) + "\n"


_WALKER = """
typedef void (*sweep_fn)(const int64_t *, const double *, int64_t *, int64_t);

/* one run of sweep instances in one parallel region: row i of steps is
   (sweep function, tab, ctab, sweep index j, dt), and every thread calls
   fn(tab, ctab, sps[j], t0 + dt); the sweep's omp for shares the rows and
   its barrier ends the instance.  stamps, unless NULL, gets each instance's
   CLOCK_MONOTONIC end in ns */
void walk(int64_t n, const int64_t *steps, const int64_t *sps, int64_t t0,
          int64_t threaded, int64_t *stamps)
{
#pragma omp parallel if(threaded)
  for (int64_t i = 0; i < n; ++i) {
    const int64_t *const s = steps + 5 * i;
    ((sweep_fn)(intptr_t)s[0])((const int64_t *)(intptr_t)s[1], (const double *)(intptr_t)s[2],
                               (int64_t *)(intptr_t)sps[s[3]], t0 + s[4]);
#pragma omp master
    if (stamps) {
      struct timespec now;
      clock_gettime(CLOCK_MONOTONIC, &now);
      stamps[i] = (int64_t)now.tv_sec * 1000000000 + now.tv_nsec;
    }
  }
}

/* the wavefield reset: nbytes[i] bytes at bufs[i] zeroed in ZERO_CHUNK
   pieces shared by the team */
void zero_fill(int64_t n, const int64_t *bufs, const int64_t *nbytes)
{
#pragma omp parallel
  for (int64_t i = 0; i < n; ++i) {
    char *const b = (char *)(intptr_t)bufs[i];
    const int64_t m = (nbytes[i] + ZERO_CHUNK - 1) / ZERO_CHUNK;
#pragma omp for schedule(static) nowait
    for (int64_t c = 0; c < m; ++c)
      memset(b + c * ZERO_CHUNK, 0, c < m - 1 ? ZERO_CHUNK : nbytes[i] - c * ZERO_CHUNK);
  }
}
"""

_RECONSTRUCT = """
/* receiver traces: out[r] = (REAL) sum of w[k] * stage[col[k]] over the CSR
   entries of row r in stored order, from 0.0 in double -- the operations of
   SciPy's csr_matvec, then one cast */
void aligned_reconstruct_SFX(int64_t nrows, const int32_t *indptr, const int32_t *col,
                             const double *w, const double *stage, REAL *out)
{
#pragma omp parallel for schedule(static) if(indptr[nrows] >= SPARSE_PARALLEL_MIN)
  for (int64_t r = 0; r < nrows; ++r) {
    double sum = 0.0;
    for (int32_t k = indptr[r]; k < indptr[r + 1]; ++k)
      sum += w[k] * stage[col[k]];
    out[r] = (REAL)sum;
  }
}
"""

#: the static unit, one per process: the walker (:func:`static_unit`), the
#: wavefield reset (:func:`zero`) and the receivers' reconstruction, per
#: trace dtype (injection and gather run in the sweeps' epilogues,
#: :func:`emit_sweep`)
STATIC_SOURCE = (
    "#include <stdint.h>\n#include <string.h>\n#include <time.h>\n\n"
    f"#define SPARSE_PARALLEL_MIN {SPARSE_PARALLEL_MIN}\n#define ZERO_CHUNK 65536\n"
    + _WALKER
    + "".join(
        _RECONSTRUCT.replace("REAL", ctype).replace("SFX", dt) for dt, ctype in _CTYPE.items()
    )
)


# -- build, cache, load ------------------------------------------------------------


def cache_dirs() -> List[Path]:
    """Candidate cache directories, most preferred first."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec: a relative value is ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return [
        Path(base) / "repro" / "kernels",
        Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}",
    ]


def _trusted(directory: Path) -> bool:
    """Ours alone: a ``.so`` anyone else could replace is code execution."""
    try:
        st = os.stat(directory)
    except OSError:
        return False
    return (
        st.st_uid == os.getuid()
        and not st.st_mode & 0o022
        and os.access(directory, os.W_OK | os.X_OK)
    )


def _cache_dir() -> Path:
    for candidate in cache_dirs():
        try:
            os.makedirs(candidate, mode=0o700, exist_ok=True)
        except OSError:
            continue
        if _trusted(candidate):
            return candidate
    raise _fail(
        "cache-unwritable",
        "no kernel cache directory owned by this user and closed to others among "
        + ", ".join(map(str, cache_dirs())),
    )


def clear_disk_cache() -> None:
    """Delete every cached object (tests; :func:`reset` never does)."""
    for directory in cache_dirs():
        if _trusted(directory):
            for path in directory.glob("*.so"):
                path.unlink(missing_ok=True)


@functools.lru_cache(maxsize=1)
def _host_isa() -> str:
    """What ``-march=native`` resolves to: a shared cache must not hand one
    host's object to another."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((line for line in fh if line.startswith(("flags", "Features"))), "")
    except OSError:
        flags = ""
    return f"{platform.machine()} {flags.strip()}"


def _compile(cc: str, source: str, path: Path) -> None:
    try:
        fd, out = tempfile.mkstemp(dir=path.parent, prefix=path.stem[:16] + ".", suffix=".tmp")
    except OSError as exc:
        raise _fail("cache-unwritable", f"cannot write to {path.parent}: {exc}") from exc
    os.close(fd)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", out, "-lm"],
            input=source, text=True, capture_output=True,
        )
        if proc.returncode != 0:
            _FAILED[path.stem] = f"{cc} exited {proc.returncode}: {proc.stderr.strip()}"
            raise _fail("build-failed", _FAILED[path.stem])
        # readers see the old object, none, or a whole new one; ``dlopen``
        # ignores the seal past the image
        write_sealed(path, [Path(out).read_bytes()])
    except OSError as exc:
        raise _fail("build-failed", f"building with {cc} failed: {exc}") from exc
    finally:
        STATS["c_cache_misses"] += 1
        STATS["c_compile_s"] += time.perf_counter() - start
        if os.path.exists(out):
            os.unlink(out)


def build(source: str) -> ctypes.CDLL:
    """The loaded shared object of *source*: from this process's table, the
    disk cache, or a fresh compile, in that order — or the remembered
    failure of an earlier compile of the same key."""
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        raise _fail("no-compiler", "no C compiler (gcc, cc) on PATH")
    real = os.path.realpath(cc)
    st = os.stat(real)
    key = hashlib.sha256(
        "\0".join(
            (source, " ".join(FLAGS), f"{real}:{st.st_size}:{st.st_mtime_ns}", _host_isa())
        ).encode()
    ).hexdigest()
    lib = _LIBS.get(key)
    if lib is None:
        if key in _FAILED:
            raise _fail("build-failed", _FAILED[key])
        path = _cache_dir() / f"{key}.so"  # the object's stem is its key
        compiled = False
        for _attempt in range(2):
            # checked before every load: ``dlopen`` answers a truncated image
            # with SIGBUS, and a flipped byte may load and run wrong code
            if read_sealed(path) is None:
                _compile(cc, source, path)
                compiled = True
            try:
                lib = _LIBS[key] = ctypes.CDLL(str(path))
                _adopt_runtime(lib)
                break
            except OSError as exc:
                # sealed yet unloadable (a foreign or broken toolchain): rebuild once
                error = exc
                path.unlink(missing_ok=True)
        else:
            raise _fail("load-failed", f"{path.name} will not load: {error}")
        if compiled:
            return lib
    STATS["c_cache_hits"] += 1
    return lib


def static_unit() -> ctypes.CDLL:
    """The loaded :data:`STATIC_SOURCE`, its functions typed, once a process
    (until :func:`reset`).  ``walk(n, steps, sps, t0, threaded, stamps)``
    runs the *n* rows of the int64 ``steps`` table; ``sps`` holds each
    sweep's ``sp`` table address (0: none)."""
    global _STATIC
    if _STATIC is None:
        lib, addr, i64 = build(STATIC_SOURCE), ctypes.c_void_p, ctypes.c_int64
        for name, args in [("walk", (i64, addr, addr, i64, i64, addr)),
                           ("zero_fill", (i64, addr, addr))] + [
                (f"aligned_reconstruct_{dt}", (i64,) + (addr,) * 5) for dt in _CTYPE]:
            getattr(lib, name).argtypes, getattr(lib, name).restype = args, None
        _STATIC = lib
    return _STATIC


def zero(arrays: Sequence[np.ndarray]) -> bool:
    """Zero the C-contiguous *arrays* on the team and return ``True``; or
    return ``False``, touching nothing, when no C rung has loaded the static
    unit in this process (the caller zeroes them with NumPy)."""
    if _STATIC is None or not all(a.flags.c_contiguous for a in arrays):
        return False
    bufs = np.array([[a.ctypes.data, a.nbytes] for a in arrays], dtype=np.int64).T.copy()
    _STATIC.zero_fill(len(arrays), bufs[0].ctypes.data, bufs[1].ctypes.data)
    return True


def reconstruction(weights, output: np.ndarray):
    """``fn(row, stage_address)`` setting ``output[row] = weights @ stage``
    with the operations of ``weights.dot(stage)`` (0 ulp apart), or ``None``
    when *weights* is not an int32-indexed float64 CSR matrix or *output* not
    a C-contiguous float32/float64 ``(nt, nrows)`` array.  Both are read in
    place: the caller keeps them alive."""
    w = weights
    parts = (w.indptr, w.indices, w.data) if w.format == "csr" else ()
    if not (
        parts and w.indptr.dtype == w.indices.dtype == np.int32 and w.data.dtype == np.float64
        and all(a.flags.c_contiguous for a in parts + (output,))
        and output.dtype.name in _CTYPE and output.shape[1:] == w.shape[:1]
    ):
        return None
    fn = getattr(static_unit(), f"aligned_reconstruct_{output.dtype.name}")
    args = (w.shape[0], *(a.ctypes.data for a in parts))
    base, stride = output.ctypes.data, output.strides[0]

    def reconstruct(row: int, stage_address: int) -> None:
        fn(*args, stage_address, base + row * stride)

    return reconstruct
