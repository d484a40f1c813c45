"""The C back end: the ``"c"`` rung of the engine ladder.

:func:`emit_sweep` turns the typed three-address program of the shared front
half (post-factorise, post-CSE, only what C cannot express hoisted: model
terms like ``1/(c*m + c*damp)`` are register work on live reads) into one C
function per sweep — the paper's loop nest (Listings 1/4): outer loops over
the leading dimensions, one row pointer per operand, the innermost loop
vectorised, scratch slots as scalar locals.  There is no second front end:
the lint, the dtype audit and the liveness check read the very program this
emitter consumes.
:data:`SPARSE_SOURCE` holds the static (not generated) Listing-5 kernels of
the grid-aligned injection and receiver gather — the id of slot ``z2`` of
pencil ``p`` is ``start[p] + z2``: an affected point's id is its row —
and the receivers' reconstruction, the operations of SciPy's ``csr_matvec``.

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
instance independent, so the leading loops sit under one ``omp parallel for``
(Listing 6: threads share a ``(tile, t)`` instance) and every point is still
computed by the same statement sequence: a team of N equals a team of one at
0 ulp.  The sparse kernels thread their pencil walk (their receiver rows)
the same way: every affected point (trace sample) is written by exactly one
iteration, and the point counts are an integer ``reduction``.  There is no
thread option: the team is the OpenMP runtime's default (the CPUs this
process may run on), boxes under :data:`PARALLEL_MIN_POINTS` points (under
:data:`SPARSE_PARALLEL_MIN` ids) stay on the caller, and a forked child runs
teams of one (:func:`_after_fork_in_child`).

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
    "SPARSE_SOURCE",
    "emit_sweep",
    "sweep_function",
    "team_size",
    "SparseKernels",
    "build",
    "cache_dirs",
    "clear_disk_cache",
]

#: never ``-ffast-math``; ``-O3`` because gcc 12's ``-O2`` vectoriser uses
#: the very-cheap cost model and leaves the innermost loop scalar
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fopenmp", "-shared", "-fPIC")

#: boxes below this many points run on the calling thread alone (the ``if``
#: clause of :func:`emit_sweep`).  Measured on this 2-core host, so=4 acoustic
#: sweep: at 1 152 points (2x4x144) two threads lose, 4.0 -> 4.6 us per
#: instance; at 2 304 (4x4x144) they first win, 6.0 -> 5.5 us
PARALLEL_MIN_POINTS = 2048

#: the sparse kernels' ``if`` clause: a box whose pencils span fewer ids (a
#: matrix with fewer entries) runs on the calling thread alone.  Measured
#: like :data:`PARALLEL_MIN_POINTS`: two threads lose at 1 420 ids, first win
#: at 1 896; the reconstruction first wins at 2 048 entries (DESIGN.md §2)
SPARSE_PARALLEL_MIN = 2048

#: instruction -> C operator (``None``: spelled out in :func:`emit_sweep`)
ELIGIBLE_OPS = {
    "add": "+", "subtract": "-", "multiply": "*", "divide": "/", "sqrt": None, "store": None,
}
_CTYPE = {"float32": "float", "float64": "double"}

_LIBS: Dict[str, ctypes.CDLL] = {}
#: key -> message of a compile the compiler ran and rejected
_FAILED: Dict[str, str] = {}
STATS = {"c_cache_hits": 0, "c_cache_misses": 0, "c_compile_s": 0.0}


def reset() -> None:
    """Forget the loaded libraries and the remembered build failures, and
    zero the counters (the C half of
    :func:`repro.ir.pycodegen.clear_kernel_caches`).  The disk cache stays:
    it is cross-process state, like every JIT cache."""
    _LIBS.clear()
    _FAILED.clear()
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


def emit_sweep(program: TAProgram, dims: Sequence[str], name: str = "sweep") -> str:
    """The C function of one sweep over a ``len(dims)``-dimensional box.

    ``tab`` holds the box extents, then one base pointer per operand (outs,
    then views) at the box origin, then each operand's byte strides over the
    leading dimensions (the innermost is contiguous, checked where the table
    is built); ``ctab`` holds the program's constants as doubles (exact for a
    float32 constant)."""
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
        f"void {name}(const int64_t *tab, const double *ctab)",
        "{",
        "  const int64_t " + ", ".join(f"n{d} = tab[{i}]" for i, d in enumerate(dims)) + ";",
    ]
    for i, (cname, dt) in enumerate(program.consts):
        lines.append(f"  const {_CTYPE[dt]} {cname} = ({_CTYPE[dt]})ctab[{i}];")
    pad = "  "
    if outer:
        lines.append(
            f"#pragma omp parallel for collapse({nouter}) schedule(static) "
            f"if({' * '.join('n' + d for d in dims)} >= {PARALLEL_MIN_POINTS})"
        )
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
    for depth in range(nouter + 1, 0, -1):
        lines.append("  " * depth + "}")
    lines.append("}")
    return "#include <stdint.h>\n#include <math.h>\n\n" + "\n".join(lines) + "\n"


_SPARSE_HEADER = """#include <stdint.h>

#define SPARSE_PARALLEL_MIN MIN_IDS

typedef struct {
  const int32_t *nnz, *Sp_SID; /* nnz[x][y], Sp_SID[x][y][z2] */
  const int64_t *start;        /* nnz[0] + ... + nnz[p - 1]: id of slot 0 of pencil p */
  int64_t ny, max_nnz;         /* mask extents */
  int64_t sx, sy;              /* field byte strides; z is contiguous */
} masks_t;

/* how many ids the pencils of box = {x0, x1, y0, y1, z0, z1} span, one
   row of pencils at a time: the work measure of the if clauses below */
static int64_t id_span(const masks_t *m, const int64_t *box)
{
  int64_t ids = 0;
  for (int64_t x = box[0]; x < box[1]; ++x)
    ids += m->start[x * m->ny + box[3]] - m->start[x * m->ny + box[2]];
  return ids;
}
"""

_SPARSE_TEMPLATE = """
/* Listing 5: u[t+k][x][y][zind] += src_dcmp[t][id] over the affected points
   of box; ids follow the sorted key order, so slot z2 of pencil p is id
   start[p] + z2.  Returns how many points it touched */
int64_t aligned_inject_SFX(const masks_t *m, const int64_t *box, char *u, const REAL *src_dcmp_t)
{
  int64_t count = 0;
#pragma omp parallel for collapse(2) schedule(static) reduction(+:count) if(id_span(m, box) >= SPARSE_PARALLEL_MIN)
  for (int64_t x = box[0]; x < box[1]; ++x)
    for (int64_t y = box[2]; y < box[3]; ++y) {
      const int64_t p = x * m->ny + y;
      REAL *const row = (REAL *)(u + x * m->sx + y * m->sy);
      for (int32_t z2 = 0; z2 < m->nnz[p]; ++z2) {
        const int64_t zind = m->Sp_SID[p * m->max_nnz + z2];
        if (zind < box[4] || zind >= box[5]) continue;
        row[zind] += src_dcmp_t[m->start[p] + z2];
        ++count;
      }
    }
  return count;
}

/* the receiver side: stage[id] = u[t+k][x][y][zind] */
int64_t aligned_gather_SFX(const masks_t *m, const int64_t *box, const char *u, double *stage)
{
  int64_t count = 0;
#pragma omp parallel for collapse(2) schedule(static) reduction(+:count) if(id_span(m, box) >= SPARSE_PARALLEL_MIN)
  for (int64_t x = box[0]; x < box[1]; ++x)
    for (int64_t y = box[2]; y < box[3]; ++y) {
      const int64_t p = x * m->ny + y;
      const REAL *const row = (const REAL *)(u + x * m->sx + y * m->sy);
      for (int32_t z2 = 0; z2 < m->nnz[p]; ++z2) {
        const int64_t zind = m->Sp_SID[p * m->max_nnz + z2];
        if (zind < box[4] || zind >= box[5]) continue;
        stage[m->start[p] + z2] = (double)row[zind];
        ++count;
      }
    }
  return count;
}

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

#: the static sparse unit: grid-aligned injection and gather over the pencils
#: of a box, per field dtype, and receiver reconstruction, per trace dtype.
#: Grids of rank < 3 pad leading extents to 1.
SPARSE_SOURCE = _SPARSE_HEADER.replace("MIN_IDS", str(SPARSE_PARALLEL_MIN)) + "".join(
    _SPARSE_TEMPLATE.replace("REAL", ctype).replace("SFX", dt) for dt, ctype in _CTYPE.items()
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


def sweep_function(program: TAProgram, dims: Sequence[str]):
    """``fn(tab_address, ctab_address)`` for *program* (see :func:`emit_sweep`)."""
    fn = build(emit_sweep(program, dims)).sweep
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p)
    fn.restype = None
    return fn


class _Masks(ctypes.Structure):
    _fields_ = [(n, ctypes.c_void_p) for n in ("nnz", "Sp_SID", "start")] + [
        (n, ctypes.c_int64) for n in ("ny", "max_nnz", "sx", "sy")
    ]


class SparseKernels:
    """The static sparse unit bound to one ``(masks, field)`` pair:
    ``inject(t_buffer, box, src_dcmp_row_address)`` and
    ``gather(t_buffer, box, stage_address)`` run Listing 5 over *box* (a
    tuple of ``(lo, hi)`` per dimension, ``None`` = the whole grid) and
    return the number of affected points visited; :meth:`reconstruction`
    binds a receiver weight matrix.  The kernels read the id of slot ``z2``
    of pencil ``p`` as ``start[p] + z2``, ``start`` being the prefix sum of
    ``nnz`` built here once (ids follow the sorted key order, which
    ``runtime.preflight.check_masks`` enforces)."""

    def __init__(self, masks, field):
        buf = field.buffer(0)
        ndim = buf.ndim
        if ndim > 3 or field.dtype.name not in _CTYPE or buf.strides[-1] != buf.itemsize:
            raise _fail("ineligible:sparse", f"field {field.name!r}: rank {ndim} {field.dtype}")
        lib = build(SPARSE_SOURCE)
        self._inject = getattr(lib, f"aligned_inject_{field.dtype.name}")
        self._gather = getattr(lib, f"aligned_gather_{field.dtype.name}")
        for fn in (self._inject, self._gather):
            fn.argtypes = (ctypes.c_void_p,) * 4
            fn.restype = ctypes.c_int64
        self._reconstruct = {dt: getattr(lib, f"aligned_reconstruct_{dt}") for dt in _CTYPE}
        for fn in self._reconstruct.values():
            fn.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 5
            fn.restype = None
        # the tables are read through raw pointers: keep them alive here
        nnz = np.ascontiguousarray(masks.nnz, dtype=np.int32)
        start = np.zeros(nnz.size + 1, dtype=np.int64)
        np.cumsum(nnz.reshape(-1), out=start[1:])
        self._tables = (nnz, np.ascontiguousarray(masks.sp_sid, dtype=np.int32), start)
        shape = (1,) * (3 - ndim) + tuple(masks.grid.shape)
        strides = (0,) * (3 - ndim) + buf.strides
        self._masks = _Masks(
            *(a.ctypes.data for a in self._tables),
            shape[1], masks.max_nnz, strides[0], strides[1],
        )
        self._maddr = ctypes.addressof(self._masks)
        # interior origin of each time buffer: Function storage is written in
        # place, never reallocated, so the addresses hold across applies
        self._field = field
        origin = field.halo * sum(buf.strides)
        self._origins = [
            field.buffer(k).ctypes.data + origin for k in range(field.buffers)
        ]
        self._full = tuple((0, n) for n in masks.grid.shape)
        #: box -> [address of its int64[6], affected points inside (``None``
        #: until a kernel has counted them), the array itself]
        self._boxes: Dict[Tuple, list] = {}

    def _run(self, kernel, t: int, box, data_address: int) -> int:
        entry = self._boxes.get(box)
        if entry is None:
            flat = [v for pair in ((0, 1),) * (3 - len(self._full)) + (box or self._full)
                    for v in pair]
            arr = (ctypes.c_int64 * 6)(*flat)
            if len(self._boxes) >= 4096:
                self._boxes.clear()
            entry = self._boxes[box] = [ctypes.addressof(arr), None, arr]
        if entry[1] == 0:  # most tiles hold no point: skip the pencil walk
            return 0
        entry[1] = kernel(
            self._maddr, entry[0], self._origins[t % len(self._origins)], data_address
        )
        return entry[1]

    def inject(self, t: int, box, row_address: int) -> int:
        return self._run(self._inject, t, box, row_address)

    def gather(self, t: int, box, stage_address: int) -> int:
        return self._run(self._gather, t, box, stage_address)

    def reconstruction(self, weights, output: np.ndarray):
        """``fn(row, stage_address)`` setting ``output[row] = weights @ stage``
        with the operations of ``weights.dot(stage)`` (0 ulp apart), or
        ``None`` when *weights* is not an int32-indexed float64 CSR matrix or
        *output* not a C-contiguous float32/float64 ``(nt, nrows)`` array.
        Both are read in place: the caller keeps them alive."""
        w = weights
        parts = (w.indptr, w.indices, w.data) if w.format == "csr" else ()
        if not (
            parts and w.indptr.dtype == w.indices.dtype == np.int32 and w.data.dtype == np.float64
            and all(a.flags.c_contiguous for a in parts + (output,))
            and output.dtype.name in _CTYPE and output.shape[1:] == w.shape[:1]
        ):
            return None
        fn = self._reconstruct[output.dtype.name]
        args = (w.shape[0], *(a.ctypes.data for a in parts))
        base, stride = output.ctypes.data, output.strides[0]

        def reconstruct(row: int, stage_address: int) -> None:
            fn(*args, stage_address, base + row * stride)

        return reconstruct
