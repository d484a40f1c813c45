"""Golden tests on the C translation unit the ``"c"`` engine runs
(:meth:`Operator.ccode`): the stencil nest of Listings 1/4 per sweep and the
static Listing-5 sparse kernels.  Pure emission — no compiler needed."""

import re

import numpy as np
import pytest

from repro.dsl import Eq, Grid, TimeFunction
from repro.errors import EngineCompilationError
from repro.ir import Operator, cgen
from repro.ir.nodes import TAInstr, TAOperand, TAProgram

from ..conftest import make_acoustic_operator

DT = 0.5


@pytest.fixture
def op(grid3d):
    op, *_ = make_acoustic_operator(grid3d, so=4)
    return op


def _sweep(code: str) -> str:
    return code[code.index("void sweep0("):code.index("grid-aligned sparse")]


def _function(code: str, name: str) -> str:
    start = code.index(f" {name}(")
    return code[start:code.index("\n}\n", start)]


# -- the sweep function ------------------------------------------------------------
def test_naive_structure(op):
    """One x / y / z nest per sweep: the leading loops under one ``omp
    parallel for`` (rows of an instance are independent), ``z`` innermost and
    vectorisable: directly under ``ivdep``, unit stride, no scratch arrays."""
    sweep = _sweep(op.ccode(DT))
    loops = re.findall(r"for \(int64_t (\w+) = 0; \1 < n\1; \+\+\1\)", sweep)
    assert loops == ["x", "y", "z"]
    assert re.search(
        r"#pragma omp parallel for collapse\(2\) schedule\(static\) "
        rf"if\(nx \* ny \* nz >= {cgen.PARALLEL_MIN_POINTS}\)\n\s*for \(int64_t x = 0;[^\n]*\n"
        r"\s*for \(int64_t y = 0;",
        sweep,
    )
    assert re.search(r"#pragma GCC ivdep\n\s*for \(int64_t z = 0;", sweep)
    assert sweep.count("#pragma") == 2
    assert "-ffast-math" not in cgen.FLAGS and "-Ofast" not in cgen.FLAGS
    assert "-ffp-contract=off" in cgen.FLAGS and "-fopenmp" in cgen.FLAGS
    # scratch slots are scalar locals of the loop body, never arrays
    assert re.search(r"for \(int64_t z[^\n]*\n\s*float s0, s1;", sweep)
    assert not re.search(r"\bs\d+\[", sweep)
    # every array access is the contiguous innermost index
    assert set(re.findall(r"\b[ov]\d+\[(\w+)\]", sweep)) == {"z"}


def test_naive_statement_roles(op):
    """The unit holds one statement of each role: the stencil store, the
    aligned injection, the receiver gather, the ``Sp_SID`` indirection and
    the receiver reconstruction."""
    code = op.ccode(DT)
    assert re.search(r"\bo0\[z\] = ", _sweep(code))
    assert "row[zind] += src_dcmp_t[m->start[p] + z2];" in code
    assert "stage[m->start[p] + z2] = (double)row[zind];" in code
    assert "zind = m->Sp_SID[p * m->max_nnz + z2];" in code
    assert "sum += w[k] * stage[col[k]];" in code


def test_constants_come_from_the_table(op):
    """No numeric literal of the model reaches the source: one ``.so`` serves
    every dt, spacing and model of a physics x order x dtype x rank."""
    sweep = _sweep(op.ccode(DT))
    assert "const float _c0 = (float)ctab[0];" in sweep
    assert not re.search(r"\d\.\d", sweep)
    assert _sweep(op.ccode(DT)) == _sweep(op.ccode(0.25))


def test_source_depends_on_structure_only(grid3d):
    other = Grid(shape=(9, 8, 7), extent=(40.0, 35.0, 30.0))  # uniform spacing, like grid3d
    a, *_ = make_acoustic_operator(grid3d, so=4)
    b, *_ = make_acoustic_operator(other, so=4, seed=3)
    assert _sweep(a.ccode(DT)) == _sweep(b.ccode(0.1))
    c, *_ = make_acoustic_operator(grid3d, so=8)
    assert _sweep(a.ccode(DT)) != _sweep(c.ccode(DT))


# -- Listing 4/5: the grid-aligned sparse kernels ----------------------------------
def test_fused_structure(op):
    code = op.ccode(DT)
    for dtype in ("float32", "float64"):
        for kernel in ("inject", "gather", "reconstruct"):
            assert f"aligned_{kernel}_{dtype}(" in code
    assert "src_dcmp_t[m->start[p] + z2]" in code
    assert "map(" not in code  # indirection through coordinates is gone


def test_fused_injection_at_z_level(op):
    """The ``z2`` loop sits inside the ``y`` loop of the pencil walk, where
    Listing 4 puts it: beside the ``z`` loop, not after the grid sweep."""
    inject = _function(op.ccode(DT), "aligned_inject_float32")
    loops = re.findall(r"for \(int\d+_t (\w+) = ", inject)
    assert loops == ["x", "y", "z2"]


def test_compressed_structure(op):
    """Listing 5: the ``z2`` loop runs to ``nnz[x][y]`` and reads ``Sp_SID``;
    the id of slot ``z2`` is ``start[p] + z2`` — no kernel reads the
    grid-sized ``SID`` — and every kernel runs on the OpenMP team once its
    box (its matrix) reaches ``SPARSE_PARALLEL_MIN``."""
    code = op.ccode(DT)
    inject = _function(code, "aligned_inject_float32")
    assert "z2 < m->nnz[p]" in inject
    assert "const int64_t p = x * m->ny + y;" in inject
    assert "m->Sp_SID[p * m->max_nnz + z2]" in inject
    assert "zind" in inject
    assert "->SID" not in code
    assert f"#define SPARSE_PARALLEL_MIN {cgen.SPARSE_PARALLEL_MIN}\n" in code
    pencil_walk = (
        "#pragma omp parallel for collapse(2) schedule(static) reduction(+:count) "
        "if(id_span(m, box) >= SPARSE_PARALLEL_MIN)\n  for (int64_t x = box[0];"
    )
    for dtype in ("float32", "float64"):
        for kernel in ("inject", "gather"):
            body = _function(code, f"aligned_{kernel}_{dtype}")
            assert "m->start[p] + z2" in body
            assert pencil_walk in body
        assert (
            "#pragma omp parallel for schedule(static) "
            "if(indptr[nrows] >= SPARSE_PARALLEL_MIN)\n  for (int64_t r = 0;"
        ) in _function(code, f"aligned_reconstruct_{dtype}")


def test_fuse_requires_injections(grid3d):
    """The sparse unit is emitted only for an operator with sparse operators."""
    op, *_ = make_acoustic_operator(grid3d, src_coords=False, rec_coords=False)
    code = op.ccode(DT)
    assert "void sweep0(" in code
    assert "aligned_inject" not in code and "masks_t" not in code


# -- generic -------------------------------------------------------------------------
def test_all_modes_render(grid3d, grid2d, grid1d):
    """Every rank and dtype renders a balanced unit with its header."""
    for grid in (grid3d, grid2d, grid1d):
        op, *_ = make_acoustic_operator(grid, so=4)
        code = op.ccode(DT)
        assert code.count("{") == code.count("}")
        assert code.startswith("/*")
        dims = [d.name for d in grid.dimensions]
        loops = re.findall(r"for \(int64_t (\w+) = 0; \1 < n", _sweep(code))
        assert loops == dims
        # one threaded loop level per leading dimension; a 1-D sweep has none
        collapse = re.findall(r"#pragma omp parallel for collapse\((\d)\)", _sweep(code))
        assert collapse == ([str(len(dims) - 1)] if len(dims) > 1 else [])
    v = TimeFunction("v", grid2d, time_order=1, space_order=2, dtype=np.float64)
    code = Operator([Eq(v.forward, 0.5 * v + v.dx)]).ccode(DT)
    assert "double *const o0" in code and "float" not in code


def test_render_rejects_unknown_node():
    """An instruction C cannot reproduce bit for bit is refused by name."""
    v, o = TAOperand("view", "v0", "float32"), TAOperand("out", "o0", "float32")

    def program(instr):
        return TAProgram((instr,), (), (("v0", "float32"),), (("o0", "float32"),))

    with pytest.raises(EngineCompilationError) as excinfo:
        cgen.emit_sweep(program(TAInstr("sin", (v,), o)), ("x",))
    assert excinfo.value.engine == "c" and excinfo.value.reason == "ineligible:sin"
    raw = TAOperand("scalar", "2.0", None)
    with pytest.raises(EngineCompilationError, match="multiply"):
        cgen.emit_sweep(program(TAInstr("multiply", (raw, v), o)), ("x",))
    wide = TAOperand("view", "v0", "float64")
    with pytest.raises(EngineCompilationError, match="ineligible|same-dtype"):
        cgen.emit_sweep(program(TAInstr("store", (wide,), o)), ("x",))


def test_ccode_entrypoint(op):
    code = op.ccode(dt=DT)
    assert "void sweep0(const int64_t *tab, const double *ctab)" in code
    assert code == op.ccode(dt=DT)
