"""Golden tests on the C translation unit the ``"c"`` engine runs
(:meth:`Operator.ccode`): the stencil nest of Listings 1/4 per sweep, each
pencil ending with the Listing-5 epilogue of the grid-aligned operators
attached to the sweep, and the static receiver reconstruction.  Pure
emission — no compiler needed."""

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
    start = code.index("void sweep0(")
    return code[start:code.index("\n}\n", start) + 2]


def _function(code: str, name: str) -> str:
    start = code.index(f" {name}(")
    return code[start:code.index("\n}\n", start)]


# -- the sweep function ------------------------------------------------------------
def test_naive_structure(op):
    """One x / y / z nest per sweep: the leading loops under one ``omp
    parallel for`` (rows of an instance are independent; the epilogue's
    point counts are a reduction), ``z`` innermost and vectorisable:
    directly under ``ivdep``, unit stride, no scratch arrays.  The other two
    pragmas are the epilogue's unchecked ``z2`` loops."""
    sweep = _sweep(op.ccode(DT))
    loops = re.findall(r"for \(int64_t (\w+) = 0; \1 < n\1; \+\+\1\)", sweep)
    assert loops == ["x", "y", "z"]
    assert re.search(
        r"#pragma omp parallel for collapse\(2\) schedule\(static\) "
        r"reduction\(\+:injected, gathered\) "
        rf"if\(nx \* ny \* nz >= {cgen.PARALLEL_MIN_POINTS}\)\n\s*for \(int64_t x = 0;[^\n]*\n"
        r"\s*for \(int64_t y = 0;",
        sweep,
    )
    assert re.search(r"#pragma GCC ivdep\n\s*for \(int64_t z = 0;", sweep)
    assert sweep.count("#pragma") == 4
    assert sweep.count("#pragma GCC ivdep\n            for (int32_t z2 = 0;") == 2
    assert "-ffast-math" not in cgen.FLAGS and "-Ofast" not in cgen.FLAGS
    assert "-ffp-contract=off" in cgen.FLAGS and "-fopenmp" in cgen.FLAGS
    # scratch slots are scalar locals of the loop body, never arrays
    assert re.search(r"for \(int64_t z[^\n]*\n\s*float s0, s1;", sweep)
    assert not re.search(r"\bs\d+\[", sweep)
    # every array access is the contiguous innermost index
    assert set(re.findall(r"\b[ov]\d+\[(\w+)\]", sweep)) == {"z"}


def test_naive_statement_roles(op):
    """The unit holds one statement of each role: the stencil store, the
    aligned injection and the receiver gather (in the sweep, through the
    ``Sp_SID`` row of the pencil) and the receiver reconstruction."""
    code = op.ccode(DT)
    sweep = _sweep(code)
    assert re.search(r"\bo0\[z\] = ", sweep)
    assert "o0[zs[z2]] += vals[z2];" in sweep
    assert "stage[z2] = (double)o0[zs[z2]];" in sweep
    assert "const int32_t *const zs = (const int32_t *)(intptr_t)r0[1] + p * r0[3];" in sweep
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


# -- Listing 4/5: the grid-aligned operators in the sweep's epilogue --------------
def test_fused_structure(op):
    """Injection and gather live in the sweep function; what stays static is
    the reconstruction, per trace dtype."""
    code = op.ccode(DT)
    sweep = _sweep(code)
    assert "/* injection into o0 */" in sweep and "/* gather of o0 */" in sweep
    assert "const float *const vals = row0 + ((const int64_t *)(intptr_t)r0[2])[p];" in sweep
    assert "double *const stage = row1 + ((const int64_t *)(intptr_t)r1[2])[p];" in sweep
    for dtype in ("float32", "float64"):
        assert f"aligned_reconstruct_{dtype}(" in code
    assert not re.search(r"aligned_(inject|gather)_|id_span|masks_t", code)
    assert "map(" not in code  # indirection through coordinates is gone


def test_fused_injection_at_z_level(op):
    """Listing 4: the ``z2`` loops sit inside the ``y`` loop of the stencil
    nest, after the pencil's ``z`` loop, not after the grid sweep — the
    unchecked loop and the checked one, for the injection, then the gather."""
    sweep = _sweep(op.ccode(DT))
    loops = re.findall(r"for \(int\d+_t (\w+) = ", sweep)
    assert loops == ["x", "y", "z", "z2", "z2", "z2", "z2"]
    pencil = sweep[sweep.index("for (int64_t y = 0;"):]
    z_loop_end = pencil.index("\n      }\n      if (sp) {")
    assert pencil.index("for (int32_t z2") > z_loop_end
    # the epilogue closes before the y loop does
    assert pencil.rindex("++gathered;") < pencil.index("\n    }\n  }\n  if (sp) sp[0]")


def test_compressed_structure(op):
    """Listing 5: the ``z2`` loop runs to ``nnz[x][y]`` and reads ``Sp_SID``;
    the id of slot ``z2`` is ``start[p] + z2`` — no kernel reads the
    grid-sized ``SID``.  The ``z`` check is hoisted out of the ``z2`` loop
    when the box spans the pencil (``ivdep``: ``Sp_SID`` ascends strictly in
    a pencil); a box that cuts it keeps the checked loop.  The rows of
    timestep ``t`` come from the ``t`` argument; the reconstruction runs on
    the team once its matrix reaches ``SPARSE_PARALLEL_MIN``."""
    code = op.ccode(DT)
    sweep = _sweep(code)
    assert "void sweep0(const int64_t *tab, const double *ctab, int64_t *sp, int64_t t)" in sweep
    assert "const int64_t p = (lo_x + x) * sp[3] + (lo_y + y) * sp[4];" in sweep
    assert "for (int32_t z2 = 0; z2 < n; ++z2)" in sweep
    assert "const int zfull = sp && lo_z == 0 && nz == sp[2];" in sweep
    assert re.search(
        r"if \(zfull\) \{\n\s*injected \+= n;\n#pragma GCC ivdep\n"
        r"\s*for \(int32_t z2 = 0; z2 < n; \+\+z2\)\n\s*o0\[zs\[z2\]\] \+= vals\[z2\];",
        sweep,
    )
    assert re.search(
        r"const int64_t z = zs\[z2\] - lo_z;\n\s*if \(z < 0 \|\| z >= nz\) continue;\n"
        r"\s*o0\[z\] \+= vals\[z2\];",
        sweep,
    )
    assert (
        "float *const row0 = r0 && (t + r0[6]) >= 0 && (t + r0[6]) < r0[7] ? "
        "(float *)(intptr_t)(r0[4] + (t + r0[6]) % r0[8] * r0[5]) : 0;"
    ) in sweep
    assert "if (sp) sp[0] += injected, sp[1] += gathered;" in sweep
    assert "->SID" not in code
    assert f"#define SPARSE_PARALLEL_MIN {cgen.SPARSE_PARALLEL_MIN}\n" in code
    for dtype in ("float32", "float64"):
        assert (
            "#pragma omp parallel for schedule(static) "
            "if(indptr[nrows] >= SPARSE_PARALLEL_MIN)\n  for (int64_t r = 0;"
        ) in _function(code, f"aligned_reconstruct_{dtype}")


def test_fuse_requires_injections(grid3d):
    """The epilogue and the reconstruction unit are emitted only for an
    operator with sparse operators."""
    op, *_ = make_acoustic_operator(grid3d, src_coords=False, rec_coords=False)
    code = op.ccode(DT)
    assert "void sweep0(" in code
    assert "if (sp)" not in code and "reduction" not in code and "aligned_" not in code


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
    assert "void sweep0(const int64_t *tab, const double *ctab, int64_t *sp, int64_t t)" in code
    assert code == op.ccode(dt=DT)
