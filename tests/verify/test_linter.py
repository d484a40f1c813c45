"""Kernel-IR linter: equation checks, scratch-slot analysis, CLI front-end."""

import json

import numpy as np
import pytest

from repro.dsl import Eq, Grid, TimeFunction
from repro.ir.nodes import TAInstr, TAOperand, TAProgram
from repro.verify import lint_bound_sweeps, lint_equations, lint_operator
from repro.verify.__main__ import JSON_SCHEMA_VERSION, main
from ..conftest import make_acoustic_operator


@pytest.fixture
def grid():
    return Grid(shape=(12, 12))


def _codes(diags):
    return [d.code for d in diags]


def _forward_in_time(expr, grid):
    from repro.dsl.symbols import Indexed

    return expr.subs({ix: ix.shift(grid.stepping_dim, 1) for ix in expr.atoms(Indexed)})


# -- equation-level checks -------------------------------------------------------


def test_clean_operator_passes(grid3d):
    op, *_ = make_acoustic_operator(grid3d)
    report = lint_operator(op, dt=0.5)
    assert report.ok, report.render()
    assert not report.diagnostics


def test_e101_out_of_halo_read(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)  # halo 2
    far = u.indexify().shift(grid.dimensions[0], 3)  # reads u[t, x+3]
    diags = lint_equations([Eq(u.forward, far)])
    assert "E101" in _codes(diags)
    d = next(d for d in diags if d.code == "E101")
    assert d.severity == "error" and d.field == "u"
    assert "x+3" in d.message


def test_e102_non_pointwise_write(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    shifted_lhs = u.forward.shift(grid.dimensions[0], 1)
    diags = lint_equations([Eq(shifted_lhs, u.indexify())])
    assert "E102" in _codes(diags)


def test_e401_intra_sweep_aliasing(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    da = _forward_in_time(a.dx, grid)  # radius-2 read of a[t+1]
    diags = lint_equations([Eq(a.forward, a.dx), Eq(b.forward, da)])
    assert "E401" in _codes(diags)
    assert next(d for d in diags if d.code == "E401").field == "a"


def test_pointwise_intra_sweep_read_is_clean(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    diags = lint_equations([Eq(a.forward, a.dx), Eq(b.forward, 2 * a.forward)])
    assert "E401" not in _codes(diags)


def test_e402_duplicate_write(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=4)
    diags = lint_equations([Eq(u.forward, u.dx), Eq(u.forward, u.dy)])
    assert "E402" in _codes(diags)


def test_w201_dtype_narrowing(grid):
    u64 = TimeFunction("u", grid, time_order=1, space_order=2, dtype=np.float64)
    v32 = TimeFunction("v", grid, time_order=1, space_order=2, dtype=np.float32)
    diags = lint_equations([Eq(v32.forward, u64.indexify())])
    assert "W201" in _codes(diags)
    d = next(d for d in diags if d.code == "W201")
    assert d.severity == "warning" and "float32" in d.message


def test_matching_dtypes_no_w201(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    diags = lint_equations([Eq(u.forward, 0.5 * u.indexify())])
    assert "W201" not in _codes(diags)


# -- fused-kernel scratch-slot analysis ------------------------------------------



class _Sweep:
    """What the linter reads off a bound sweep: equations and the program."""

    eqs = ()

    def __init__(self, program=None):
        self._program = program

    def kernel_program(self):
        return self._program


def _operand(name):
    kind = {"s": "slot", "v": "view", "o": "out"}[name[0]]
    return TAOperand(kind, name, "float32")


def _lint_kernel(*rows):
    """Diagnostics for a synthetic three-address kernel over slots s0-s2,
    views v0-v1 and output o0, one ``(op, *args, out)`` row per instruction,
    bound as sweep 1 behind an interpreted (program-less) sweep 0."""
    program = TAProgram(
        instrs=tuple(
            TAInstr(op, tuple(_operand(a) for a in names[:-1]), _operand(names[-1]))
            for op, *names in rows
        ),
        slots=tuple((f"s{i}", "float32") for i in range(3)),
        views=(("v0", "float32"), ("v1", "float32")),
        outs=(("o0", "float32"),),
    )
    return lint_bound_sweeps([_Sweep(), _Sweep(program)]).diagnostics


def test_e301_read_before_write():
    diags = _lint_kernel(("add", "v0", "s1", "s0"), ("store", "s0", "o0"))
    assert _codes(diags) == ["E301"]
    d = diags[0]
    # the finding keeps the caller's sweep numbering, not the program index
    assert d.severity == "error" and "s1" in d.message and d.sweep == 1


def test_e301_reported_once_per_slot():
    diags = _lint_kernel(
        ("add", "v0", "s1", "s0"),
        ("multiply", "s1", "v1", "s2"),
        ("add", "s0", "s2", "s0"),
        ("store", "s0", "o0"),
    )
    assert _codes(diags) == ["E301"]


def test_w302_overwritten_before_read():
    diags = _lint_kernel(
        ("add", "v0", "v1", "s0"),
        ("multiply", "v0", "v1", "s0"),
        ("store", "s0", "o0"),
    )
    assert _codes(diags) == ["W302"]
    assert "np.add" in diags[0].message


def test_w302_never_read():
    diags = _lint_kernel(
        ("add", "v0", "v1", "s0"),
        ("multiply", "v0", "v1", "s1"),
        ("store", "s0", "o0"),
    )
    assert _codes(diags) == ["W302"]
    assert "s1" in diags[0].message


def test_clean_kernel_source():
    diags = _lint_kernel(
        ("add", "v0", "v1", "s0"),
        ("multiply", "s0", "v0", "s1"),
        ("store", "s1", "o0"),
    )
    assert diags == []


def test_real_fused_kernels_are_clean(grid3d):
    # the sources the fused engine actually generates must satisfy their own
    # linter: compiled via lint_operator, which binds dt like apply does
    op, *_ = make_acoustic_operator(grid3d, so=8)
    report = lint_operator(op, dt=0.25)
    assert report.ok
    assert not any(d.code in ("E301", "W302") for d in report.diagnostics)


# -- report & CLI ----------------------------------------------------------------


def test_report_render_and_dict(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    far = u.indexify().shift(grid.dimensions[0], 3)
    from repro.verify import LintReport

    report = LintReport(name="demo", diagnostics=lint_equations([Eq(u.forward, far)]))
    assert not report.ok
    assert "FAIL" in report.render() and "E101" in report.render()
    d = report.to_dict()
    assert d["ok"] is False and d["errors"] >= 1
    assert d["diagnostics"][0]["code"] == "E101"


def test_cli_single_example(capsys):
    assert main(["acoustic"]) == 0
    out = capsys.readouterr().out
    assert "acoustic" in out and "OK" in out
    # one certificate line per schedule of the shared CLI sweep
    from repro.core.scheduler import SCHEDULES

    for kind in SCHEDULES:
        (line,) = [l for l in out.splitlines() if l.startswith(f"  certificate[{kind}]:")]
        assert f"schedule={kind}" in line and line.endswith("legal=True)")


def test_cli_json_output(capsys):
    assert main(["tti", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["version"] == JSON_SCHEMA_VERSION == 4
    assert data["tool"] == "repro.verify"
    entry = data["results"]["tti"]
    assert entry["ok"] is True and entry["lint"]["ok"] is True
    # passes per point: fused-kernel instructions of each of the two sweeps
    assert set(entry["lint"]["ninstr"]) == {"0", "1"}
    # the scratch block is the liveness verdict alone: no colouring plan
    assert set(entry["lint"]["scratch"]) == {"safe_for_slab", "total_slots", "findings"}


def test_cli_json_schedules_and_stability(capsys):
    """--json proves every schedule of the shared set and the certificates
    are byte-stable across runs (sorted keys, versioned envelope)."""
    from repro.core.scheduler import SCHEDULES

    assert main(["acoustic", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)["results"]["acoustic"]
    assert set(first["certificates"]) == set(SCHEDULES)
    assert first["bounds"]["safe"] is True
    for cert in first["certificates"].values():
        assert cert["legal"] is True
    assert main(["acoustic", "--json"]) == 0
    again = json.loads(capsys.readouterr().out)["results"]["acoustic"]
    first.pop("analyzer_seconds"), again.pop("analyzer_seconds")
    assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)
