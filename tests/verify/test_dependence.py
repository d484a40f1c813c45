"""Statement-level dependence analysis: access sets and distance vectors."""

import pytest

from repro.dsl import Eq, Function, Grid, TimeFunction, solve
from repro.ir.dependencies import build_sweeps
from repro.verify import (
    classify_indexed,
    compute_dependences,
    statements_for,
)
from ..conftest import make_acoustic_operator


@pytest.fixture
def grid():
    return Grid(shape=(12, 11, 10))


def acoustic_eq(grid, so=4):
    u = TimeFunction("u", grid, time_order=2, space_order=so)
    m = Function("m", grid, space_order=so)
    return Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward)), u, m


def _forward_in_time(expr, grid):
    from repro.dsl.symbols import Indexed

    return expr.subs({ix: ix.shift(grid.stepping_dim, 1) for ix in expr.atoms(Indexed)})


# -- access classification ------------------------------------------------------


def test_classify_write(grid):
    eq, u, m = acoustic_eq(grid)
    acc = classify_indexed(eq.lhs)
    assert acc.function == "u"
    assert acc.is_time and acc.time_offset == 1
    assert acc.radius == 0 and acc.affine


def test_classify_reads(grid):
    from repro.dsl.symbols import Indexed

    eq, u, m = acoustic_eq(grid, so=4)
    reads = [classify_indexed(ix) for ix in eq.rhs.atoms(Indexed)]
    u_reads = [a for a in reads if a.function == "u"]
    assert {a.time_offset for a in u_reads} <= {-1, 0, 1}
    assert max(a.radius for a in u_reads) == 2
    # per-dimension offsets are recoverable
    assert {a.offset_along("x") for a in u_reads} >= {-2, -1, 0, 1, 2}
    m_reads = [a for a in reads if a.function == "m"]
    assert m_reads and all(not a.is_time and a.radius == 0 for a in m_reads)


# -- statement lists -------------------------------------------------------------


def test_statements_for_operator(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d)
    stmts = statements_for(
        op.sweeps,
        injections=op.injections(),
        interpolations=op.interpolations(),
        aligned=True,
    )
    roles = [s.role for s in stmts]
    assert roles.count("stencil") == 1
    assert roles.count("injection") == 1
    assert roles.count("interpolation") == 1
    # sparse statements attach to the sweep writing/reading u's t+1 slot and
    # are affine in the precomputed (grid-aligned) form
    sp = [s for s in stmts if s.role != "stencil"]
    assert all(s.sweep == 0 for s in sp)
    assert all(a.affine for s in sp for a in s.writes + s.reads)
    # program order within the sweep is preserved
    assert [s.position for s in stmts] == sorted(s.position for s in stmts)


def test_statements_for_offgrid_nonaffine(grid3d):
    op, u, m, src, rec = make_acoustic_operator(grid3d)
    stmts = statements_for(
        op.sweeps, injections=op.injections(), aligned=False
    )
    inj = [s for s in stmts if s.role == "injection"]
    assert inj and all(not a.affine for s in inj for a in s.writes)


# -- dependence enumeration ------------------------------------------------------


def _deps_for(eqs, buffers):
    stmts = statements_for(build_sweeps(eqs))
    return compute_dependences(stmts, buffers)


def test_flow_and_anti_acoustic(grid):
    eq, u, m = acoustic_eq(grid, so=4)
    deps = _deps_for([eq], {"u": 3})
    flows = [d for d in deps if d.kind == "flow" and d.time_distance >= 0]
    # write u[t+1], reads u[t] and u[t-1]: time distances 1 and 2
    assert {d.time_distance for d in flows} == {1, 2}
    d1 = [d for d in flows if d.time_distance == 1]
    assert max(d.max_abs_distance for d in d1) == 2
    assert max(abs(d.distance_along("x")) for d in d1) == 2
    # slot reuse with 3 buffers: anti distances tr - tw + b for tr in {0, -1}
    antis = [d for d in deps if d.kind == "anti"]
    assert {d.time_distance for d in antis} == {1, 2}
    # the radius-2 slot-reuse hazard (anti at distance 2) carries the stencil's
    # spatial reach
    assert max(d.max_abs_distance for d in antis) == 2


def test_output_dependence_duplicate_write(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=4)
    # two sweeps both writing u[t+1]: same-slot output dependence in program
    # order (build_sweeps splits the duplicate write into a second sweep)
    eqs = [Eq(u.forward, u.dx), Eq(u.forward, u.dy)]
    stmts = statements_for(build_sweeps(eqs))
    deps = compute_dependences(stmts, {"u": 2})
    outs = [d for d in deps if d.kind == "output" and d.time_distance == 0]
    assert outs and outs[0].source.sweep == 0 and outs[0].sink.sweep == 1


def test_zero_radius_pointwise(grid):
    u = TimeFunction("u", grid, time_order=1, space_order=2)
    deps = _deps_for([Eq(u.forward, u * 0.5)], {"u": 2})
    flows = [d for d in deps if d.kind == "flow" and d.time_distance >= 0]
    assert flows and all(d.max_abs_distance == 0 for d in flows)


def test_future_read_negative_distance(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    da2 = _forward_in_time(_forward_in_time(a.dx, grid), grid)  # reads a[t+2]
    # a[t+2] is only produced one step in the future: a genuine future read,
    # recorded as a flow dependence with negative time distance
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, da2)]
    deps = _deps_for(eqs, {"a": 2, "b": 2})
    assert any(
        d.kind == "flow" and d.function == "a" and d.time_distance < 0
        for d in deps
    )


def test_cross_sweep_flow(grid):
    a = TimeFunction("a", grid, time_order=1, space_order=4)
    b = TimeFunction("b", grid, time_order=1, space_order=4)
    da = _forward_in_time(a.dx, grid)
    eqs = [Eq(a.forward, a.dx), Eq(b.forward, da)]
    stmts = statements_for(build_sweeps(eqs))
    deps = compute_dependences(stmts, {"a": 2, "b": 2})
    same_t = [
        d
        for d in deps
        if d.kind == "flow"
        and d.function == "a"
        and d.time_distance == 0
        and d.source.sweep != d.sink.sweep
    ]
    # sweep 1 reads a[t+1] which sweep 0 wrote this very timestep; one edge
    # per read offset, the widest at the derivative's radius
    assert same_t and all(d.source.sweep == 0 and d.sink.sweep == 1 for d in same_t)
    assert max(abs(d.distance_along("x")) for d in same_t) == 2


def test_to_dict_shapes(grid):
    eq, u, m = acoustic_eq(grid)
    deps = _deps_for([eq], {"u": 3})
    d = deps[0].to_dict()
    assert set(d) >= {"kind", "source", "sink", "function", "time_distance", "distance"}
    assert isinstance(d["distance"], dict)
