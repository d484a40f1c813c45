"""Whole-program scratch liveness: the E301/W302 check behind the slab pool."""

import numpy as np
import pytest

from repro.core import NaiveSchedule, WavefrontSchedule
from repro.dsl import Grid
from repro.ir.nodes import TAInstr, TAOperand, TAProgram
from repro.verify import analyse_programs
from ..conftest import make_acoustic_operator, run_and_capture


def V(name):
    return TAOperand("view", name, "float32")


def S(name):
    return TAOperand("slot", name, "float32")


def O(name):
    return TAOperand("out", name, "float32")


def prog(instrs, slots, views=(("v0", "float32"),), outs=(("o0", "float32"),)):
    return TAProgram(
        instrs=tuple(instrs), slots=tuple(slots), views=tuple(views), outs=tuple(outs)
    )


# -- the emitter is the allocator: its slot index is the slab "colour" -------------


def _emit(rhss):
    """The fused program of a synthetic one-view sweep ``o_i = rhss[i](a)``."""
    from repro.dsl.symbols import Indexed, Symbol
    from repro.ir.pycodegen import compile_sweep

    class Field:
        def __init__(self, name):
            self.name = name

    x = Symbol("x")
    a = Indexed(Field("a"), {x: 0})
    lhss = [Indexed(Field(f"o{i}"), {x: 0}) for i in range(len(rhss))]
    f32 = [np.float32]
    return compile_sweep(lhss, [rhs(a) for rhs in rhss], [a], f32, f32 * len(rhss)).program


def test_sequential_slots_share_one_color():
    """A scratch value whose last reader has run frees its slot at once, so
    two equations' temporaries — lifetimes end to end — share one slab, and
    the liveness check has nothing to report about the reuse."""
    from repro.dsl.symbols import Call

    p = _emit([lambda a: Call("cos", a * a) + a, lambda a: Call("sin", a * a * a) + a])
    assert [i.out.name for i in p.instrs] == ["s0", "s0", "o0", "s0", "s0", "s0", "o1"]
    assert p.slots == (("s0", "float32"),)
    report = analyse_programs([p])
    assert not report.findings and report.safe_for_slab and report.total_slots == 1


def test_overlapping_slots_interfere_and_get_distinct_colors():
    """Two values alive at once get distinct slots (hence distinct slabs)."""
    from repro.dsl.symbols import Call

    p = _emit([lambda a: Call("cos", a) * Call("sin", a)])
    assert [i.out.name for i in p.instrs] == ["s0", "s1", "o0"]
    assert p.slots == (("s0", "float32"), ("s1", "float32"))
    assert not analyse_programs([p]).findings


# -- pool identity: slots are shared per (dtype, per-dtype index) -----------------


def test_different_dtypes_never_interfere():
    """Sweep 0 writes the float32 slab 0; sweep 1's stale read is of the
    *float64* slab 0 — a different pooled buffer, so no producer is blamed."""
    writer = prog(
        [
            TAInstr("multiply", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (S("s0"), V("v0")), O("o0")),
        ],
        slots=[("s0", "float32")],
    )
    wide = TAOperand("slot", "s0", "float64")
    reader = prog([TAInstr("add", (wide, V("v0")), O("o0"))], slots=[("s0", "float64")])
    report = analyse_programs([writer, reader])
    (stale,) = [f for f in report.findings if f.code == "E301"]
    assert stale.sweep == 1 and "last written by" not in stale.message
    assert "s0" in stale.message and not report.safe_for_slab
    assert report.total_slots == 2


# -- findings: stale reads and dead stores ---------------------------------------


def test_e301_stale_read_names_producing_sweep():
    writer = prog(
        [
            TAInstr("multiply", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (S("s0"), V("v0")), O("o0")),
        ],
        slots=[("s0", "float32")],
    )
    reader = prog(
        [TAInstr("add", (S("s0"), V("v0")), O("o0"))],
        slots=[("s0", "float32")],
    )
    report = analyse_programs([writer, reader])
    stale = [f for f in report.findings if f.code == "E301"]
    assert len(stale) == 1
    assert stale[0].sweep == 1
    assert "stale data" in stale[0].message
    assert "sweep 0" in stale[0].message  # producer attribution
    assert not report.safe_for_slab


def _may_live_in(programs):
    """Reference: backward may-liveness of pool buffers around the cyclic
    kernel sequence, iterated to a fixpoint — the analysis the deleted
    dataflow framework ran.  Returns the live-in set per kernel."""
    def backward(program, live):
        ids = program.pool_ids()
        live = set(live)
        for instr in reversed(program.instrs):
            if instr.op != "store" and instr.out.kind == "slot":
                live.discard(ids[instr.out.name])
            live.update(ids[a.name] for a in instr.args if a.kind == "slot")
        return live

    live_in = [set() for _ in programs]
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(programs))):
            new = backward(programs[i], live_in[(i + 1) % len(programs)])
            if new != live_in[i]:
                live_in[i], changed = new, True
    return live_in


def _random_program(rng):
    """1-12 instructions over up to 4 mixed-dtype slots, reads and writes in
    random order (so stale reads and dead stores both occur)."""
    dtypes = [str(rng.choice(["float32", "float64"])) for _ in range(rng.integers(1, 5))]
    slots = [TAOperand("slot", f"s{i}", dt) for i, dt in enumerate(dtypes)]
    instrs = []
    for _ in range(rng.integers(1, 13)):
        args = tuple(
            slots[rng.integers(len(slots))] if rng.random() < 0.5 else V("v0")
            for _ in range(2)
        )
        out = slots[rng.integers(len(slots))] if rng.random() < 0.7 else O("o0")
        instrs.append(TAInstr("add", args, out))
    return prog(instrs, slots=[(s.name, s.dtype) for s in slots])


def test_e301_is_equivalent_to_cyclic_live_in_on_random_programs():
    """The equivalence the framework's deletion rests on: a pool buffer is
    live into some kernel of the cycle iff the forward scan reports an E301
    (kernels are straight-line, so a read that precedes every write of its
    slot *is* the live-in).  200 seeded multi-kernel programs."""
    rng = np.random.default_rng(20)
    verdicts = set()
    for _ in range(200):
        programs = [_random_program(rng) for _ in range(rng.integers(1, 4))]
        stale = any(f.code == "E301" for f in analyse_programs(programs).findings)
        assert stale == any(_may_live_in(programs))
        verdicts.add(stale)
    assert verdicts == {True, False}  # the table exercises both verdicts


def test_w302_overwrite_before_read():
    p = prog(
        [
            TAInstr("multiply", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (S("s0"), V("v0")), O("o0")),
        ],
        slots=[("s0", "float32")],
    )
    report = analyse_programs([p])
    dead = [f for f in report.findings if f.code == "W302"]
    assert len(dead) == 1
    assert "overwrites it before any read" in dead[0].message
    assert report.safe_for_slab  # warnings do not forfeit the slab proof


def test_w302_never_read():
    p = prog(
        [
            TAInstr("multiply", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (V("v0"), V("v0")), O("o0")),
        ],
        slots=[("s0", "float32")],
    )
    report = analyse_programs([p])
    dead = [f for f in report.findings if f.code == "W302"]
    assert len(dead) == 1
    assert "never read" in dead[0].message


def test_report_serialises():
    p = prog(
        [
            TAInstr("multiply", (V("v0"), V("v0")), S("s0")),
            TAInstr("add", (S("s0"), V("v0")), O("o0")),
        ],
        slots=[("s0", "float32")],
    )
    d = analyse_programs([p]).to_dict()
    assert d == {"safe_for_slab": True, "total_slots": 1, "findings": []}


# -- the slab pool on real operators: bounded by slots, bit-identical -------------


@pytest.fixture
def grid24():
    return Grid(shape=(24, 24), extent=(230.0, 230.0))


def test_slab_plan_shrinks_pool_bit_identically(grid24):
    """The liveness check licenses slab sharing on the fused acoustic
    operator — one slab per (dtype, slot) however many tile shapes the
    wavefront visits — and results are bit-identical to the interpreter."""
    nt, dt = 6, 1.0
    wf = WavefrontSchedule(tile=(8, 8), height=2)

    op, u, m, src, rec = make_acoustic_operator(grid24, nt=nt)
    ref_u, ref_rec = run_and_capture(
        op, u, rec, nt, dt, NaiveSchedule(), "precomputed", engine="interp"
    )
    got_u, got_rec = run_and_capture(op, u, rec, nt, dt, wf, "precomputed", engine="fused")
    np.testing.assert_array_equal(got_u, ref_u)
    np.testing.assert_array_equal(got_rec, ref_rec)

    (sweep,) = next(iter(op._sweep_cache.values()))
    shapes = {outs[0].shape for _slots, outs, _views in sweep._view_cache.values()}
    assert len(shapes) > 1  # the clipped wavefront windows differ in shape
    assert len(op._pool) == len(sweep.compiled.program.slots)


def test_pool_holds_one_slab_per_slot_after_tti_wavefront():
    """After a TTI so=4 wavefront run the operator's pool holds exactly
    ``max over sweeps of slots per dtype`` slabs — sweeps share them — and
    no more bytes than the (dtype, colour) pool the parent commit allocated
    for the same run (6 slabs, 26 624 bytes)."""
    from repro.core.scheduler import WavefrontSchedule
    from repro.propagators.examples import build_example

    prop, dt = build_example("tti")
    # small tiles, given: the "wavefront" kind's 96^2 tile covers this 16^3
    # grid in one box shape
    wavefront = WavefrontSchedule(tile=(8, 8), height=2)
    prop.forward(nt=16, dt=dt, schedule=wavefront, engine="fused")
    sweeps = next(iter(prop.op._sweep_cache.values()))
    per_sweep = [[d for d, _ in sw.compiled.program.pool_ids().values()] for sw in sweeps]
    assert [len(s) for s in per_sweep] == [2, 6] and set(sum(per_sweep, [])) == {"float32"}
    shapes = {
        outs[0].shape for sw in sweeps for _slots, outs, _views in sw._view_cache.values()
    }
    assert len(shapes) > 6  # many more box shapes than slabs
    pool = prop.op._pool
    assert sorted(pool._slabs) == [("<f4", i) for i in range(6)]
    assert pool.nbytes() <= 26624
