"""Whole-program scratch-slot liveness: the check that licenses slab sharing.

Every fused kernel one timestep executes draws its scratch slots from one
shared :class:`~repro.ir.pycodegen.ScratchPool`, whose slabs are reused
across sweeps and box shapes without ever being cleared.  That is sound iff
no kernel observes a slab's prior contents, which a forward def/use scan of
each kernel's typed three-address program decides: kernels are straight-line
code, so a pooled buffer is live into a kernel exactly when the scan meets a
read of a slot the kernel has not written yet.  Pool buffers are identified
by :meth:`~repro.ir.nodes.TAProgram.pool_ids`, the identity under which
sweeps share them.

* **E301** — an instruction reads a slot this kernel never wrote: it would
  observe stale pooled memory (the finding names the *producing sweep* whose
  leftover value that is).  An error of ``python -m repro.verify``, which CI
  gates on; the emitter writes every slot before reading it by
  construction, so no shipped kernel has one.
* **W302** — a value stored to a slot and never consumed: a dead statement.

The analysis is a check, not a planner: slot assignment is the emitter's
refcounting allocator (:class:`repro.ir.pycodegen._Emitter`), which already
reuses a slot the moment its last consumer has run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...ir.nodes import TAProgram
from ..certificate import Diagnostic, Record

__all__ = ["LivenessReport", "analyse_programs"]

PoolId = Tuple[str, int]  # (dtype name, per-dtype slot index)


@dataclass
class LivenessReport(Record):
    """Everything the whole-program scratch analysis proved."""

    #: E301/W302 findings over the typed IR
    findings: List[Diagnostic] = field(default_factory=list)
    #: scratch slots declared over all kernels
    total_slots: int = 0
    _derived = {"safe_for_slab": "safe_for_slab"}

    @property
    def safe_for_slab(self) -> bool:
        """True iff every kernel writes every slot before reading it — the
        proof obligation that makes slab sharing bit-identical."""
        return not any(f.code == "E301" for f in self.findings)


def _kernel_scan(
    program: TAProgram, sweep: int, producers: Dict[PoolId, int]
) -> List[Diagnostic]:
    """Forward def/use scan of one kernel: its E301/W302 findings."""
    findings: List[Diagnostic] = []
    ids = program.pool_ids()
    written: set = set()  # slots written (or already reported stale) so far
    pending: Dict[str, str] = {}  # slot -> rendered instr of unread write

    for instr in program.instrs:
        line = instr.render()
        for arg in instr.args:
            if arg.kind != "slot":
                continue
            name = arg.name
            if name not in written:
                producer = producers.get(ids[name])
                origin = (
                    f" (last written by sweep {producer}'s kernel)"
                    if producer is not None and producer != sweep
                    else ""
                )
                findings.append(
                    Diagnostic(
                        "E301",
                        "error",
                        f"instruction {line!r} reads scratch slot {name} "
                        "before any write in this kernel: the pooled buffer "
                        f"holds stale data from another sweep{origin}",
                        sweep=sweep,
                        statement=line,
                    )
                )
                written.add(name)  # report each stale slot once
            pending.pop(name, None)
        if instr.op != "store" and instr.out.kind == "slot":
            name = instr.out.name
            prev = pending.get(name)
            if prev is not None:
                findings.append(
                    Diagnostic(
                        "W302",
                        "warning",
                        f"dead statement: {prev!r} writes scratch slot {name} "
                        f"but {line!r} overwrites it before any read",
                        sweep=sweep,
                        statement=prev,
                    )
                )
            written.add(name)
            pending[name] = line
    for name, line in pending.items():
        findings.append(
            Diagnostic(
                "W302",
                "warning",
                f"dead statement: {line!r} writes scratch slot {name} "
                "whose value is never read",
                sweep=sweep,
                statement=line,
            )
        )
    return findings


def analyse_programs(programs: Sequence[Optional[TAProgram]]) -> LivenessReport:
    """Run the scratch analysis over one timestep's kernels, indexed by
    sweep; ``None`` marks a sweep without a kernel (bound under the
    interpreter, which has no scratch)."""
    kernels = [(j, p) for j, p in enumerate(programs) if p is not None]
    report = LivenessReport(total_slots=sum(len(p.slots) for _, p in kernels))

    # which sweep's kernel last writes each pooled buffer, in cycle order —
    # the "producer" a stale read would observe
    producers: Dict[PoolId, int] = {}
    for j, program in kernels:
        ids = program.pool_ids()
        for instr in program.instrs:
            if instr.op != "store" and instr.out.kind == "slot":
                producers[ids[instr.out.name]] = j

    for j, program in kernels:
        report.findings.extend(_kernel_scan(program, j, producers))
    return report
