"""Runtime resilience layer: the tile-boundary guard, checkpoint/restart,
fault injection.

Everything here is opt-in and threaded through the execution stack via
``Operator.apply`` / ``Propagator.forward`` / ``run_schedule`` keyword
arguments::

    from repro.runtime import ABFTGuard, CheckpointConfig, FaultInjector, Fault

    op.apply(time_M=nt, dt=dt, schedule=WavefrontSchedule(),
             checkpoint=CheckpointConfig(every=32),
             faults=FaultInjector([Fault(t=100, kind="nan")], seed=7),
             abft=ABFTGuard())

The one guard, :class:`ABFTGuard`, judges the state at every time-tile
boundary: a NaN/Inf there is a :class:`~repro.errors.NumericalBlowup` (left
to checkpoint-restart), a finite amplitude over the certified growth bound a
:class:`~repro.errors.SilentCorruptionError` (the tile is re-executed
in-run).

See also :mod:`repro.errors` for the structured error taxonomy and
:mod:`repro.runtime.preflight` for the validation that runs before
timestep 0.
"""

from .abft import ABFTGuard
from .checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
    Snapshot,
    capture_snapshot,
    restore_snapshot,
)
from .faults import Fault, FaultInjector, break_engine, flip_finite, split_seed
from .monitor import RuntimeMonitor
from .preflight import (
    check_cfl,
    check_masks,
    check_receiver,
    check_source,
    validate_plan,
)

__all__ = [
    "ABFTGuard",
    "CheckpointConfig",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "Snapshot",
    "capture_snapshot",
    "restore_snapshot",
    "Fault",
    "FaultInjector",
    "break_engine",
    "flip_finite",
    "split_seed",
    "RuntimeMonitor",
    "check_cfl",
    "check_masks",
    "check_source",
    "check_receiver",
    "validate_plan",
]
