"""Runtime resilience layer: health guards, checkpoint/restart, fault injection.

Everything here is opt-in and threaded through the execution stack via
``Operator.apply`` / ``Propagator.forward`` / ``run_schedule`` keyword
arguments::

    from repro.runtime import CheckpointConfig, FaultInjector, Fault, HealthGuard

    op.apply(time_M=nt, dt=dt, schedule=WavefrontSchedule(),
             health=HealthGuard(check_every=16),
             checkpoint=CheckpointConfig(every=32),
             faults=FaultInjector([Fault(t=100, kind="nan")], seed=7),
             abft=ABFTGuard())

See also :mod:`repro.errors` for the structured error taxonomy and
:mod:`repro.runtime.preflight` for the validation that runs before
timestep 0.
"""

from .abft import ABFTGuard, amplitude_ceiling
from .checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
    MicroSnapshot,
    Snapshot,
    capture_micro_snapshot,
    capture_snapshot,
    restore_micro_snapshot,
    restore_snapshot,
)
from .faults import Fault, FaultInjector, break_engine, flip_finite, split_seed
from .health import DEFAULT_CHECK_EVERY, HealthGuard
from .integrity import array_checksum
from .monitor import RuntimeMonitor
from .preflight import (
    check_cfl,
    check_coordinates,
    check_masks,
    check_receiver,
    check_source,
    validate_plan,
)

__all__ = [
    "HealthGuard",
    "DEFAULT_CHECK_EVERY",
    "ABFTGuard",
    "amplitude_ceiling",
    "array_checksum",
    "CheckpointConfig",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "Snapshot",
    "MicroSnapshot",
    "capture_snapshot",
    "restore_snapshot",
    "capture_micro_snapshot",
    "restore_micro_snapshot",
    "Fault",
    "FaultInjector",
    "break_engine",
    "flip_finite",
    "split_seed",
    "RuntimeMonitor",
    "check_cfl",
    "check_coordinates",
    "check_masks",
    "check_source",
    "check_receiver",
    "validate_plan",
]
