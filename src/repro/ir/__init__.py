"""Compiler intermediate representation: dependence analysis, the
three-address kernel IR, expression passes and the NumPy and C back ends."""
from .dependencies import (
    Access,
    Sweep,
    build_sweeps,
    read_accesses,
    wavefront_angle,
    written_access,
)
from .operator import Operator
from .passes import CSEResult, cse_sweep
from .pycodegen import (
    ScratchPool,
    clear_kernel_caches,
    compile_sweep,
    kernel_cache_stats,
)

__all__ = [
    "Operator",
    "CSEResult",
    "cse_sweep",
    "ScratchPool",
    "compile_sweep",
    "kernel_cache_stats",
    "clear_kernel_caches",
    "Access",
    "Sweep",
    "build_sweeps",
    "read_accesses",
    "written_access",
    "wavefront_angle",
]
