"""The paper's §IV machines as a model: Broadwell/Skylake specs, per-sweep
traffic analysis, a cache-aware roofline and the Table I shape tuner.

These are figure artefacts, not part of the library: the Fig. 9–11 and
Table I benches evaluate them at the paper's 512^3 geometry on the two Azure
VMs.  ``bench_scale.py`` measures the same shapes on the host it runs on and
records how well this model ranks them (Spearman rho).  The package imports
:mod:`repro`; nothing in ``src/`` imports it.  Put ``benchmarks/`` on
``sys.path`` to use it, as ``paper_setup`` is used.
"""
from .kernels import KernelSpec, SliceAccess, SweepSpec
from .perfmodel import GridGeometry, PerfResult, PerformanceModel, SourceLoad
from .roofline import RooflinePoint, render_roofline, roofline_points
from .spec import BROADWELL, MACHINES, SKYLAKE, CacheLevel, MachineSpec
from .tuner import (
    DEFAULT_BLOCKS,
    DEFAULT_TILES,
    TuneCandidate,
    TuneResult,
    tune_spatial,
    tune_wavefront,
)

__all__ = [
    "CacheLevel",
    "MachineSpec",
    "BROADWELL",
    "SKYLAKE",
    "MACHINES",
    "KernelSpec",
    "SweepSpec",
    "SliceAccess",
    "GridGeometry",
    "SourceLoad",
    "PerformanceModel",
    "PerfResult",
    "RooflinePoint",
    "roofline_points",
    "render_roofline",
    "tune_wavefront",
    "tune_spatial",
    "TuneResult",
    "TuneCandidate",
    "DEFAULT_TILES",
    "DEFAULT_BLOCKS",
]
