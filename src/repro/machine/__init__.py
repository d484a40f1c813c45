"""Machine models: specs, cache simulation, traffic analysis, roofline."""
from .cache import CacheHierarchy, HierarchyStats, LRUCache, SetAssociativeCache
from .kernels import KernelSpec, SliceAccess, SweepSpec
from .perfmodel import GridGeometry, PerfResult, PerformanceModel, SourceLoad
from .roofline import RooflinePoint, render_roofline, roofline_points
from .spec import BROADWELL, MACHINES, SKYLAKE, CacheLevel, MachineSpec

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
    "LRUCache",
    "SetAssociativeCache",
    "CacheHierarchy",
    "HierarchyStats",
    "RooflinePoint",
    "roofline_points",
    "render_roofline",
]
