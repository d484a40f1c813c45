"""repro — reproduction of "Temporal blocking of finite-difference stencil
operators with sparse 'off-the-grid' sources" (Bisbas et al., 2021).

The package provides, from scratch:

* a Devito-style symbolic DSL for finite-difference operators
  (:mod:`repro.dsl`),
* a small compiler — dependence analysis, loop-nest IR, transformation
  passes, C code generation (:mod:`repro.ir`),
* the paper's contribution: precomputation of sparse off-the-grid source
  injection / receiver interpolation into grid-aligned structures
  (masks, source IDs, decomposed wavelets, compressed iteration spaces) and
  wave-front temporal-blocking schedules (:mod:`repro.core`),
* NumPy executors that run every schedule bit-compatibly
  (:mod:`repro.execution`),
* three industrial wave propagators — isotropic acoustic, anisotropic
  acoustic (TTI), isotropic elastic (:mod:`repro.propagators`),
* the benchmark harness (``benchmarks/``, outside the package): the
  measured stack benchmark and the schedule sweep, and the Broadwell/Skylake
  roofline model and tuner (``benchmarks/paper_model/``) that regenerate the
  paper's 512^3 tables and figures.

Quickstart::

    from repro import (Grid, TimeFunction, Function, SparseTimeFunction,
                       Eq, solve, Operator)

    grid = Grid(shape=(64, 64, 64))
    u = TimeFunction("u", grid, time_order=2, space_order=8)
    m = Function("m", grid, space_order=8); m.data = 1.0 / 1.5**2
    src = SparseTimeFunction("src", grid, npoint=1, nt=101)
    dt_sym = grid.stepping_dim.spacing

    update = Eq(u.forward, solve(m * u.dt2 - u.laplace, u.forward))
    op = Operator([update], sparse=[src.inject(u, expr=dt_sym**2 / m)])
    op.apply(time_M=100, dt=1.0, schedule="wavefront")  # or a WavefrontSchedule
"""

from .core import (
    NaiveSchedule,
    SpatialBlockSchedule,
    WavefrontSchedule,
    build_masks,
    decompose_receiver,
    decompose_source,
)
from .dsl import (
    Eq,
    Function,
    Grid,
    SparseTimeFunction,
    TimeFunction,
    solve,
)
from .errors import (
    CoordinateOutOfDomain,
    EngineCompilationError,
    EngineFallbackWarning,
    InjectedFault,
    InvalidTimeRange,
    KernelLintError,
    NumericalBlowup,
    PlanValidationError,
    ReproError,
    ScheduleLegalityError,
    StabilityViolation,
    StabilityWarning,
)
from .ir import Operator
from .telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "Grid",
    "Function",
    "TimeFunction",
    "SparseTimeFunction",
    "Eq",
    "solve",
    "Operator",
    "NaiveSchedule",
    "SpatialBlockSchedule",
    "WavefrontSchedule",
    "build_masks",
    "decompose_source",
    "decompose_receiver",
    # per-run tracing/counters (exporters live in repro.telemetry)
    "Telemetry",
    # structured error taxonomy (the runtime resilience layer lives in
    # repro.runtime; import it explicitly — it is not pulled in by default)
    "ReproError",
    "NumericalBlowup",
    "CoordinateOutOfDomain",
    "StabilityViolation",
    "EngineCompilationError",
    "KernelLintError",
    "ScheduleLegalityError",
    "InvalidTimeRange",
    "PlanValidationError",
    "InjectedFault",
    "StabilityWarning",
    "EngineFallbackWarning",
    "__version__",
]
