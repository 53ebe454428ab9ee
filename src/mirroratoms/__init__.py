"""Entanglement dynamics of two uniformly accelerated two-level atoms coupled
to a massless scalar field in front of a reflecting boundary."""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegenerateKernelError, DomainError,
                     InvariantError)
from .correlations import CoefficientSet, SystemParams, compute_coefficients
from .evolution import (EvolutionResult, XState, default_horizon, default_time_grid,
                        evolve_closed, population_generator, prepare_initial)
from .concurrence import (ConcurrenceReport, GenerationReport, concurrence_x,
                          generation_rate, max_concurrence, max_concurrences)
from .sweep import (SweepResult, SweepRow, SweepSpec, emit, load_result,
                    preset, run_sweep)

__all__ = [
    "CoefficientSet", "ConcurrenceReport", "ConvergenceError",
    "DegenerateKernelError", "DomainError", "EvolutionResult",
    "GenerationReport", "InvariantError", "SweepResult", "SweepRow",
    "SweepSpec", "SystemParams", "XState", "compute_coefficients",
    "concurrence_x", "default_horizon", "default_time_grid", "emit",
    "evolve_closed", "generation_rate", "load_result", "max_concurrence",
    "max_concurrences", "population_generator", "prepare_initial", "preset",
    "run_sweep",
]
