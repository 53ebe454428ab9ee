"""Entanglement dynamics of two uniformly accelerated two-level atoms coupled
to a massless scalar field in front of a reflecting boundary."""

__version__ = "0.1.0"

from .errors import (ConvergenceError, DegenerateKernelError, DomainError,
                     InvariantError)
from .correlations import (CoefficientSet, SpectralPair, SystemParams,
                           compute_coefficients, coth, kernel_f, kernel_h,
                           spectral_density)
from .evolution import (EvolutionResult, StateDerivative, XState,
                        default_horizon, default_time_grid, evolve_closed,
                        evolve_numeric, population_generator, prepare_initial,
                        rhs, slowest_relaxation_rate, steady_state)
from .concurrence import (ConcurrenceReport, GenerationReport, concurrence_general,
                          concurrence_x, generation_rate, k1_closed,
                          max_concurrence, max_concurrences, to_product_matrix)
from .sweep import (SweepResult, SweepRow, SweepSpec, emit, load_result,
                    preset, run_sweep)

__all__ = [
    "CoefficientSet", "ConcurrenceReport", "ConvergenceError",
    "DegenerateKernelError", "DomainError", "EvolutionResult",
    "GenerationReport", "InvariantError", "SpectralPair", "StateDerivative",
    "SweepResult", "SweepRow", "SweepSpec", "SystemParams", "XState",
    "compute_coefficients", "concurrence_general", "concurrence_x", "coth",
    "default_horizon", "default_time_grid", "emit", "evolve_closed",
    "evolve_numeric", "generation_rate", "k1_closed", "kernel_f", "kernel_h",
    "load_result", "max_concurrence", "max_concurrences", "population_generator",
    "prepare_initial", "preset", "rhs", "run_sweep",
    "slowest_relaxation_rate", "spectral_density", "steady_state",
    "to_product_matrix",
]
