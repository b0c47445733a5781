"""Spline-based differential quadrature solver for coupled Burgers' equations.

The package discretizes space with derivative weight matrices obtained from
a modified trigonometric cubic B-spline basis, integrates in time with a
five-stage fourth-order strong-stability-preserving Runge-Kutta scheme, and
ships the standard 1D/2D benchmark problems, error metrics, matrix stability
analysis, and an experiment command-line front end (``burgers-dqm``).

The names below are the documented API.  The building blocks behind them
(spline tables, Dirichlet imposition, the scheme's coefficients and
stability function, eigen-spectra) stay importable from their own modules.
"""

from .burgers_rhs import (
    Problem1D,
    Problem2D,
    boundary_forcing_1d,
    boundary_forcing_2d,
    rhs_1d,
    rhs_2d,
)
from .dqm_weights import (
    Grid1D,
    Grid2D,
    first_order_weights,
    second_order_weights,
    weights_2d,
)
from .exceptions import (
    ConfigError,
    ConvergenceFailure,
    DegenerateError,
    DomainError,
    NoStableDt,
    NonFiniteState,
    ShapeMismatch,
)
from .problems import (
    ErrorReport,
    OrderEstimate,
    PROBLEM_BUILDERS,
    REFERENCE_TABLE_KEYS,
    convergence_order,
    error_norms,
    load_reference_table,
    problem1,
    problem2,
    problem3,
    problem4,
)
from .solvers import Solution, solve_1d, solve_2d
from .ssprk54 import step
from .stability import (
    FrozenParams,
    StabilityReport,
    analyze,
    kronecker_spectrum_check,
    max_stable_dt,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceFailure",
    "DegenerateError",
    "DomainError",
    "ErrorReport",
    "FrozenParams",
    "Grid1D",
    "Grid2D",
    "NoStableDt",
    "NonFiniteState",
    "OrderEstimate",
    "PROBLEM_BUILDERS",
    "Problem1D",
    "Problem2D",
    "REFERENCE_TABLE_KEYS",
    "ShapeMismatch",
    "Solution",
    "StabilityReport",
    "analyze",
    "boundary_forcing_1d",
    "boundary_forcing_2d",
    "convergence_order",
    "error_norms",
    "first_order_weights",
    "kronecker_spectrum_check",
    "load_reference_table",
    "max_stable_dt",
    "problem1",
    "problem2",
    "problem3",
    "problem4",
    "rhs_1d",
    "rhs_2d",
    "second_order_weights",
    "solve_1d",
    "solve_2d",
    "step",
    "weights_2d",
]
