"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the admissible domain (grid spacing, time horizon, ...)."""


class ConfigError(ValueError):
    """Invalid run configuration (bad key, inconsistent dt/t_end, unknown problem)."""


class ShapeMismatch(ValueError):
    """Array arguments with incompatible shapes."""


class NonFiniteState(ArithmeticError):
    """A time step produced NaN/Inf entries (instability)."""

    def __init__(self, message, t=None, stage=None):
        super().__init__(message)
        self.t = t
        self.stage = stage


class ConvergenceFailure(ArithmeticError):
    """An iterative numerical routine failed to converge."""


class NoStableDt(ArithmeticError):
    """No stable time step found down to the search floor."""


class DegenerateError(ValueError):
    """Quantity too small/degenerate for the requested computation."""
