"""Exception types shared across the package, and the positive-and-finite
check of the data types and kernels that raise them."""

import math


def _positive_finite(x, zero_ok=False):
    """Whether every element of array x lies in (0, inf), or in [0, inf)
    with zero_ok; NaN does not. Two reductions and no temporary array,
    whatever the size of x."""
    if x.size == 0:
        return True
    low = x.min()
    return bool((low >= 0 if zero_ok else low > 0) and x.max() < math.inf)


class WavePowerError(Exception):
    """Base class for all package errors."""


class DomainError(WavePowerError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ContractError(WavePowerError, ValueError):
    """Mismatched shapes or otherwise inconsistent arguments."""


class SolverError(WavePowerError, RuntimeError):
    """Iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SizingError(WavePowerError, ValueError):
    """Input too short for the requested segmentation."""


class SamplingError(WavePowerError, ValueError):
    """Sample interval violates a sampling constraint (e.g. Nyquist)."""


class ScalingError(WavePowerError, ValueError):
    """Degenerate range makes a normalization undefined."""

    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class DataError(WavePowerError, ValueError):
    """Empty or otherwise unusable input data."""


class EvaluationError(WavePowerError, RuntimeError):
    """Objective returned a non-finite value."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ParseError(WavePowerError, ValueError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class JoinError(WavePowerError, ValueError):
    """Point sets from different pipeline stages do not match."""


class ConfigError(WavePowerError, ValueError):
    """Invalid run configuration."""
