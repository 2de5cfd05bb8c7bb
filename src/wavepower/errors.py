"""Exception types shared across the package, and the min/max range
check of the data types and kernels that raise them."""

import math

import numpy as np


def _positive_finite(x, zero_ok=False):
    """(min, max) of array x if every element lies in (0, inf), or in
    [0, inf) with zero_ok, else None; NaN fails. The extremes are numpy
    scalars, or (1.0, 1.0) if x is empty. Two reductions, the max only
    once the min has passed, and no temporary array, whatever the size
    of x."""
    if x.size == 0:
        return 1.0, 1.0
    low = np.minimum.reduce(x, axis=None)
    if not (low >= 0 if zero_ok else low > 0):
        return None
    high = np.maximum.reduce(x, axis=None)
    return (low, high) if high < math.inf else None


class WavePowerError(Exception):
    """Base class for all package errors."""


class DomainError(WavePowerError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SolverError(WavePowerError, RuntimeError):
    """Iterative solver failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DataError(WavePowerError, ValueError):
    """Empty or otherwise unusable input data."""


class ParseError(WavePowerError, ValueError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(WavePowerError, ValueError):
    """Invalid run configuration."""
