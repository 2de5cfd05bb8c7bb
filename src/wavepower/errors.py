"""Exception types shared across the package."""


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
