"""Exception hierarchy. Exit-code mapping for the CLI lives in cli.py."""


class TehScreenError(Exception):
    """Base class for all package errors."""


class ConfigError(TehScreenError):
    """Invalid or incomplete configuration."""


class DataError(TehScreenError):
    """Invalid input data."""


class CsvParseError(DataError):
    """Cell failed to parse; carries 1-based row and column name."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DegenerateDesignError(DataError):
    """Design cannot support the requested model (e.g. single-arm treatment)."""


class NumericalError(TehScreenError):
    """Numerical failure during fitting or simulation."""


class FitError(NumericalError):
    """IRLS failed to converge; carries the last iterate for diagnostics."""

    def __init__(self, message, last_coefficients=None, iterations=None):
        super().__init__(message)
        self.last_coefficients = last_coefficients
        self.iterations = iterations


class SeparationError(FitError):
    """Perfect separation detected in a binomial fit (diverging coefficients)."""


class NestingError(NumericalError):
    """Likelihood-ratio test called on a non-nested model pair."""


class DegenerateVarianceError(NumericalError):
    """A standardized quantity has zero variance."""


class NullSimulationError(NumericalError):
    """Too many replicate failures for the null distribution to be reliable."""
