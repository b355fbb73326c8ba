"""Semantic exception hierarchy.

The CLI exits with the class's ``exit_code``: 1 for input-side problems
(schema, data, configuration, generator specs), 2 for numerical failures of
the tests and estimators. Public functions raise these, never bare ValueError.
``identify`` exits with ``OptimizationError``'s code when a cell's fit fails or
the cell is empty.
"""


class LatentcatError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class SchemaError(LatentcatError):
    """The schema file is malformed or inconsistent with its own contract."""


class DataError(LatentcatError):
    """The input data cannot support the requested operation."""


class EmptyCellError(DataError):
    """A covariate cell that the operation needs holds no records."""


class ConfigurationError(LatentcatError):
    """Valid inputs combined in an unsupported way (e.g. non-square support)."""


class DomainError(LatentcatError):
    """A numerical argument lies outside its mathematical domain."""


class GeneratorError(LatentcatError):
    """The synthetic-model generator could not satisfy its constraints."""


class IndependenceTestError(LatentcatError):
    """The independence test cannot be run on this (sub)sample."""

    exit_code = 2


class EstimationError(LatentcatError):
    """A maximum-likelihood or moment-based estimator failed."""

    exit_code = 2


class OptimizationError(EstimationError):
    """No optimization start converged; per-start diagnostics attached."""

    def __init__(self, message, start_diagnostics=None):
        super().__init__(message)
        self.start_diagnostics = start_diagnostics or []
