"""Semantic exception hierarchy.

Exit-code mapping used by the CLI: input-side problems (schema, data,
configuration, generator specs) exit 1; numerical failures of the tests and
estimators exit 2. Public functions raise these, never bare ValueError.
"""


class LatentcatError(Exception):
    """Base class for all errors raised by this package."""


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


class IdentificationError(LatentcatError):
    """Closed-form identification failed its assumption checks.

    Carries the diagnostics gathered up to the failure point when available.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class EstimationError(LatentcatError):
    """A maximum-likelihood or moment-based estimator failed."""


class OptimizationError(EstimationError):
    """No optimization start converged; per-start diagnostics attached."""

    def __init__(self, message, start_diagnostics=None):
        super().__init__(message)
        self.start_diagnostics = start_diagnostics or []
