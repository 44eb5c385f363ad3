"""Exception hierarchy shared across the package.

Three broad categories, mirrored by the CLI exit codes: configuration
problems (exit 2), violated physics preconditions (exit 3) and numerical
failures (exit 4).
"""


class QdiccError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QdiccError):
    """Malformed or inconsistent configuration input."""


class PreconditionError(QdiccError):
    """An operation was called outside its physical domain of validity."""


class ForbiddenTransitionError(PreconditionError):
    """Requested a transition channel that does not exist in the network."""


class UndefinedForceError(PreconditionError):
    """Microscopic force expressions are undefined (zero inter-dot coupling)."""


class LogDomainError(PreconditionError):
    """A logarithm of a non-positive rate or population was requested."""


class DegenerateRateError(PreconditionError):
    """A rate-constant ratio has a vanishing denominator."""


class NumericalError(QdiccError):
    """A numerical procedure failed or an internal identity broke down."""


class DegenerateNetworkError(NumericalError):
    """No unique steady state: the spanning-tree normalization is zero or not finite."""


class IntegrationError(NumericalError):
    """Time integration left the probability simplex beyond tolerance."""


class SecondLawViolationError(NumericalError):
    """Currents oppose forces in a combination that would make the total
    entropy production rate negative; indicates a solver or input bug."""
