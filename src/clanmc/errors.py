"""Exception types shared across the package, and the count check that raises one."""

import numbers


class ClanMCError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ClanMCError):
    """Invalid configuration, parameter value or config file."""


class DomainError(ClanMCError, ValueError):
    """Argument outside an operation's stated domain."""


class NumericalFailureError(ClanMCError):
    """Overflow, or a result too unreliable to report."""


class UnreliableRatioError(NumericalFailureError):
    """Ratio denominator statistically indistinguishable from zero."""


class AssumptionViolationError(ClanMCError):
    """Estimator requested under assumptions the environment law violates."""


def check_count(name: str, value) -> None:
    """Refuse a value that is not a positive integer; numpy integers pass."""
    # a bool is an int, but no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
