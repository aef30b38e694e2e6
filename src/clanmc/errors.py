"""Exception types shared across the package, and the count and index checks that raise one."""

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


def _is_integer(value) -> bool:
    # a bool is an int, but no count, index or seed; int() would truncate a float
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value) -> None:
    """Refuse a value that is not a positive integer; numpy integers pass."""
    if not _is_integer(value) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")


def check_index(name: str, value, stop) -> None:
    """Refuse a value that is not an integer in [0, stop); numpy integers pass."""
    if not _is_integer(value) or not 0 <= value < stop:
        raise DomainError(f"{name} must be an integer in [0, {stop}), got {value!r}")
