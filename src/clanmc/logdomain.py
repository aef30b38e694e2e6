"""Log-domain carrier for nonnegative reals.

Survival functionals of long walks span e^{+-O(sqrt(n))}, far beyond double
range, so every product and ratio is kept as a log magnitude and only final
estimates exit to linear scale.  Exact zero is a first-class state, not a
large negative log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_TINY = -700.0  # below this, exp underflows and 1 - e^{-t} ~ t to full precision
_LOG2 = math.log(2.0)


def log1m_exp_neg_vec(log_t: np.ndarray) -> np.ndarray:
    """log(1 - exp(-t)) for t = exp(log_t) > 0, elementwise and stable over the whole range.

    For tiny t the result is ~ log_t; for large t it approaches 0 from below.
    """
    log_t = np.asarray(log_t, dtype=float)
    out = np.empty_like(log_t)
    tiny = log_t < _LOG_TINY
    out[tiny] = log_t[tiny]
    rest = ~tiny
    with np.errstate(over="ignore"):
        t = np.exp(log_t[rest])
    big = t > _LOG2
    r = np.empty_like(t)
    r[big] = np.log1p(-np.exp(-t[big]))
    r[~big] = np.log(-np.expm1(-t[~big]))
    out[rest] = r
    return out


@dataclass(frozen=True)
class LogValue:
    """A nonnegative real stored as log magnitude plus an exact-zero flag."""

    log: float
    is_zero: bool = False

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(-math.inf, True)

    @staticmethod
    def from_log(log_magnitude: float) -> "LogValue":
        return LogValue(float(log_magnitude), False)

    @property
    def value(self) -> float:
        """Linear-scale value; may underflow to 0.0 or overflow to inf."""
        if self.is_zero:
            return 0.0
        return math.exp(self.log)
