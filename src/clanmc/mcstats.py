"""Mergeable Monte Carlo sufficient statistics.

Sums and sums of squares are kept as exact dyadic rationals (floats are
dyadic, so their exact sum is representable), which makes merging shards
commutative, associative and identical to pooling the raw samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np


def exact_float_sum(values: Iterable[float]) -> Fraction:
    """Exact sum of floats as a Fraction (no rounding, any order)."""
    num = 0
    shift = 0  # running value is num / 2**shift
    for v in values:
        n, d = float(v).as_integer_ratio()
        k = d.bit_length() - 1
        if k > shift:
            num = (num << (k - shift)) + n
            shift = k
        else:
            num += n << (shift - k)
    return Fraction(num, 1 << shift)


def exact_float_square_sum(values: Iterable[float]) -> Fraction:
    """Exact sum of squared floats; squares are taken in integer arithmetic,
    so the Cauchy-Schwarz bound (hence nonnegative variance) holds exactly."""
    num = 0
    shift = 0
    for v in values:
        n, d = float(v).as_integer_ratio()
        k = 2 * (d.bit_length() - 1)
        nn = n * n
        if k > shift:
            num = (num << (k - shift)) + nn
            shift = k
        else:
            num += nn << (shift - k)
    return Fraction(num, 1 << shift)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with mergeable exact sufficient statistics."""

    sum: Fraction
    sum_sq: Fraction
    count: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "MCEstimate":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("from_values needs a nonempty 1-d array")
        vals = values.tolist()
        return cls(exact_float_sum(vals), exact_float_square_sum(vals), len(vals))

    @property
    def mean(self) -> float:
        return float(self.sum / self.count)

    @property
    def stderr(self) -> float:
        denom = max(self.count - 1, 1)
        v = (self.sum_sq / self.count - (self.sum / self.count) ** 2) / denom
        return math.sqrt(float(v))

    def merge(self, other: "MCEstimate") -> "MCEstimate":
        """Pool two estimates; exactly equals the estimate of the pooled samples."""
        return MCEstimate(self.sum + other.sum, self.sum_sq + other.sum_sq, self.count + other.count)


def ratio_with_stderr(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Delta-method ratio of paired sample means, covariance term included.

    Both arrays must come from the same replicates (common random numbers).
    The deterministic cases num is den (ratio 1) and num identically zero
    (ratio 0) come out exact because the identical numpy reductions cancel.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if num.shape != den.shape or num.ndim != 1:
        raise ValueError("paired arrays must be equal-length 1-d")
    m = num.size
    sx, sy = float(np.sum(num)), float(np.sum(den))
    if sy == 0.0:
        raise ZeroDivisionError("ratio denominator sums to zero")
    r = sx / sy
    if m < 2:
        return r, math.inf
    mean_x, mean_y = sx / m, sy / m
    var_x = float(np.sum((num - mean_x) ** 2)) / (m - 1)
    var_y = float(np.sum((den - mean_y) ** 2)) / (m - 1)
    cov = float(np.sum((num - mean_x) * (den - mean_y))) / (m - 1)
    resid = var_x - 2.0 * r * cov + r * r * var_y
    if resid < 0.0:  # roundoff only; the exact quantity is a residual variance
        resid = 0.0
    return r, math.sqrt(resid / m) / abs(mean_y)
