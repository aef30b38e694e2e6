"""Monte Carlo sufficient statistics, summed exactly.

The sum and the sum of squares of a sample are kept as exact dyadic
rationals (floats are dyadic, so their exact sum is representable).  The
statistics of a sample therefore do not depend on how it was split into
blocks or in which order the blocks were reduced: the sums of any partition
add up exactly to the sums of the pooled array.

The sums come from a vectorised superaccumulator (Neal, "Fast exact
summation using small and large superaccumulators", arXiv:1505.05571):
each value is split into a signed 53-bit integer mantissa and a binary
exponent, the mantissa is cut into 18-bit limbs, and the limbs (and, for the
squares, the limb products grouped by weight) are summed per exponent with
np.bincount.  The per-exponent totals are folded into one Python integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalFailureError

_LIMB = 18
_LIMB_SCALE = float(1 << _LIMB)
# frexp gives |m| in [0.5, 1) and an exponent e >= -1073 for every nonzero
# finite double (subnormals included), so v = M * 2**(e - 53) with the
# integer mantissa M = m * 2**53, |M| < 2**53, and e - 53 >= _MIN_EXP.
_MIN_EXP = -1126
# Float64 bincount sums stay exact while every partial sum is an integer
# below 2**53.  A sum limb is below 2**18 in magnitude and a square group
# (a0^2, 2 a0 a1, a1^2 + 2 a0 a2, 2 a1 a2, a2^2 with a2 < 2**17) below
# 2**37, so 2**16 values per chunk keep every bucket below 2**53.
_CHUNK = 1 << 16
_TINY = Fraction(np.finfo(float).tiny)  # smallest normal double


def _fold(groups, index_scale: int) -> int:
    """sum over groups k and buckets j of c_kj * 2**(index_scale * j + LIMB * k).

    The float64 bucket totals are exact integers below 2**53, so the int64
    conversion is exact, and at most five of them meet at one power of two,
    so the aligned int64 sum stays below 2**56.  The nonzero powers are then
    added up in a Python int.
    """
    width = len(groups[0])
    acc = np.zeros(index_scale * (width - 1) + _LIMB * (len(groups) - 1) + 1, dtype=np.int64)
    for k, counts in enumerate(groups):
        acc[_LIMB * k:_LIMB * k + index_scale * width:index_scale] += counts.astype(np.int64)
    nz = np.flatnonzero(acc)
    return sum(c << j for j, c in zip(nz.tolist(), acc[nz].tolist()))


def _exact_sums(values: np.ndarray) -> tuple[Fraction, Fraction]:
    """Exact sum and sum of squares of a float64 array, in bounded chunks."""
    num = 0      # the sum is num / 2**(-_MIN_EXP)
    num_sq = 0   # the square sum is num_sq / 2**(-2 * _MIN_EXP)
    for lo in range(0, values.size, _CHUNK):
        chunk = values[lo:lo + _CHUNK]
        # frexp maps inf and nan to garbage mantissas; refuse them first
        if not np.isfinite(chunk).all():
            raise NumericalFailureError("a Monte Carlo average got a non-finite sample value")
        m, e = np.frexp(chunk)
        idx = e - (_MIN_EXP + 53)          # bucket of the unit bit of M; >= 0
        # M as an exact float64 integer, cut toward zero into limbs that all
        # carry its sign, so every limb product below is nonnegative
        a0 = np.ldexp(m, 53, out=m)
        a2 = np.trunc(a0 / _LIMB_SCALE ** 2)
        a0 -= a2 * _LIMB_SCALE ** 2
        a1 = np.trunc(a0 / _LIMB_SCALE)
        a0 -= a1 * _LIMB_SCALE
        num += _fold([np.bincount(idx, weights=a) for a in (a0, a1, a2)], 1)
        # M^2 by weight 2**(18 k); one product array is alive at a time
        num_sq += _fold([np.bincount(idx, weights=a0 * a0),
                         np.bincount(idx, weights=2.0 * a0 * a1),
                         np.bincount(idx, weights=a1 * a1 + 2.0 * a0 * a2),
                         np.bincount(idx, weights=2.0 * a1 * a2),
                         np.bincount(idx, weights=a2 * a2)], 2)
    return Fraction(num, 1 << -_MIN_EXP), Fraction(num_sq, 1 << (-2 * _MIN_EXP))


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with exact sufficient statistics."""

    sum: Fraction
    sum_sq: Fraction
    count: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "MCEstimate":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("from_values needs a nonempty 1-d array")
        total, total_sq = _exact_sums(values)
        return cls(total, total_sq, values.size)

    @property
    def mean(self) -> float:
        return float(self.sum / self.count)

    @property
    def stderr(self) -> float:
        denom = max(self.count - 1, 1)
        v = (self.sum_sq / self.count - (self.sum / self.count) ** 2) / denom
        if 0 < v < _TINY:  # float(v) would lose digits or underflow; the root need not
            k = (v.denominator.bit_length() - v.numerator.bit_length()) // 2 + 1
            return math.ldexp(math.sqrt(float(v * 4**k)), -k)
        return math.sqrt(float(v))


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
