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
squares and the cross sums of paired samples, the limb products grouped by
weight) are summed per exponent with np.bincount.  The per-exponent totals
are folded into one Python integer.  Ratios of paired means and their
errors are then computed exactly from these sums and rounded once.
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
# below 2**53.  In magnitude, a sum limb is below 2**18 and a product group
# (a0 b0, a0 b1 + a1 b0, a0 b2 + a1 b1 + a2 b0, a1 b2 + a2 b1, a2 b2 with
# a2, b2 < 2**17) below 2**37, so 2**16 values per chunk keep every bucket
# below 2**53.
_CHUNK = 1 << 16
# _fold's split of an aligned bucket total, and the powers one int64 word packs
_HALF = 28
_WORD = 32
_WORD_SHIFTS = np.arange(_WORD, dtype=np.int64)
_ONE = 1 << -_MIN_EXP  # 1.0 in units of the lowest bucket's bit
_TINY = Fraction(np.finfo(float).tiny)  # smallest normal double


def _fold(groups) -> int:
    """sum over groups k and buckets j of c_kj * 2**(j + LIMB * k).

    The float64 bucket totals are exact integers below 2**53, so the int64
    conversion is exact, and at most five of them meet at one power of two,
    so the aligned int64 sum c_j stays below 2**56.  Each c_j is cut into a
    low part c_j mod 2**28, kept at power j, and a high part c_j >> 28, moved
    to power j + 28, so each power then holds a d_j with |d_j| < 2**29.
    32 consecutive powers pack into one int64 word, sum over t < 32 of
    d_(32 w + t) * 2**t, below 2**61 in magnitude, and the Python loop adds
    the nonzero words, not the nonzero buckets, which may be 32 times as many.
    """
    width = len(groups[0])
    size = width + _LIMB * (len(groups) - 1) + _HALF  # room for the top high part
    acc = np.zeros(-(-size // _WORD) * _WORD, dtype=np.int64)
    for k, counts in enumerate(groups):
        acc[_LIMB * k:_LIMB * k + width] += counts.astype(np.int64)
    high = acc >> _HALF  # arithmetic shift: the low part below is nonnegative
    acc &= (1 << _HALF) - 1
    acc[_HALF:] += high[:-_HALF]
    words = (acc.reshape(-1, _WORD) << _WORD_SHIFTS).sum(axis=1).tolist()
    return sum(c << (_WORD * w) for w, c in enumerate(words) if c)


def _splits(values: np.ndarray):
    """Each chunk of at most _CHUNK values as (bucket index, limbs (a0, a1, a2)).

    A value is (a0 + a1 2**18 + a2 2**36) * 2**(index + _MIN_EXP): the limbs
    are cut toward zero from its integer mantissa M, and all carry its sign.
    """
    for lo in range(0, values.size, _CHUNK):
        chunk = values[lo:lo + _CHUNK]
        # frexp maps inf and nan to garbage mantissas; refuse them first
        if not np.isfinite(chunk).all():
            raise NumericalFailureError("a Monte Carlo average got a non-finite sample value")
        m, e = np.frexp(chunk)
        a0 = np.ldexp(m, 53, out=m)        # M as an exact float64 integer
        a2 = np.trunc(a0 / _LIMB_SCALE ** 2)
        a0 -= a2 * _LIMB_SCALE ** 2
        a1 = np.trunc(a0 / _LIMB_SCALE)
        a0 -= a1 * _LIMB_SCALE
        yield e - (_MIN_EXP + 53), (a0, a1, a2)


def _cross(ix, a, iy, b) -> int:
    """The sum of x y over two split chunks, in units of 2**(2 _MIN_EXP): the limb
    products, grouped by weight 2**(18 k), fall in the buckets of the summed
    indices; one product group is alive at a time."""
    idx = ix + iy
    return _fold([np.bincount(idx, weights=a[0] * b[0]),
                  np.bincount(idx, weights=a[0] * b[1] + a[1] * b[0]),
                  np.bincount(idx, weights=a[0] * b[2] + a[1] * b[1] + a[2] * b[0]),
                  np.bincount(idx, weights=a[1] * b[2] + a[2] * b[1]),
                  np.bincount(idx, weights=a[2] * b[2])])


def _exact_sums(values: np.ndarray, splits_y=None) -> tuple[Fraction, Fraction, Fraction]:
    """Exact sum, sum of squares and cross sum of a float64 array, in bounded chunks.

    The cross sum is with the paired array whose _splits are splits_y (else 0).
    """
    total = total_sq = total_xy = 0
    for k, (idx, a) in enumerate(_splits(values)):
        total += _fold([np.bincount(idx, weights=limb) for limb in a])
        total_sq += _cross(idx, a, idx, a)
        if splits_y:
            total_xy += _cross(idx, a, *splits_y[k])
    return Fraction(total, _ONE), Fraction(total_sq, _ONE ** 2), Fraction(total_xy, _ONE ** 2)


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
        return cls(*_exact_sums(values)[:2], values.size)

    def __add__(self, other: "MCEstimate") -> "MCEstimate":
        """The statistics of the two samples pooled."""
        return MCEstimate(self.sum + other.sum, self.sum_sq + other.sum_sq,
                          self.count + other.count)

    @property
    def mean(self) -> float:
        return float(self.sum / self.count)

    @property
    def stderr(self) -> float:
        denom = max(self.count - 1, 1)
        v = (self.sum_sq / self.count - (self.sum / self.count) ** 2) / denom
        # below the normal range float(v) would lose digits; the exact root need not
        return _sqrt(v) if v < _TINY else math.sqrt(float(v))


def paired_sums(y: np.ndarray, xs) -> list[tuple[MCEstimate, Fraction]]:
    """The exact statistics of each float64 array x of `xs`, and its exact cross sum with y.

    The arrays pair with y replicate by replicate.  y is cut into limbs
    once for all of them, and each x once for its sums; xs is read one
    array at a time, so a generator keeps one alive.
    """
    splits_y = list(_splits(y))
    out = []
    for x in xs:
        if x.shape != y.shape:
            raise ValueError("paired arrays must be equal-length 1-d")
        total, total_sq, total_xy = _exact_sums(x, splits_y)
        out.append((MCEstimate(total, total_sq, x.size), total_xy))
    return out


def _sqrt(v: Fraction) -> float:
    """The double nearest the square root of an exact rational v >= 0."""
    # 4**k v has at least 110 bits, so its root lies in [t, t + 1) with t of
    # at least 55 bits; no rounding boundary of a double lies inside (t, t + 1),
    # so every root in it rounds as t + 1/2 does
    k = (112 - v.numerator.bit_length() + v.denominator.bit_length()) // 2
    scaled = v * Fraction(4) ** k
    t = math.isqrt(math.floor(scaled))
    return float(Fraction(2 * t + (t * t != scaled)) / Fraction(2) ** (k + 1))


def ratio_with_stderr(num: MCEstimate, den: MCEstimate, sum_xy: Fraction) -> tuple[float, float]:
    """Delta-method ratio of paired sample means, covariance term included, from exact sums.

    num and den are the statistics of samples x and y on the same
    replicates (common random numbers), sum_xy their cross sum.  The ratio
    r = sum(x) / sum(y) is rounded once.  The error is
    sqrt(sum d**2 / (m (m - 1))) / |mean(y)| over the residuals
    d = (x - mean(x)) - r (y - mean(y)) with the exact r, so that
    sum(x - r y) = 0 and sum d**2 = sum(x**2) - 2 r sum(x y) + r**2 sum(y**2)
    exactly; the error is rounded once too.  For x is y (r = 1) and x
    identically zero (r = 0) that sum, and so the error, is exactly zero.
    """
    if num.count != den.count:
        raise ValueError("paired statistics must count the same replicates")
    if den.sum == 0:
        raise ZeroDivisionError("ratio denominator sums to zero")
    r, m = num.sum / den.sum, den.count
    if m < 2:
        return float(r), math.inf
    residual = num.sum_sq - 2 * r * sum_xy + r * r * den.sum_sq
    return float(r), _sqrt(residual * m / ((m - 1) * den.sum ** 2))
