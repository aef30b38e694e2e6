import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clanmc.errors import NumericalFailureError
from clanmc.mcstats import _CHUNK, MCEstimate, ratio_with_stderr


def test_exact_float_sum_is_exact():
    rng = np.random.default_rng(1)
    vals = np.concatenate([rng.random(50) * 1e-12, -rng.random(50) * 1e8,
                           rng.standard_normal(100) * 2.0 ** rng.integers(-1074, 1000, 100)])
    est = MCEstimate.from_values(vals)
    assert est.sum == sum(map(Fraction, vals.tolist()))
    assert est.sum_sq == sum(Fraction(x) ** 2 for x in vals.tolist())


EXTREMES = [5e-324, -5e-324, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
            np.finfo(float).max, -np.finfo(float).tiny, 0.9999999999999999]


# A pool of hypothesis floats is tiled to the drawn size, so arrays longer than
# a chunk stay cheap to check: the reference groups equal values, which gives
# sum(map(Fraction, v)) exactly.  A pool of all-ones mantissas at one exponent
# drives every bucket of a full chunk to its largest total.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
       size=st.sampled_from([1, 2, 1000, _CHUNK, _CHUNK + 1, 2 ** 17 + 5]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(pool=[5e-324], size=1, seed=0)
@example(pool=[0.0, -0.0], size=_CHUNK + 1, seed=1)
@example(pool=EXTREMES, size=2 ** 17 + 5, seed=2)
@example(pool=[np.finfo(float).max], size=_CHUNK, seed=0)
@example(pool=[0.9999999999999999, -0.9999999999999999], size=_CHUNK + 1, seed=3)
def test_exact_sums_equal_fraction_sums(pool, size, seed):
    v = np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=size)]
    counts = Counter(v.tolist())
    est = MCEstimate.from_values(v)
    assert est.sum == sum(c * Fraction(x) for x, c in counts.items())
    assert est.sum_sq == sum(c * Fraction(x) ** 2 for x, c in counts.items())
    assert est.count == size


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, _CHUNK + 3])
def test_non_finite_value_is_numerical_failure(bad, where):
    v = np.ones(_CHUNK + 10)
    v[where] = bad
    with pytest.raises(NumericalFailureError):
        MCEstimate.from_values(v)


def test_mean_and_stderr_match_numpy():
    rng = np.random.default_rng(2)
    vals = rng.lognormal(0.0, 2.0, 5000)
    est = MCEstimate.from_values(vals)
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert est.stderr == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(vals.size), rel=1e-10)
    assert est.count == vals.size


@pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-300, 1e-310])
def test_stderr_below_normal_range(scale):
    # the variance of values near 1e-200 is near 1e-400, below the double range; its root is not
    x = np.array([1.0, 2.0, 4.0])
    expected = float(np.std(x, ddof=1)) / math.sqrt(3) * scale
    assert MCEstimate.from_values(x * scale).stderr == pytest.approx(expected, rel=1e-12)
    assert MCEstimate.from_values(np.full(3, scale)).stderr == 0.0


def test_merge_equals_pooled_exactly():
    # the statistics of the parts add up exactly to those of the pooled array
    rng = np.random.default_rng(3)
    a, b = rng.random(_CHUNK + 100) * 1e-9, rng.random(500) * 1e3
    parts = [MCEstimate.from_values(a), MCEstimate.from_values(b)]
    pooled = MCEstimate.from_values(np.concatenate([a, b]))
    assert parts[0].sum + parts[1].sum == pooled.sum            # exact rational equality
    assert parts[0].sum_sq + parts[1].sum_sq == pooled.sum_sq
    assert parts[0].count + parts[1].count == pooled.count


def test_merge_any_order_identical():
    # every order of the parts moves the chunk boundaries and gives the same sums
    rng = np.random.default_rng(4)
    parts = [rng.random(k) * 10.0 ** rng.integers(-8, 8) for k in (40_000, 30_000, 200, 5)]
    part_sum = sum(MCEstimate.from_values(p).sum for p in parts)
    part_sum_sq = sum(MCEstimate.from_values(p).sum_sq for p in parts)
    for perm in itertools.permutations(range(4)):
        pooled = MCEstimate.from_values(np.concatenate([parts[k] for k in perm]))
        assert pooled.sum == part_sum and pooled.sum_sq == part_sum_sq


def test_ratio_exact_cases():
    x = np.array([0.5, 0.25, 0.125])
    r, se = ratio_with_stderr(x, x)
    assert r == 1.0 and se == 0.0
    r0, se0 = ratio_with_stderr(np.zeros(3), x)
    assert r0 == 0.0 and se0 == 0.0


def test_ratio_stderr_against_jackknife():
    rng = np.random.default_rng(5)
    y = rng.lognormal(0.0, 1.0, 4000)
    x = y * np.exp(rng.normal(0.0, 0.3, 4000))
    r, se = ratio_with_stderr(x, y)
    n = x.size
    jack = (x.sum() - x) / (y.sum() - y)  # delete-one ratios
    se_jack = math.sqrt((n - 1) / n * float(np.sum((jack - jack.mean()) ** 2)))
    # delta method and jackknife agree to leading order
    assert se == pytest.approx(se_jack, rel=0.1)
    assert r == pytest.approx(x.sum() / y.sum())
