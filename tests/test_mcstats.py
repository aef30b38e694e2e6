import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clanmc.errors import NumericalFailureError
from clanmc.mcstats import (_CHUNK, _LIMB, MCEstimate, _fold, _sqrt, paired_sums,
                            ratio_with_stderr)


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


def reference_fold(groups) -> int:
    """The bucket-by-bucket fold: every nonzero aligned total shifted into a Python int."""
    width = len(groups[0])
    acc = np.zeros(width + _LIMB * (len(groups) - 1), dtype=np.int64)
    for k, counts in enumerate(groups):
        acc[_LIMB * k:_LIMB * k + width] += counts.astype(np.int64)
    nz = np.flatnonzero(acc)
    return sum(c << j for j, c in zip(nz.tolist(), acc[nz].tolist()))


TOP = 2 ** 53 - 1  # the largest bucket total a float64 bincount keeps exact


def aligned(width, signs):
    """Groups whose totals of +-TOP meet at every power that all of them reach."""
    groups = [np.zeros(width) for _ in signs]
    for k, (group, sign) in enumerate(zip(groups, signs)):
        group[_LIMB * (len(signs) - 1 - k):width - _LIMB * k] = sign * TOP
    return groups


@pytest.mark.parametrize("width", [1, 31, 32, 33, 2203])
@pytest.mark.parametrize("n_groups", [1, 3, 5])
def test_fold_equals_the_bucket_by_bucket_fold(width, n_groups):
    # word edges at every width, mixed signs at every magnitude a bucket
    # total may take, and groups or whole sets of groups that are all zero
    rng = np.random.default_rng(width * 10 + n_groups)
    for trial in range(20):
        groups = [rng.integers(-2 ** int(rng.integers(1, 54)) + 1, 2 ** int(rng.integers(1, 54)),
                               width).astype(float) * (rng.random(width) < rng.random())
                  for _ in range(n_groups)]
        if trial % 4 == 1:
            groups[int(rng.integers(n_groups))][:] = 0.0
        if trial % 4 == 2:
            groups = [np.zeros(width) for _ in groups]
        assert _fold(groups) == reference_fold(groups)


@pytest.mark.parametrize("signs", [(1,) * 5, (-1,) * 5, (1, -1, 1, -1, 1), (-1, -1, 1, 1, -1)])
@pytest.mark.parametrize("width", [4 * _LIMB + 1, 100, 2203])
def test_fold_of_five_aligned_extreme_groups(width, signs):
    # five totals of +-(2**53 - 1) meet at one power: the aligned sum nears
    # the 2**56 that _fold's int64 words are sized for
    groups = aligned(width, signs)
    assert _fold(groups) == reference_fold(groups)
    if set(signs) == {1}:
        assert _fold(groups) == sum(TOP << (j + _LIMB * k) for k, g in enumerate(groups)
                                    for j in np.flatnonzero(g).tolist())


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


def paired(x, y):
    """ratio_with_stderr of paired arrays, through their exact sums."""
    (num, sum_xy), = paired_sums(y, [x])
    return ratio_with_stderr(num, MCEstimate.from_values(y), sum_xy)


def nearest(value, exact_square):
    """Whether the double `value` is the one nearest the root of an exact rational."""
    below = max(float(np.nextafter(value, -math.inf)), 0.0)
    above = float(np.nextafter(value, math.inf))
    low, high = (Fraction(below) + Fraction(value)) / 2, (Fraction(value) + Fraction(above)) / 2
    return low * low <= exact_square <= high * high


def test_root_correctly_rounded():
    # across the double range, subnormal roots and roots that round to zero included
    rng = np.random.default_rng(10)
    for _ in range(2000):
        v = Fraction(int(rng.integers(1, 2 ** 62)), int(rng.integers(1, 2 ** 62)))
        v *= Fraction(2) ** int(rng.integers(-2200, 2000))
        assert nearest(_sqrt(v), v), v
    assert _sqrt(Fraction(0)) == 0.0 and _sqrt(Fraction(4)) == 2.0


SPREADS = {
    "unit": lambda rng, m: rng.standard_normal(m),
    # exponents from 2**-1000 to 2**1000, zeros and subnormals mixed in
    "wide": lambda rng, m: np.where(rng.random(m) < 0.1, 0.0, rng.standard_normal(m)
                                    * 2.0 ** rng.integers(-1000, 1000, m)),
    "subnormal": lambda rng, m: rng.integers(-2 ** 40, 2 ** 40, m) * 5e-324,
}


@pytest.mark.parametrize("spread", sorted(SPREADS))
@pytest.mark.parametrize("m", [1, 3, 2000, _CHUNK + 7])
def test_cross_sum_equals_fraction_sum(spread, m):
    rng = np.random.default_rng(7 + m)
    x, y = SPREADS[spread](rng, m), SPREADS[spread](rng, m)
    if m > 2000:  # the Fraction reference of a chunk-crossing size on a cheap pool of values
        x, y = x[:50][rng.integers(50, size=m)], y[:50][rng.integers(50, size=m)]
    (num, sum_xy), = paired_sums(y, [x])
    assert num == MCEstimate.from_values(x)
    pairs = Counter(zip(x.tolist(), y.tolist()))
    assert sum_xy == sum(c * Fraction(a) * Fraction(b) for (a, b), c in pairs.items())


def test_paired_sums_of_partitions_add_up():
    # any split of the replicates gives the pooled statistics exactly
    rng = np.random.default_rng(8)
    m = 5000
    y = SPREADS["wide"](rng, m)
    xs = [SPREADS["wide"](rng, m), y * 3.0, np.zeros(m)]
    whole = paired_sums(y, xs)
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, m), size=int(rng.integers(1, 6)), replace=False))
        order = rng.permutation(m)
        parts = [paired_sums(y[idx], [x[idx] for x in xs])
                 for idx in np.split(order, cuts)]
        for k, (num, sum_xy) in enumerate(whole):
            assert sum((p[k][0] for p in parts[1:]), parts[0][k][0]) == num
            assert sum(p[k][1] for p in parts) == sum_xy


def test_ratio_exact_cases():
    # x is y (r = 1) and x = 0 (r = 0): every residual, and so the error, is exactly 0
    for spread in SPREADS.values():
        y = np.abs(spread(np.random.default_rng(9), 3000)) + 5e-324
        assert paired(y, y) == (1.0, 0.0)
        assert paired(np.zeros_like(y), y) == (0.0, 0.0)
        est = MCEstimate.from_values(y)
        assert ratio_with_stderr(est, est, est.sum_sq) == (1.0, 0.0)


def test_ratio_stderr_against_jackknife():
    rng = np.random.default_rng(5)
    y = rng.lognormal(0.0, 1.0, 4000)
    x = y * np.exp(rng.normal(0.0, 0.3, 4000))
    r, se = paired(x, y)
    n = x.size
    jack = (x.sum() - x) / (y.sum() - y)  # delete-one ratios
    se_jack = math.sqrt((n - 1) / n * float(np.sum((jack - jack.mean()) ** 2)))
    # delta method and jackknife agree to leading order
    assert se == pytest.approx(se_jack, rel=0.1)
    assert r == pytest.approx(x.sum() / y.sum())


def _exact_ratio_variance(x, y):
    """r = sum x / sum y and sum (x - r y)**2 / (m (m - 1)) / mean(y)**2, in exact arithmetic."""
    # every double is an integer multiple of 2**-1074: a = x 2**1074, b = y 2**1074, and
    # x - r y = (sb a - sa b) / (sb 2**1074), mean y = sb / (m 2**1074)
    a = [int(Fraction(v) * 2 ** 1074) for v in x.tolist()]
    b = [int(Fraction(v) * 2 ** 1074) for v in y.tolist()]
    sa, sb, m = sum(a), sum(b), len(a)
    var = Fraction(m * sum((sb * ai - sa * bi) ** 2 for ai, bi in zip(a, b)), (m - 1) * sb ** 4)
    return Fraction(sa, sb), var


@pytest.mark.parametrize("perturbation, scale", [(1e-8, 1.0), (None, 1.0), (None, 2.0 ** -1000),
                                                 (None, 2.0 ** 1000), (None, 2.0 ** -1060)])
def test_ratio_stderr_correctly_rounded(perturbation, scale):
    # near-one pair: x differs from y by at most 1e-8 relative, so the error is
    # tiny but not zero; generic pair: the jackknife test's law
    rng = np.random.default_rng(6)
    m = 20_000
    y = rng.lognormal(0.0, 2.0, m)
    if perturbation is None:
        x = y * np.exp(rng.normal(0.0, 0.3, m))
    else:
        x = y * (1.0 - rng.uniform(0.0, perturbation, m))
    x = x * scale  # r and its error near the top and the bottom of the double range
    r, se = paired(x, y)
    r_exact, var = _exact_ratio_variance(x, y)
    assert r == float(r_exact)
    assert var > 0 and se > 0.0
    assert nearest(se, var)
