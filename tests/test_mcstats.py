import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from clanmc.mcstats import MCEstimate, exact_float_sum, ratio_with_stderr


def test_exact_float_sum_is_exact():
    rng = np.random.default_rng(1)
    vals = np.concatenate([rng.random(50) * 1e-12, rng.random(50) * 1e8]).tolist()
    assert exact_float_sum(vals) == sum(Fraction(v) for v in vals)


def test_mean_and_stderr_match_numpy():
    rng = np.random.default_rng(2)
    vals = rng.lognormal(0.0, 2.0, 5000)
    est = MCEstimate.from_values(vals)
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert est.stderr == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(vals.size), rel=1e-10)
    assert est.count == vals.size


def test_merge_equals_pooled_exactly():
    rng = np.random.default_rng(3)
    a, b = rng.random(1000) * 1e-9, rng.random(500) * 1e3
    merged = MCEstimate.from_values(a).merge(MCEstimate.from_values(b))
    pooled = MCEstimate.from_values(np.concatenate([a, b]))
    assert merged.sum == pooled.sum            # exact rational equality
    assert merged.sum_sq == pooled.sum_sq
    assert merged.count == pooled.count
    assert merged.mean == pooled.mean and merged.stderr == pooled.stderr


def test_merge_any_order_identical():
    rng = np.random.default_rng(4)
    parts = [MCEstimate.from_values(rng.random(200) * 10.0**rng.integers(-8, 8)) for _ in range(4)]
    reference = None
    for perm in itertools.permutations(range(4)):
        acc = parts[perm[0]]
        for k in perm[1:]:
            acc = acc.merge(parts[k])
        key = (acc.mean, acc.stderr, acc.count)
        if reference is None:
            reference = key
        assert key == reference


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
