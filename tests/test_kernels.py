"""Row-level checks of the batched clan kernels that every estimator runs.

The scalar closed forms of exact_fl are one-row calls of these kernels, so
the brute-force folds here test the production code itself, row by row.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from clanmc import EnvironmentPath, compose_pgf_bruteforce, survival_bruteforce
from clanmc.estimators import (_ExpRows, _log_event_prob_cols, _log_h_cols_from,
                               _log_survival_cols, _log_v_cols, _log_yaglom_cols_from)


def walk_matrix(x: np.ndarray) -> np.ndarray:
    s = np.zeros((x.shape[0], x.shape[1] + 1))
    np.cumsum(x, axis=1, out=s[:, 1:])
    return s


class TestSliceSums:
    def test_all_windows_match_direct_sum(self):
        s = walk_matrix(np.random.default_rng(14).normal(0.0, 1.0, (3, 30)))
        neg = _ExpRows(-s)
        for lo in range(30):
            for hi in range(lo + 1, 32):
                direct = [math.fsum(math.exp(-v) for v in row[lo:hi]) for row in s]
                assert np.exp(neg.lse(lo, hi)) == pytest.approx(direct, rel=1e-12)

    def test_drifting_walk_windows(self):
        # heavily rising walk: late windows are tiny fractions of the row maximum
        x = np.full((1, 400), 0.5)
        x[0, :5] = -3.0
        s = walk_matrix(x)
        neg = _ExpRows(-s)
        for lo, hi in ((396, 400), (398, 399), (390, 401), (0, 401)):
            with mpmath.workdps(60):
                ref = mpmath.log(mpmath.fsum(mpmath.exp(-mpmath.mpf(v)) for v in s[0, lo:hi]))
            assert neg.lse(lo, hi)[0] == pytest.approx(float(ref), abs=1e-12)

    def test_wide_walk_matches_per_slice_logsumexp(self):
        # sigma = 30 puts some slices 708-745 log units below the row maximum,
        # where the shifted sum is subnormal and keeps only a few digits
        n, i = 512, 509
        s = walk_matrix(np.random.default_rng(30).normal(0.0, 30.0, (2000, n)))
        neg = _ExpRows(-s)
        subnormal = 0
        for lo, hi in ((i, n), (i, n + 1), (i + 1, n + 1), (0, n + 1)):
            shifted = neg.e[:, lo:hi].sum(axis=1)
            subnormal += int(np.count_nonzero((shifted > 0) & (shifted < np.finfo(float).tiny)))
            ref = logsumexp(-s[:, lo:hi], axis=1)
            assert np.max(np.abs(neg.lse(lo, hi) - ref)) <= 1e-12
        assert subnormal > 0  # the case under test does occur

    def test_slice_summed_once(self):
        neg = _ExpRows(-walk_matrix(np.ones((2, 5))))
        assert neg.lse(1, 4) is neg.lse(1, 4)


@st.composite
def clan_cases(draw):
    n = draw(st.integers(1, 20))
    i = draw(st.integers(0, n - 1))
    rows = draw(st.integers(1, 4))
    x = draw(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
                      min_size=rows, max_size=rows))
    return n, i, np.array(x, dtype=float)


S_VALUES = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4)
BETAS = st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=4)


def in_unit_interval(logs: np.ndarray) -> bool:
    vals = np.exp(logs)
    return bool(np.all(np.isfinite(logs)) and np.all((vals >= 0.0) & (vals <= 1.0)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=clan_cases(), s_values=S_VALUES, betas=BETAS)
# walks on which the uncapped beta = 1 values exceeded their beta = inf limit by 8.9e-16 in log
@example(case=(6, 0, np.array([[0.0, -1.0, 0.0, -1.0, 0.0, -2.0]])), s_values=[0.0], betas=[1.0])
@example(case=(3, 0, np.array([[-1.0, 0.0, -3.0]])), s_values=[0.0], betas=[1.0])
def test_kernel_rows_against_folds(case, s_values, betas):
    n, i, x = case
    s = walk_matrix(x)
    neg = _ExpRows(-s)
    s_values, betas = sorted(s_values), sorted(betas)

    event = _log_event_prob_cols(neg, i, n)
    h = np.array([_log_h_cols_from(neg, i, n, math.log1p(-sv)) for sv in s_values])
    yag = np.array([_log_yaglom_cols_from(neg, s, i, n, b) for b in betas])
    v = np.array([_log_v_cols(s, n - i, n, b) for b in betas])
    v_inf = _log_v_cols(s, n - i, n, math.inf)
    for logs in (event, h, yag, v, v_inf):
        assert in_unit_interval(logs)
    # row by row: nonincreasing in s, nondecreasing in beta
    assert np.all(np.diff(h, axis=0) <= 0.0)
    assert np.all(np.diff(yag, axis=0) >= 0.0)
    assert np.all(np.diff(v, axis=0) >= 0.0)
    # beta = inf has its own closed form (for h, the event probability) and bounds every beta
    assert np.all(yag[-1] <= event)
    assert np.all(v[-1] <= v_inf)

    for r in range(x.shape[0]):
        path = EnvironmentPath(x[r])
        others = math.prod(compose_pgf_bruteforce(path, j, n, 0.0) for j in range(n) if j != i)
        assert math.exp(event[r]) == pytest.approx(
            survival_bruteforce(path, i, n, 0.0) * others, rel=1e-9)
        for k, sv in enumerate(s_values):
            surv = survival_bruteforce(path, i, n, sv)
            assert math.exp(_log_survival_cols(neg, i, n, math.log1p(-sv))[r]) == pytest.approx(
                surv, rel=1e-10)
            assert math.exp(h[k, r]) == pytest.approx(surv * others, rel=1e-9)
