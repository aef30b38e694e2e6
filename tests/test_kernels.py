"""Row-level checks of the batched clan kernels that every estimator runs.

The scalar closed forms of exact_fl are one-row calls of these kernels, so
the brute-force folds here test the production code itself, row by row.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from clanmc import EnvironmentPath, compose_pgf_bruteforce, estimators, survival_bruteforce
from clanmc.estimators import (_ExpRows, _log_event_prob_cols, _log_h_cols, _log_h_cols_from,
                               _log_survival_cols, _log_v_cols_from, _log_yaglom_cols_from)


def walk_matrix(x: np.ndarray) -> np.ndarray:
    s = np.zeros((x.shape[0], x.shape[1] + 1))
    np.cumsum(x, axis=1, out=s[:, 1:])
    return s


def wide_walk() -> np.ndarray:
    """sigma = 30 walks whose late slices take the logsumexp fallback."""
    return walk_matrix(np.random.default_rng(30).normal(0.0, 30.0, (2000, 512)))


FALLBACK_SLICES = ((509, 512), (509, 513), (510, 513), (0, 513))


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
        s = wide_walk()
        neg = _ExpRows(-s)
        subnormal = 0
        for lo, hi in FALLBACK_SLICES:
            shifted = neg.e[:, lo:hi].sum(axis=1)
            subnormal += int(np.count_nonzero((shifted > 0) & (shifted < np.finfo(float).tiny)))
            ref = logsumexp(-s[:, lo:hi], axis=1)
            assert np.max(np.abs(neg.lse(lo, hi) - ref)) <= 1e-12
            # the clan formulas read the same values by key, bit for bit
            assert neg[lo, hi].tobytes() == neg.lse(lo, hi).tobytes()
            for k in (lo, np.int64(hi - 1)):
                assert neg[k].tobytes() == neg.a[:, k].tobytes()
        assert subnormal > 0  # the case under test does occur


class TestLogsumexpFallback:
    @pytest.mark.parametrize("sigma", [1.0, 30.0, 300.0])
    def test_same_bits_as_scipy(self, sigma):
        s = walk_matrix(np.random.default_rng(int(sigma)).normal(0.0, sigma, (500, 64)))
        for a in (-s, s, -s[:, 40:], s[:, :3]):
            assert np.array_equal(estimators.logsumexp(a), logsumexp(a, axis=1))

    @pytest.mark.parametrize("a", [walk_matrix(np.zeros((3, 9))), np.array([[5.0, 5.0, 5.0]]),
                                   np.array([[1.0, 4.0, -2.0, 4.0]])])
    def test_tied_maxima_same_bits_as_scipy(self, a):
        assert np.array_equal(estimators.logsumexp(a), logsumexp(a, axis=1))

    def test_fallback_rows_against_mpmath(self):
        s = wide_walk()
        neg = _ExpRows(-s)
        checked = 0
        for lo, hi in FALLBACK_SLICES:
            slow = np.flatnonzero(neg.e[:, lo:hi].sum(axis=1) < np.finfo(float).tiny)[:10]
            got = estimators.logsumexp(-s[slow, lo:hi])
            for r, value in zip(slow, got):
                with mpmath.workdps(60):
                    ref = mpmath.log(mpmath.fsum(mpmath.exp(-mpmath.mpf(v)) for v in s[r, lo:hi]))
                assert value == pytest.approx(float(ref), abs=1e-12)
                checked += 1
        assert checked > 0  # the case under test does occur

    def test_slice_sums_call_the_module_fallback(self, monkeypatch):
        # the tracer's estimators.lse_slow_rows counts rows through this name
        seen = []
        original = estimators.logsumexp

        def counting(a, *args, **kwargs):
            seen.append(a.shape[0])
            return original(a, *args, **kwargs)
        monkeypatch.setattr(estimators, "logsumexp", counting)
        neg = _ExpRows(-wide_walk())
        for lo, hi in FALLBACK_SLICES:
            neg.lse(lo, hi)
        assert sum(seen) > 0


def bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("i", [0, 256, 509])
def test_h_kernel_endpoints_on_fallback_walks(i):
    # s = 0 is the event-probability form and s = 1 the exact zero; between
    # them the generic form at log1p(-s).  i = 509 reads FALLBACK_SLICES.
    neg, n = _ExpRows(-wide_walk()), 512
    assert np.array_equal(bits(_log_h_cols(neg, i, n, 0.0)), bits(_log_event_prob_cols(neg, i, n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_one = _log_h_cols(neg, i, n, 1.0)
    assert np.all(at_one == -np.inf)
    for s in (1e-300, 0.3, 0.5, 1.0 - 2.0**-53):
        assert np.array_equal(bits(_log_h_cols(neg, i, n, s)),
                              bits(_log_h_cols_from(neg, i, n, math.log1p(-s))))


class TestPrefixColumns:
    @pytest.mark.parametrize("sigma", [1.0, 30.0])
    def test_full_row_shift_serves_every_prefix(self, sigma):
        # a grid sweep shifts by the full-row maximum and reads every grid n
        # from a prefix of the row; each prefix must give the value of its own
        # _ExpRows, also where the prefix lies so far below the row maximum
        # that its shifted sums are subnormal and take the logsumexp fallback
        n_max = 64
        s = walk_matrix(np.random.default_rng(64).normal(0.0, sigma, (2000, n_max)))
        full = _ExpRows(-s)
        far_below = fallback = 0
        for n in range(1, n_max + 1):
            own = _ExpRows(-s[:, :n + 1])
            for i in range(n):
                dev = _log_event_prob_cols(full, i, n) - _log_event_prob_cols(own, i, n)
                assert np.max(np.abs(dev)) <= 1e-12, (n, i)
            far_below += int(np.count_nonzero(own.shift < full.shift - 708.0))
            fallback += int(np.count_nonzero(full.e[:, :n + 1].sum(axis=1) < np.finfo(float).tiny))
        if sigma == 30.0:  # the case under test does occur
            assert far_below > 0 and fallback > 0


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
    neg, pos = _ExpRows(-s), _ExpRows(s)
    s_values, betas = sorted(s_values), sorted(betas)

    event = _log_event_prob_cols(neg, i, n)
    h = np.array([_log_h_cols_from(neg, i, n, math.log1p(-sv)) for sv in s_values])
    yag = np.array([_log_yaglom_cols_from(neg, i, n, b) for b in betas])
    v = np.array([_log_v_cols_from(pos, n - i, n, b) for b in betas])
    v_inf = _log_v_cols_from(pos, n - i, n, math.inf)
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
            survival_bruteforce(x[r], i, n, 0.0) * others, rel=1e-9)
        for k, sv in enumerate(s_values):
            surv = survival_bruteforce(x[r], i, n, sv)
            assert math.exp(_log_survival_cols(neg, i, n, math.log1p(-sv))[r]) == pytest.approx(
                surv, rel=1e-10)
            assert math.exp(h[k, r]) == pytest.approx(surv * others, rel=1e-9)
