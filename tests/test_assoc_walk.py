import math

import numpy as np
import pytest

from clanmc import (DomainError, EnvironmentPath, EnvironmentSpec, RngStream,
                    build_walk, estimate_table, harmonicity_residual)
from clanmc.estimators import _ExpRows, _first_max_index


@pytest.fixture
def stream():
    return RngStream(77001)


def random_walk(seed, n, sigma=1.0):
    x = np.random.default_rng(seed).normal(0.0, sigma, n)
    return EnvironmentPath(x), build_walk(EnvironmentPath(x))


def prefix_log_sums(w):
    """log b_k = log sum_{r<k} e^{-S_r} for k = 1..n+1, as the production kernels read them."""
    neg = _ExpRows(-w[None, :])
    return np.array([neg.lse(0, k)[0] for k in range(1, w.size + 1)])


def first_min_index(w):
    """The smallest index attaining min(S_0..S_n): the first maximum of the negated walk."""
    return int(_first_max_index(-w[None, :], w.size - 1)[0])


class TestBuildWalk:
    def test_flat_path(self):
        w = build_walk(EnvironmentPath(np.zeros(5)))
        assert w.shape == (6,) and np.all(w == 0.0)
        assert np.allclose(np.exp(prefix_log_sums(w)), np.arange(1, 7))
        assert first_min_index(w) == 0

    def test_down_up(self):
        w = build_walk(EnvironmentPath(np.array([-1.0, 1.0])))
        assert np.allclose(w, [0.0, -1.0, 0.0])
        assert first_min_index(w) == 1
        assert math.exp(prefix_log_sums(w)[1]) == pytest.approx(1.0 + math.e)

    def test_b_recursion(self):
        _, w = random_walk(11, 40)
        log_b = prefix_log_sums(w)      # log_b[k - 1] = log b_k
        for n in range(1, 40):
            assert abs(log_b[n] - np.logaddexp(log_b[n - 1], -w[n])) < 1e-10

    def test_b_bounds(self):
        _, w = random_walk(12, 30)
        n = 30
        b_n = math.exp(prefix_log_sums(w)[n - 1])
        assert b_n >= n * math.exp(-float(np.max(w[:n]))) * (1 - 1e-12)
        assert b_n <= n * math.exp(-float(np.min(w[:n]))) * (1 + 1e-12)

    def test_tau_minimality_strict(self):
        for seed in range(20):
            _, w = random_walk(100 + seed, 64)
            tau = first_min_index(w)
            assert np.all(w[:tau] > w[tau]) and np.all(w[tau:] >= w[tau])

    def test_tau_tie_picks_smallest(self):
        w = build_walk(EnvironmentPath(np.array([-1.0, 1.0, -1.0])))
        # minima at indices 1 and 3; the first one wins
        assert first_min_index(w) == 1


class TestReflect:
    def test_involution_bitwise(self):
        _, w = random_walk(16, 25)
        assert np.array_equal(-(-w), w)

    def test_flat_unchanged(self):
        w = build_walk(EnvironmentPath(np.zeros(4)))
        assert np.array_equal(-w, w)

    def test_reflected_min_is_minus_max(self):
        _, w = random_walk(17, 40)
        r = -w
        assert np.min(r) == -float(np.max(w))
        assert first_min_index(r) == int(np.argmax(w))


def truncated_u_by_dp(c, x_values, horizon):
    """Exact truncated staying-negative series for the lattice two-point walk.

    Dynamic programming over levels S = -k c while the walk stays strictly
    negative; the series term at time n is the mass with S_n >= -x.
    Independent of the estimator path (test-only oracle).
    """
    levels = horizon + 2
    p = np.zeros(levels)
    p[1] = 0.5  # after the first step; the upward half is killed
    totals = {x: (1.0 if x >= 0 else 0.0) for x in x_values}
    for x in x_values:
        k_max = int(math.floor(x / c + 1e-9))
        totals[x] += p[1:k_max + 1].sum()
    for _ in range(2, horizon + 1):
        nxt = np.zeros(levels)
        nxt[1:-1] = 0.5 * p[2:]
        nxt[2:] += 0.5 * p[1:-1]
        p = nxt
        for x in x_values:
            k_max = int(math.floor(x / c + 1e-9))
            totals[x] += p[1:k_max + 1].sum()
    return totals


class TestHarmonicSeries:
    def test_u_trivial_values(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        # S_n >= 0 contradicts a negative running maximum, so u(0) = 1 exactly
        table = estimate_table(spec, "u", [0.0, 1.0], horizon=200, m_samples=2000, stream=stream)
        assert table.means[0] == 1.0 and table.stderrs[0] == 0.0
        with pytest.raises(DomainError):
            estimate_table(spec, "u", [-0.5], horizon=50, m_samples=100, stream=stream)

    def test_v_trivial_values(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        table = estimate_table(spec, "v", [-1.0], horizon=2000, m_samples=4000, stream=stream)
        assert table.means[0] >= 1.0
        for bad in ([0.0], [0.5]):
            with pytest.raises(DomainError):
                estimate_table(spec, "v", bad, horizon=50, m_samples=100, stream=stream)

    def test_u_against_lattice_dp(self, stream):
        spec = EnvironmentSpec.two_point(1.0)
        horizon = 2000
        xs = [1.0, 2.0, 3.0]
        exact = truncated_u_by_dp(1.0, xs, horizon)
        table = estimate_table(spec, "u", xs, horizon=horizon, m_samples=100_000, stream=stream)
        for x, mean, se in zip(xs, table.means, table.stderrs):
            assert abs(mean - exact[x]) <= 3.0 * se, (x, mean, exact[x])

    def test_u_truncation_stability(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = estimate_table(spec, "u", [2.0], horizon=10_000, m_samples=20_000, stream=stream)
        b = estimate_table(spec, "u", [2.0], horizon=20_000, m_samples=20_000, stream=stream)
        band = 3.0 * math.hypot(a.stderrs[0], b.stderrs[0])
        assert abs(a.means[0] - b.means[0]) <= band

    def test_u_table_monotone(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        xs = np.arange(0, 41, dtype=float) * 0.05
        table = estimate_table(spec, "u", xs, horizon=500, m_samples=5000, stream=stream)
        assert np.all(np.diff(table.means) >= 0.0)

    def test_u_harmonicity_on_lattice_walk(self, stream):
        # x + X lands exactly on table nodes, so the residual is pure noise
        spec = EnvironmentSpec.two_point(1.0)
        pts = harmonicity_residual(spec, [0.0, 1.0, 2.0], horizon=2000,
                                   m_samples=30_000, stream=stream)
        for p in pts:
            assert p.passed, (p.x, p.residual, p.bound)

    def test_v_harmonicity_strictly_negative_grid(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        pts = harmonicity_residual(spec, [-1.0, -0.5], horizon=2000,
                                   m_samples=30_000, stream=stream, side="v")
        for p in pts:
            assert p.passed, (p.x, p.residual, p.bound)
        with pytest.raises(DomainError):
            harmonicity_residual(spec, [0.0], horizon=100, m_samples=100,
                                 stream=stream, side="v")

