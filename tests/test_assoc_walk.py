import math

import mpmath
import numpy as np
import pytest

from clanmc import (DomainError, EnvironmentPath, EnvironmentSpec, RngStream,
                    build_walk, estimate_u, estimate_v, reflect)
from clanmc.assoc_walk import estimate_u_table, harmonicity_residual, survival_scaling_scan


@pytest.fixture
def stream():
    return RngStream(77001)


def random_walk(seed, n, sigma=1.0):
    x = np.random.default_rng(seed).normal(0.0, sigma, n)
    return EnvironmentPath(x), build_walk(EnvironmentPath(x))


class TestBuildWalk:
    def test_flat_path(self):
        w = build_walk(EnvironmentPath(np.zeros(5)))
        assert np.all(w.s == 0.0)
        assert np.allclose(np.exp(w.log_b[1:]), np.arange(1, 7))
        assert w.log_b[0] == -np.inf
        assert w.l_min[-1] == 0.0 and w.m_max[-1] == 0.0
        assert w.tau == 0

    def test_down_up(self):
        w = build_walk(EnvironmentPath(np.array([-1.0, 1.0])))
        assert np.allclose(w.s, [0.0, -1.0, 0.0])
        assert w.l_min[2] == -1.0
        assert w.tau == 1
        assert math.exp(w.log_b[2]) == pytest.approx(1.0 + math.e)

    def test_log_b_against_high_precision(self):
        _, w = random_walk(10, 50)
        with mpmath.workdps(50):
            for k in (1, 10, 50, 51):
                ref = mpmath.fsum(mpmath.exp(-mpmath.mpf(sv)) for sv in w.s[:k])
                assert abs(w.log_b[k] - float(mpmath.log(ref))) < 1e-10

    def test_b_recursion(self):
        _, w = random_walk(11, 40)
        for n in range(1, 40):
            lhs = w.log_b[n + 1]
            rhs = np.logaddexp(w.log_b[n], -w.s[n])
            assert abs(lhs - rhs) < 1e-10

    def test_b_bounds(self):
        _, w = random_walk(12, 30)
        n = 30
        b_n = math.exp(w.log_b[n])
        assert w.l_min[-1] <= 0.0  # the minimum includes S_0 = 0
        assert b_n >= n * math.exp(-float(np.max(w.s[:n]))) * (1 - 1e-12)
        assert b_n <= n * math.exp(-float(w.l_min[n - 1])) * (1 + 1e-12)

    def test_tau_minimality_strict(self):
        for seed in range(20):
            _, w = random_walk(100 + seed, 64)
            assert np.all(w.s[:w.tau] > w.s[w.tau])

    def test_tau_tie_picks_smallest(self):
        w = build_walk(EnvironmentPath(np.array([-1.0, 1.0, -1.0])))
        # minima at indices 1 and 3; the first one wins
        assert w.tau == 1


class TestReflect:
    def test_involution_bitwise(self):
        _, w = random_walk(16, 25)
        back = reflect(reflect(w))
        assert np.array_equal(back.s, w.s)
        assert np.array_equal(back.log_b, w.log_b)
        assert back.tau == w.tau

    def test_flat_unchanged(self):
        w = build_walk(EnvironmentPath(np.zeros(4)))
        r = reflect(w)
        assert np.array_equal(r.s, w.s)

    def test_reflected_min_is_minus_max(self):
        _, w = random_walk(17, 40)
        r = reflect(w)
        assert r.l_min[-1] == pytest.approx(-float(np.max(w.s)), abs=0.0)


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
        assert estimate_u(spec, -0.5, horizon=50, m_samples=100, stream=stream).mean == 0.0
        est0 = estimate_u(spec, 0.0, horizon=200, m_samples=2000, stream=stream)
        assert est0.mean == 1.0 and est0.stderr == 0.0

    def test_v_trivial_values(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        assert estimate_v(spec, 0.0, horizon=50, m_samples=100, stream=stream).mean == 0.0
        est = estimate_v(spec, -1.0, horizon=2000, m_samples=4000, stream=stream)
        assert est.mean >= 1.0
        with pytest.raises(DomainError):
            estimate_v(spec, 0.5, stream=stream)

    def test_u_against_lattice_dp(self, stream):
        spec = EnvironmentSpec.two_point(1.0)
        horizon = 2000
        exact = truncated_u_by_dp(1.0, [0.0, 1.0, 2.0, 3.0], horizon)
        for x in (1.0, 2.0, 3.0):
            est = estimate_u(spec, x, horizon=horizon, m_samples=100_000, stream=stream)
            assert abs(est.mean - exact[x]) <= 3.0 * est.stderr, (x, est.mean, exact[x])

    def test_u_truncation_stability(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = estimate_u(spec, 2.0, horizon=10_000, m_samples=20_000, stream=stream)
        b = estimate_u(spec, 2.0, horizon=20_000, m_samples=20_000, stream=stream)
        band = 3.0 * math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= band

    def test_u_table_monotone_and_csv(self, stream, tmp_path):
        spec = EnvironmentSpec.gaussian(1.0)
        xs = np.arange(0, 41, dtype=float) * 0.05
        table = estimate_u_table(spec, xs, horizon=500, m_samples=5000, stream=stream)
        assert np.all(np.diff(table.means) >= 0.0)
        out = tmp_path / "u.csv"
        table.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x,estimate,stderr,horizon,samples"
        assert len(lines) == xs.size + 1

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


class TestPersistenceScaling:
    def test_sqrt_n_scaling_bands(self, stream):
        # both persistence probabilities and the end-weighted moment flatten
        # once multiplied by their stated powers of n
        spec = EnvironmentSpec.gaussian(1.0)
        scan = survival_scaling_scan(spec, [2**12, 2**13], 1_000_000, stream)
        lo, hi = scan[2**12], scan[2**13]
        r_pos = (hi["p_stay_nonneg"] * 2**6.5) / (lo["p_stay_nonneg"] * 2**6)
        r_neg = (hi["p_stay_neg"] * 2**6.5) / (lo["p_stay_neg"] * 2**6)
        r_end = (hi["end_weight_stay_nonneg"] * 2**19.5) / (lo["end_weight_stay_nonneg"] * 2**18)
        for r in (r_pos, r_neg, r_end):
            assert 0.85 <= r <= 1.15, (r_pos, r_neg, r_end)
