import math

import numpy as np
import pytest
from scipy.integrate import quad

from clanmc import (AssumptionViolationError, DomainError, EnvironmentPath,
                    EnvironmentSpec, MCEstimate, RegimeRule, RngStream,
                    UnreliableRatioError, build_walk, cond_event_prob,
                    duality_check, estimate_event_prob, estimate_lambda,
                    estimate_theta, scaling_study, strata_decomposition)
from clanmc.errors import NumericalFailureError
from clanmc.estimators import EventProbResult, fit_scaling_points

GAUSS = EnvironmentSpec.gaussian(1.0)
FLAT = EnvironmentSpec.two_point(0.0)


@pytest.fixture
def stream():
    return RngStream(660042)


class TestRegimeRule:
    def test_mappings(self):
        assert RegimeRule.fixed_i(2).clan_index(100) == 2
        assert RegimeRule.end_window(3).clan_index(100) == 97
        assert RegimeRule.proportional(0.5).clan_index(101) == 50

    def test_validation(self):
        with pytest.raises(DomainError):
            RegimeRule.proportional(1.0)
        with pytest.raises(DomainError):
            RegimeRule.fixed_i(-1)
        with pytest.raises(DomainError):
            RegimeRule("bogus", 1.0)
        with pytest.raises(DomainError):
            RegimeRule.fixed_i(5).clan_index(5)
        with pytest.raises(DomainError):
            RegimeRule.end_window(4).clan_index(3)


class TestEventProb:
    def test_one_step_symmetry(self, stream):
        # E[1/(1+e^{-X})] = 1/2 for symmetric X; quadrature agrees
        res = estimate_event_prob(GAUSS, RegimeRule.fixed_i(0), 1, 100_000, stream)
        quad_val, _ = quad(
            lambda x: 1.0 / (1.0 + math.exp(-x)) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -10, 10)
        assert quad_val == pytest.approx(0.5, abs=1e-9)
        assert abs(res.estimate.mean - 0.5) <= 3 * res.estimate.stderr
        assert res.tag == "ok"

    def test_disjoint_sum_below_one(self, stream):
        n = 6
        total, var = 0.0, 0.0
        for i in range(n):
            res = estimate_event_prob(GAUSS, RegimeRule.fixed_i(i), n, 20_000, stream)
            total += res.estimate.mean
            var += res.estimate.stderr**2
        assert total <= 1.0 + 3 * math.sqrt(var)

    def test_flat_degenerate_is_deterministic(self, stream):
        res = estimate_event_prob(FLAT, RegimeRule.fixed_i(2), 6, 500, stream)
        w = build_walk(EnvironmentPath(np.zeros(6)))
        assert res.estimate.mean == pytest.approx(cond_event_prob(w, 2, 6).value, rel=1e-12)
        assert res.estimate.stderr == 0.0
        assert res.tag == "assumptions-violated"


class TestTheta:
    def test_exact_endpoints_and_monotone(self, stream):
        results = estimate_theta(GAUSS, 3, 64, [0.0, 0.25, 0.5, 0.75, 1.0], 20_000, stream)
        assert results[0].value == 0.0 and results[0].stderr == 0.0
        assert results[-1].value == 1.0 and results[-1].stderr == 0.0
        assert [r.param for r in results] == [0.0, 0.25, 0.5, 0.75, 1.0]
        thetas = [r.value for r in results]
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))
        assert all(0.0 <= t <= 1.0 for t in thetas)

    def test_stability_across_n(self, stream):
        a = estimate_theta(GAUSS, 3, 256, [0.5], 20_000, stream)[0]
        b = estimate_theta(GAUSS, 3, 512, [0.5], 20_000, stream)[0]
        band = 3.0 * math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= band

    def test_unreliable_denominator_raises(self, stream):
        with pytest.raises(UnreliableRatioError):
            estimate_theta(GAUSS, 3, 2048, [0.5], 40, stream)


class TestLambda:
    def test_exact_infinite_beta_and_monotone(self, stream):
        betas = [1e-4, 1e-2, 1.0, 1e2, math.inf]
        results = estimate_lambda(GAUSS, RegimeRule.proportional(0.5), 64, betas, 20_000, stream)
        lams = [r.value for r in results]
        assert results[-1].value == 0.0 and results[-1].stderr == 0.0
        assert [r.param for r in results] == betas
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        assert all(0.0 <= v <= 1.0 for v in lams)

    def test_properness_at_small_beta(self, stream):
        res = estimate_lambda(GAUSS, RegimeRule.proportional(0.5), 256, [1e-6], 20_000, stream)[0]
        assert res.value >= 0.99

    def test_beta_domain(self, stream):
        with pytest.raises(DomainError):
            estimate_lambda(GAUSS, RegimeRule.fixed_i(0), 8, [0.0], 100, stream)


def synthetic_points(slope, n_values, m, seed):
    rng = np.random.default_rng(seed)
    points = []
    for n in n_values:
        target = 3.0 * float(n)**slope
        vals = target * rng.lognormal(-0.125, 0.5, m)
        points.append(EventProbResult(n=n, i=0, estimate=MCEstimate.from_values(vals), tag="ok"))
    return points


class TestScaling:
    def test_synthetic_slope_recovery(self):
        points = synthetic_points(-1.5, [64, 128, 256, 512, 1024], 40_000, seed=11)
        fit = fit_scaling_points(points, RegimeRule.fixed_i(0))
        assert abs(fit.slope - (-1.5)) <= 2.0 * fit.slope_stderr

    def test_grid_validation(self, stream):
        with pytest.raises(DomainError):
            scaling_study(GAUSS, RegimeRule.end_window(3), [16, 32, 64], 100, stream)

    def test_too_few_reliable_points(self):
        points = synthetic_points(-0.5, [64, 128, 256], 1000, seed=12)
        with pytest.raises(Exception):
            fit_scaling_points(points, RegimeRule.end_window(3))

    def test_repeated_grid_points_count_once(self, stream):
        # four equal n leave the log-log fit without a spread in x
        with pytest.raises(DomainError, match="4 distinct"):
            scaling_study(GAUSS, RegimeRule.end_window(3), [16, 16, 16, 16], 100, stream)
        with pytest.raises(NumericalFailureError, match="only 1 distinct"):
            fit_scaling_points(synthetic_points(-0.5, [64] * 4, 1000, seed=12),
                               RegimeRule.end_window(3))

    def test_proportional_compensator_needs_positive_i(self):
        # floor(0.01 n) = 0 on this grid, where i^(1/2) (n-i)^(3/2) vanishes
        points = synthetic_points(-1.5, [8, 16, 32, 64], 1000, seed=13)
        with pytest.raises(DomainError, match="i=0"):
            fit_scaling_points(points, RegimeRule.proportional(0.01))

    def test_proportional_requires_continuous_env(self, stream):
        lattice = EnvironmentSpec.two_point(0.7)
        with pytest.raises(AssumptionViolationError):
            scaling_study(lattice, RegimeRule.proportional(0.5), [16, 32, 64, 128], 100, stream)
        fit = scaling_study(lattice, RegimeRule.proportional(0.5), [16, 32, 64, 128], 2000,
                            stream, allow_assumption_violations=True)
        assert fit.tag == "assumptions-violated"

    def test_end_window_smoke(self, stream):
        fit = scaling_study(GAUSS, RegimeRule.end_window(3), [32, 64, 128, 256], 20_000, stream)
        assert -0.8 <= fit.slope <= -0.2
        assert len(fit.ratios) == len(fit.points) - 1
        assert fit.plateau > 0


class TestDuality:
    def test_flat_degenerate_exact(self, stream):
        res = duality_check(FLAT, 2, 6, 1.0, 200, stream)
        assert res.h_form.mean == res.v_form.mean
        assert res.z_score == 0.0

    def test_agreement_small_case(self, stream):
        res = duality_check(GAUSS, 12, 16, 1.0, 50_000, stream)
        assert abs(res.z_score) <= 4.0

    def test_infinite_beta_matches_event_prob(self, stream):
        res = duality_check(GAUSS, 12, 16, math.inf, 50_000, stream)
        prob = estimate_event_prob(GAUSS, RegimeRule.fixed_i(12), 16, 50_000, stream)
        z = abs(res.v_form.mean - prob.estimate.mean) / math.hypot(
            res.v_form.stderr, prob.estimate.stderr)
        assert z <= 4.0


class TestStrata:
    def test_masses_partition_exactly(self, stream):
        rep = strata_decomposition(GAUSS, 48, 64, 1.0, 3, 10_000, stream)
        total = rep.early.sum + rep.middle.sum + rep.before_j.sum + rep.after_j.sum
        assert total == rep.total.sum  # exact rational identity
        masses = (rep.early.mean, rep.middle.mean, rep.before_j.mean, rep.after_j.mean)
        assert rep.total.mean == pytest.approx(sum(masses), abs=0.0)

    def test_window_validation(self, stream):
        with pytest.raises(DomainError):
            strata_decomposition(GAUSS, 48, 64, 1.0, 8, 100, stream)  # N >= j/2

    def test_middle_mass_shrinks_with_window(self, stream):
        wide = strata_decomposition(GAUSS, 192, 256, 1.0, 5, 20_000, stream)
        narrow = strata_decomposition(GAUSS, 192, 256, 1.0, 20, 20_000, stream)
        assert narrow.middle.mean < wide.middle.mean


def simulate_conditional_transform(spec, i, n, beta, m_reps, stream):
    """Rejection-route oracle for the conditional Laplace transform.

    Draws a fresh environment per replicate, runs the individual-based
    process, and averages e^{-beta Y} over replicates where only clan i
    survives, with Y the end-rescaled clan size.  Purely definitional, no
    closed forms anywhere.
    """
    from clanmc.env_model import draw_increments, offspring_params

    gen = stream.substream("test.rejection_oracle", 0)
    x = draw_increments(spec, gen, (m_reps, n))
    s_end = x.sum(axis=1)
    s_i = x[:, :i].sum(axis=1)
    clans = np.zeros((m_reps, n), dtype=np.int64)
    clans[:, 0] = 1
    for t in range(1, n + 1):
        m_col = np.exp(x[:, t - 1])
        q_col = 1.0 / (1.0 + m_col)
        active = clans[:, :t]
        q_flat = np.broadcast_to(q_col[:, None], active.shape).ravel()
        flat = active.ravel()
        pos = flat > 0
        drawn = np.zeros_like(flat)
        if pos.any():
            drawn[pos] = gen.negative_binomial(flat[pos], q_flat[pos])
        clans[:, :t] = drawn.reshape(active.shape)
        if t < n:
            clans[:, t] = 1
    totals = clans.sum(axis=1)
    event = (totals > 0) & (clans[:, i] == totals)
    y = np.exp(s_i - s_end) * clans[:, i]
    vals = np.exp(-beta * y[event])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)), int(event.sum())


class TestTransformAgainstRejectionOracle:
    def test_lambda_matches_direct_simulation(self, stream):
        # full-chain check: environment averaging, conditioning and the
        # end-rescaling all at once, at an n where rejection is feasible
        i, n, beta = 8, 16, 0.5
        sim_mean, sim_se, hits = simulate_conditional_transform(GAUSS, i, n, beta, 400_000, stream)
        assert hits > 500
        exact = estimate_lambda(GAUSS, RegimeRule.fixed_i(i), n, [beta], 100_000, stream)[0]
        z = abs(sim_mean - exact.value) / math.hypot(sim_se, exact.stderr)
        assert z <= 4.0, (sim_mean, exact.value, z)

