import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from clanmc import (DomainError, EnvironmentPath, NumericalFailureError, RngStream,
                    build_walk, h_functional, simulate_ensemble)
from clanmc.clan_sim import _reproduce, final_clans_ensemble


@pytest.fixture
def stream():
    return RngStream(880011)


class TestStep:
    def test_extinct_clans_leave_only_immigrant(self, stream):
        # m = e^-40: the founder dies out at once, so only the next immigrant's clan is left
        path = EnvironmentPath(np.array([-40.0, 0.0]))
        z_in, y_minus, event = simulate_ensemble(path, 1, 2_000, stream)
        assert np.array_equal(z_in, y_minus) and np.array_equal(event, y_minus > 0)
        gen = stream.substream("t.extinct", 0)
        assert np.array_equal(_reproduce(np.zeros(3, dtype=np.int64), 1.7, gen), np.zeros(3))
        assert gen.random() == stream.substream("t.extinct", 0).random()  # drew nothing

    def test_reproduction_mean(self, stream):
        y, m, reps = 100, 1.5, 100_000
        draws = _reproduce(np.full(reps, y, dtype=np.int64), m,
                           stream.substream("t.mean", 0)).astype(float)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - y * m) <= 3 * se

    def test_single_geometric_extinction_prob(self, stream):
        zero = _reproduce(np.ones(100_000, dtype=np.int64), 1.0,
                          stream.substream("t.geom", 0)) == 0
        se = math.sqrt(0.25 / zero.size)
        assert abs(zero.mean() - 0.5) <= 3 * se

    def test_population_conservation(self, stream):
        # each clan starts as one immigrant after reproduction, so the clan
        # founded at generation g has mean size e^{S_n - S_g} at time n
        x = np.array([1.0, -1.0, 0.5])
        s = np.concatenate([[0.0], np.cumsum(x)])
        clans = final_clans_ensemble(EnvironmentPath(x), 100_000, stream).astype(float)
        assert clans.shape == (100_000, 3)
        for g in range(3):
            se = clans[:, g].std(ddof=1) / math.sqrt(clans.shape[0])
            assert abs(clans[:, g].mean() - math.exp(s[3] - s[g])) <= 3 * se

    def test_overflow_aborts(self, stream):
        path = EnvironmentPath(np.full(8, 5.0))  # mean offspring e^5 per generation
        with pytest.raises(NumericalFailureError):
            final_clans_ensemble(path, 200, stream)


class TestSimulate:
    def test_deterministic_given_stream(self, stream):
        # blocks are keyed by index, so the worker count changes nothing
        path = EnvironmentPath(np.array([0.3, -0.2, 0.5]))
        a = final_clans_ensemble(path, 70_000, stream, shards=1)
        b = final_clans_ensemble(path, 70_000, stream, shards=2)
        assert np.array_equal(a, b)

    def test_index_domain(self, stream):
        path = EnvironmentPath(np.zeros(3))
        with pytest.raises(DomainError):
            simulate_ensemble(path, 3, 10, stream)

    def test_event_requires_sole_survivor(self, stream):
        z_in, y_minus, event = simulate_ensemble(EnvironmentPath(np.zeros(4)), 2, 20_000, stream)
        assert event.any()
        assert np.all(y_minus[event] > 0) and np.all(z_in[event] == y_minus[event])

    def test_one_step_event_probability(self, stream):
        m = math.exp(0.4)
        path = EnvironmentPath(np.array([0.4]))
        _, _, event = simulate_ensemble(path, 0, 200_000, stream)
        p_exact = m / (1.0 + m)
        se = math.sqrt(p_exact * (1 - p_exact) / event.size)
        assert abs(event.mean() - p_exact) <= 3 * se

    def test_ensemble_matches_h_functional(self, stream):
        path = EnvironmentPath(np.zeros(8))
        w = build_walk(path)
        z_in, _, event = simulate_ensemble(path, 3, 50_000, stream)
        for s in (0.0, 0.5):
            vals = np.where(event, 1.0 - s**z_in, 0.0)
            target = h_functional(w, 3, 8, s).value
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) <= 3 * se

    def test_events_disjoint_within_realization(self, stream):
        rng = np.random.default_rng(7)
        path = EnvironmentPath(rng.normal(0, 1, 6))
        clans = final_clans_ensemble(path, 20_000, stream)
        totals = clans.sum(axis=1)
        sole = (clans == totals[:, None]) & (totals[:, None] > 0)
        assert np.all(sole.sum(axis=1) <= 1)

    def test_ensemble_deterministic(self, stream):
        path = EnvironmentPath(np.array([0.1, -0.4]))
        a = final_clans_ensemble(path, 5_000, stream)
        b = final_clans_ensemble(path, 5_000, stream)
        assert np.array_equal(a, b)


class TestNegativeBinomialAggregation:
    def test_matches_per_individual_sum_in_distribution(self, stream):
        y, m, reps = 10, 2.0, 100_000
        q = 1.0 / (1.0 + m)
        gen = stream.substream("t.ks", 0)
        aggregated = gen.negative_binomial(y, q, size=reps)
        # per-individual route: sum of y independent geometric(q) failure counts
        individual = (gen.geometric(q, size=(reps, y)) - 1).sum(axis=1)
        assert ks_2samp(aggregated, individual).pvalue > 0.001
