import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from clanmc import (DomainError, EnvironmentPath, NumericalFailureError, RngStream,
                    build_walk, h_functional, simulate_ensemble)
from clanmc import clan_sim
from clanmc.clan_sim import _reproduce, final_clans_ensemble
from clanmc.env_model import offspring_params


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
        clans = np.zeros(3, dtype=np.int64)
        _reproduce(clans, 1.7, gen)
        assert np.array_equal(clans, np.zeros(3))
        assert gen.random() == stream.substream("t.extinct", 0).random()  # drew nothing

    def test_reproduction_mean(self, stream):
        y, m, reps = 100, 1.5, 100_000
        draws = np.full(reps, y, dtype=np.int64)
        _reproduce(draws, m, stream.substream("t.mean", 0))
        draws = draws.astype(float)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - y * m) <= 3 * se

    def test_single_geometric_extinction_prob(self, stream):
        clans = np.ones(100_000, dtype=np.int64)
        _reproduce(clans, 1.0, stream.substream("t.geom", 0))
        zero = clans == 0
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
        with pytest.raises(NumericalFailureError, match="64-bit sampling range"):
            final_clans_ensemble(path, 200, stream)

    def test_count_overflow_aborts(self, stream, monkeypatch):
        # a clan count above the limit is refused, not stored
        monkeypatch.setattr(clan_sim, "_COUNT_LIMIT", np.int64(50))
        path = EnvironmentPath(np.full(4, 2.0))
        with pytest.raises(NumericalFailureError, match="clan count overflow"):
            final_clans_ensemble(path, 200, stream)


def reference_reproduce(clans, m, rng):
    """One generation for the whole clan matrix in one draw, into a new matrix."""
    _, q = offspring_params(m)
    out = np.zeros_like(clans)
    alive = clans > 0
    if alive.any():
        y = clans[alive]
        if float(y.max()) * m > clan_sim._MEAN_LIMIT:
            raise NumericalFailureError("clan size beyond reliable 64-bit sampling range")
        out[alive] = rng.negative_binomial(y, q)
    if out.max(initial=0) > clan_sim._COUNT_LIMIT:
        raise NumericalFailureError("clan count overflow")
    return out


def reference_ensemble(path, m_reps, stream):
    """final_clans_ensemble with whole-matrix generations and one matrix per block."""
    n = path.n
    blocks = []
    block = clan_sim._SIM_BLOCK
    for b, lo in enumerate(range(0, m_reps, block)):
        rows = min(block, m_reps - lo)
        rng = stream.substream("clan_sim.ensemble", b)
        clans = np.zeros((rows, n), dtype=np.int64)
        clans[:, 0] = 1
        for t in range(1, n + 1):
            clans[:, :t] = reference_reproduce(clans[:, :t], float(np.exp(path.x[t - 1])), rng)
            if t < n:
                clans[:, t] = 1
        blocks.append(clans)
    return np.concatenate(blocks, axis=0)


class TestBatchedGenerations:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_same_matrix_as_whole_matrix_reference(self, stream, shards):
        # three substream blocks, the last one short; from t = 5 on an
        # 8192-row block spans several batches of _REPRODUCE_CELLS cells
        path = EnvironmentPath(np.array([0.4, -0.3, 0.2, 0.1, -0.5, 0.3,
                                         0.2, -0.1, 0.3, -0.4, 0.1, 0.2]))
        assert 2 * clan_sim._SIM_BLOCK < 20_000 < 3 * clan_sim._SIM_BLOCK
        assert clan_sim._SIM_BLOCK * path.n >= 3 * clan_sim._REPRODUCE_CELLS
        got = final_clans_ensemble(path, 20_000, stream, shards=shards)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_ensemble(path, 20_000, stream))

    def test_one_generation_in_many_batches(self, stream, monkeypatch):
        monkeypatch.setattr(clan_sim, "_REPRODUCE_CELLS", 7)
        clans = stream.substream("t.batch", 0).integers(0, 4, (1000, 5))
        want = reference_reproduce(clans, 1.3, stream.substream("t.batch", 1))
        _reproduce(clans, 1.3, stream.substream("t.batch", 1))
        assert np.array_equal(clans, want)

    def test_non_contiguous_matrix_refused(self, stream):
        # reshape(-1) would copy a strided view, and the update would be lost
        clans = np.ones((4, 6), dtype=np.int64)
        gen = stream.substream("t.strided", 0)
        with pytest.raises(ValueError, match="C-contiguous"):
            _reproduce(clans[:, :3], 1.3, gen)
        assert np.array_equal(clans, np.ones((4, 6)))
        assert gen.random() == stream.substream("t.strided", 0).random()  # drew nothing

    def test_working_set_bounded(self, stream):
        # n = 8 and 50 000 replicates, as the oracle suite runs it: the output
        # matrix is 3.2 MB; whole-matrix generations peaked at about 11 MB
        tracemalloc.start()
        try:
            simulate_ensemble(EnvironmentPath(np.zeros(8)), 3, 50_000, stream, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak


class TestSimulate:
    def test_deterministic_given_stream(self, stream):
        # blocks are keyed by index, so the worker count changes nothing
        path = EnvironmentPath(np.array([0.3, -0.2, 0.5]))
        a = final_clans_ensemble(path, 70_000, stream, shards=1)
        b = final_clans_ensemble(path, 70_000, stream, shards=2)
        assert np.array_equal(a, b)

    def test_oracle_run_same_bytes_at_any_shard_count(self, stream):
        # the oracle's n = 8 run: 50 000 replicates make seven blocks
        path = EnvironmentPath(np.zeros(8))
        assert 6 * clan_sim._SIM_BLOCK < 50_000 <= 7 * clan_sim._SIM_BLOCK
        one = simulate_ensemble(path, 3, 50_000, stream, shards=1)
        two = simulate_ensemble(path, 3, 50_000, stream, shards=2)
        for a, b in zip(one, two):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_index_domain(self, stream):
        path = EnvironmentPath(np.zeros(3))
        with pytest.raises(DomainError):
            simulate_ensemble(path, 3, 10, stream)

    @pytest.mark.parametrize("m_reps", [1000.0, True, 0])
    @pytest.mark.parametrize("run", [
        pytest.param(lambda path, m_reps, stream: final_clans_ensemble(path, m_reps, stream),
                     id="final_clans_ensemble"),
        pytest.param(lambda path, m_reps, stream: simulate_ensemble(path, 1, m_reps, stream),
                     id="simulate_ensemble")])
    def test_m_reps_is_a_positive_integer(self, run, m_reps, stream):
        with pytest.raises(DomainError, match=f"m_reps must be a positive integer, "
                                              f"got {m_reps!r}"):
            run(EnvironmentPath(np.zeros(3)), m_reps, stream)

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
