import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.stats import ks_2samp

from clanmc import (DomainError, EnvironmentPath, NumericalFailureError, RngStream,
                    build_walk, final_clans_ensemble, h_functional)
from clanmc import clan_sim
from clanmc.clan_sim import _block_clans, _reproduce
from clanmc.env_model import offspring_params


@pytest.fixture
def stream():
    return RngStream(880011)


class TestStep:
    def test_extinct_clans_leave_only_immigrant(self, stream):
        # m = e^-40: the founder dies out at once, so only the next immigrant's clan is left
        path = EnvironmentPath(np.array([-40.0, 0.0]))
        clans = np.concatenate(block_matrices(path, 2_000, stream))
        assert not clans[:, 0].any()
        clan, _, _, none = final_clans_ensemble(path, 2_000, stream)
        assert np.all(clan == 1)
        assert none == np.count_nonzero(clans[:, 1] == 0)
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
        clans = np.concatenate(block_matrices(EnvironmentPath(x), 100_000, stream)).astype(float)
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
    """The clan matrix of m_reps replicates, one whole-matrix generation at a time per block."""
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


def block_matrices(path, m_reps, stream):
    """The clan matrix of each substream block, drawn as final_clans_ensemble draws it."""
    return [_block_clans(path, m_reps, stream, b)
            for b in range(-(-m_reps // clan_sim._SIM_BLOCK))]


def reference_counts(clans):
    """{(sole surviving clan, size): replicates} and the rest, tallied row by row."""
    tally = Counter()
    for row in clans.tolist():
        alive = [(g, y) for g, y in enumerate(row) if y > 0]
        if len(alive) == 1:
            tally[alive[0]] += 1
    return dict(tally), clans.shape[0] - sum(tally.values())


def as_counts(got):
    clan, size, count, none = got
    assert all(a.dtype == np.int64 for a in (clan, size, count))
    pairs = list(zip(clan.tolist(), size.tolist()))
    assert pairs == sorted(set(pairs)) and np.all(count > 0)
    return dict(zip(pairs, count.tolist())), none


def event_moments(counts, i, s, m_reps):
    """Mean and standard error of 1 - s^Y on the event that clan i survives alone."""
    clan, size, count, _ = counts
    vals, weights = 1.0 - s ** size[clan == i], count[clan == i]
    mean = float(np.dot(weights, vals)) / m_reps
    var = (float(np.dot(weights, vals * vals)) - m_reps * mean**2) / (m_reps - 1)
    return mean, math.sqrt(var / m_reps)


class TestBatchedGenerations:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_same_matrix_as_whole_matrix_reference(self, stream, shards):
        # three substream blocks, the last one short; from t = 5 on an
        # 8192-row block spans several batches of _REPRODUCE_CELLS cells
        path = EnvironmentPath(np.array([0.4, -0.3, 0.2, 0.1, -0.5, 0.3,
                                         0.2, -0.1, 0.3, -0.4, 0.1, 0.2]))
        assert 2 * clan_sim._SIM_BLOCK < 20_000 < 3 * clan_sim._SIM_BLOCK
        assert clan_sim._SIM_BLOCK * path.n >= 3 * clan_sim._REPRODUCE_CELLS
        want = reference_ensemble(path, 20_000, stream)
        blocks = block_matrices(path, 20_000, stream)
        assert all(b.dtype == np.int64 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), want)
        assert as_counts(final_clans_ensemble(path, 20_000, stream, shards=shards)) == \
            reference_counts(want)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_billion_sizes_counted_sparsely(self, stream, shards):
        # mean e^23 in the last generation: the sole survivors' sizes run into
        # the billions and nearly all differ, beyond any dense histogram
        path = EnvironmentPath(np.array([0.0, 0.0, 23.0]))
        got = final_clans_ensemble(path, 20_000, stream, shards=shards)
        assert got[1].max() > 10**10 and got[1].size > 1000
        assert as_counts(got) == reference_counts(reference_ensemble(path, 20_000, stream))

    def test_tally_adds_counts_across_parts(self, stream):
        # sizes up to 2**62 in any order, tallied in parts and then merged
        gen = stream.substream("t.tally", 0)
        clan = gen.integers(0, 3, 500)
        size = np.array([1, 7, 2**40, 2**62])[gen.integers(0, 4, 500)]
        parts = [clan_sim._tally(c, y, np.ones(c.size, dtype=np.int64))
                 for c, y in zip(np.array_split(clan, 4), np.array_split(size, 4))]
        got = clan_sim._tally(*(np.concatenate(col) for col in zip(*parts)))
        assert as_counts((*got, 0)) == (dict(Counter(zip(clan.tolist(), size.tolist()))), 0)

    def test_event_share_is_the_event_mean(self, stream):
        # count / m has the bits of the mean of the replicates' 0/1 event
        path = EnvironmentPath(np.array([0.4, -0.2, 0.3]))
        clans = np.concatenate(block_matrices(path, 20_000, stream))
        clan, _, count, _ = final_clans_ensemble(path, 20_000, stream)
        sole = np.count_nonzero(clans, axis=1) == 1
        for i in range(3):
            event = sole & (clans[:, i] > 0)
            assert int(count[clan == i].sum()) / 20_000 == event.mean()

    def test_no_sole_survivor_leaves_empty_counts(self, stream):
        got = final_clans_ensemble(EnvironmentPath(np.array([-40.0])), 10_000, stream, shards=2)
        assert as_counts(got) == ({}, 10_000)

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
        # n = 8 and 50 000 replicates, as the oracle suite runs it: one
        # 8192 x 8 block matrix (0.5 MiB) and its batch temporaries; the
        # whole 3.2 MB matrix the counts replace peaked at about 4.3 MiB
        path = EnvironmentPath(np.zeros(8))
        final_clans_ensemble(path, 10, stream, shards=1)
        tracemalloc.start()
        try:
            final_clans_ensemble(path, 50_000, stream, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, peak


class TestSimulate:
    def test_deterministic_given_stream(self, stream):
        # blocks are keyed by index, so the worker count changes nothing
        path = EnvironmentPath(np.array([0.3, -0.2, 0.5]))
        a = final_clans_ensemble(path, 70_000, stream, shards=1)
        b = final_clans_ensemble(path, 70_000, stream, shards=2)
        assert a[3] == b[3]
        for x, y in zip(a[:3], b[:3]):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_oracle_run_same_bytes_at_any_shard_count(self, stream):
        # the oracle's n = 8 run: 50 000 replicates make seven blocks
        path = EnvironmentPath(np.zeros(8))
        assert 6 * clan_sim._SIM_BLOCK < 50_000 <= 7 * clan_sim._SIM_BLOCK
        one = final_clans_ensemble(path, 50_000, stream, shards=1)
        two = final_clans_ensemble(path, 50_000, stream, shards=2)
        assert one[3] == two[3]
        for a, b in zip(one[:3], two[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m_reps", [1000.0, True, 0])
    @pytest.mark.parametrize("run", [
        pytest.param(lambda path, m_reps, stream: final_clans_ensemble(path, m_reps, stream),
                     id="final_clans_ensemble")])
    def test_m_reps_is_a_positive_integer(self, run, m_reps, stream):
        with pytest.raises(DomainError, match=f"m_reps must be a positive integer, "
                                              f"got {m_reps!r}"):
            run(EnvironmentPath(np.zeros(3)), m_reps, stream)

    def test_event_requires_sole_survivor(self, stream):
        clan, size, count, none = final_clans_ensemble(EnvironmentPath(np.zeros(4)), 20_000, stream)
        assert np.any(clan == 2)
        assert np.all(size > 0) and np.all((clan >= 0) & (clan < 4))
        assert int(count.sum()) + none == 20_000

    def test_one_step_event_probability(self, stream):
        m = math.exp(0.4)
        path = EnvironmentPath(np.array([0.4]))
        clan, _, count, _ = final_clans_ensemble(path, 200_000, stream)
        p_hat = int(count[clan == 0].sum()) / 200_000
        p_exact = m / (1.0 + m)
        se = math.sqrt(p_exact * (1 - p_exact) / 200_000)
        assert abs(p_hat - p_exact) <= 3 * se

    def test_ensemble_matches_h_functional(self, stream):
        path = EnvironmentPath(np.zeros(8))
        w = build_walk(path)
        counts = final_clans_ensemble(path, 50_000, stream)
        for s in (0.0, 0.5):
            mean, se = event_moments(counts, 3, s, 50_000)
            assert abs(mean - h_functional(w, 3, 8, s).value) <= 3 * se

    def test_events_disjoint_within_realization(self, stream):
        rng = np.random.default_rng(7)
        path = EnvironmentPath(rng.normal(0, 1, 6))
        for clans in block_matrices(path, 20_000, stream):
            totals = clans.sum(axis=1)
            sole = (clans == totals[:, None]) & (totals[:, None] > 0)
            assert np.all(sole.sum(axis=1) <= 1)

    def test_ensemble_deterministic(self, stream):
        path = EnvironmentPath(np.array([0.1, -0.4]))
        a = final_clans_ensemble(path, 5_000, stream)
        b = final_clans_ensemble(path, 5_000, stream)
        assert as_counts(a) == as_counts(b)


class TestNegativeBinomialAggregation:
    def test_matches_per_individual_sum_in_distribution(self, stream):
        y, m, reps = 10, 2.0, 100_000
        q = 1.0 / (1.0 + m)
        gen = stream.substream("t.ks", 0)
        aggregated = gen.negative_binomial(y, q, size=reps)
        # per-individual route: sum of y independent geometric(q) failure counts
        individual = (gen.geometric(q, size=(reps, y)) - 1).sum(axis=1)
        assert ks_2samp(aggregated, individual).pvalue > 0.001
