import math
import tracemalloc

import numpy as np
import pytest

from clanmc import (DomainError, EnvironmentPath, EnvironmentSpec, RngStream, assoc_walk,
                    build_walk, estimate_table, harmonicity_residual)
from clanmc.env_model import draw_increments
from clanmc.estimators import _ExpRows, _first_max_index
from clanmc.parallel import block_sizes


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



def reference_scan(spec, side, grid, horizon, m_samples, stream, purpose):
    """The dense per-chunk persistence scan, one block after another.

    Each chunk draws and cumsums every surviving path at once and tallies
    its steps into dense (paths, grid + 1) counts of the whole block.  The
    production scan draws in row batches and adds each path to the sums
    when it leaves its side; it must give the same integers.
    """
    grid = np.asarray(grid, dtype=float)
    ngrid = grid.size
    results = []
    for b, rows in enumerate(block_sizes(m_samples, assoc_walk._WALK_BLOCK)):
        gen = stream.substream(purpose, b)
        counts = np.zeros((rows, ngrid + 1), dtype=np.int32)
        s_cur = np.zeros(rows)
        alive = np.arange(rows)
        done = 0
        while alive.size and done < horizon:
            k = min(assoc_walk._WALK_CHUNK, horizon - done)
            seg = np.cumsum(draw_increments(spec, gen, np.empty((alive.size, k))), axis=1)
            seg += s_cur[alive, None]
            bad = seg >= 0.0 if side == "u" else seg < 0.0
            has_bad = bad.any(axis=1)
            first = np.where(has_bad, bad.argmax(axis=1), k)
            valid = np.arange(k)[None, :] < first[:, None]
            vals = -seg[valid]
            if vals.size:
                has = first > 0
                hit = alive[has]
                flat = np.repeat(np.arange(hit.size) * (ngrid + 1), first[has])
                flat += np.searchsorted(grid, vals, side="left")
                counts[hit] += np.bincount(flat, minlength=hit.size * (ngrid + 1)).reshape(
                    hit.size, ngrid + 1)
            keep = ~has_bad
            if keep.any():
                s_cur[alive[keep]] = seg[keep, k - 1]
            alive = alive[keep]
            done += k
        if side == "u":
            per_path = np.cumsum(counts[:, :ngrid], axis=1, dtype=np.int64)
        else:
            totals = counts.sum(axis=1, dtype=np.int64)[:, None]
            per_path = totals - np.cumsum(counts[:, :ngrid], axis=1, dtype=np.int64)
        results.append((rows, per_path.sum(axis=0), (per_path.astype(np.int64) ** 2).sum(axis=0)))
    block_paths = np.array([r[0] for r in results], dtype=np.int64)
    block_sums = np.stack([r[1] for r in results])
    total_sumsq = np.sum([r[2] for r in results], axis=0)
    return block_paths, block_sums, total_sumsq


class TestPersistenceScan:
    # 4096 + 700 paths: a full block of many row batches and a short last
    # block; a horizon of 300 ends on a chunk of 44 steps
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("side", ["u", "v"])
    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0),
                                      EnvironmentSpec.uniform_symmetric(1.5),
                                      EnvironmentSpec.two_point(1.0)],
                             ids=["gaussian", "uniform", "twopoint"])
    def test_same_integers_as_dense_reference(self, spec, side, shards, stream):
        grid = np.arange(0, 41) * 0.1 if side == "u" else -np.arange(40, 0, -1) * 0.1
        args = (spec, side, grid, 300, 4796, stream, f"test.scan.{side}")
        got = assoc_walk._persistence_scan(*args, shards=shards)
        want = reference_scan(*args)
        assert got[0].tolist() == [4096, 700]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert want[1].sum() > 0

    def test_block_working_set_bounded(self, stream):
        # a full block against a 161-node table: the dense per-chunk tallies
        # of the reference peak at about 13 MB
        spec, grid = EnvironmentSpec.gaussian(1.0), np.arange(161) * 0.05
        tracemalloc.start()
        try:
            assoc_walk._persistence_scan(spec, "u", grid, 2000, 4096, stream, "test.mem", shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak
