import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clanmc import (DomainError, EnvironmentPath, EnvironmentSpec, RngStream, assoc_walk,
                    build_walk, estimate_table, harmonicity_residual)
from clanmc.env_model import draw_increments
from clanmc.estimators import _ExpRows


# the node table `oracle` builds for the harmonicity check
ORACLE_TABLE = np.arange(161) * 0.05


@pytest.fixture
def stream():
    return RngStream(77001)


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any draw of the walks, so a refusal must come before the first one."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the input")
    monkeypatch.setattr(assoc_walk, "draw_increments", no_draw)


def random_walk(seed, n, sigma=1.0):
    x = np.random.default_rng(seed).normal(0.0, sigma, n)
    return EnvironmentPath(x), build_walk(EnvironmentPath(x))


def prefix_log_sums(w):
    """log b_k = log sum_{r<k} e^{-S_r} for k = 1..n+1, as the production kernels read them."""
    neg = _ExpRows(-w[None, :])
    return np.array([neg.lse(0, k)[0] for k in range(1, w.size + 1)])


def first_min_index(w):
    """The smallest index attaining min(S_0..S_n): the first maximum of the negated walk."""
    return int(np.argmax(-w))


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
        table = estimate_table(spec, [0.0, 1.0], horizon=200, m_samples=2000, stream=stream)
        assert table.means[0] == 1.0 and not table.block_sums[:, 0].any()
        with pytest.raises(DomainError):
            estimate_table(spec, [-0.5], horizon=50, m_samples=100, stream=stream)

    @pytest.mark.parametrize("horizon", [0, -3, 2.5, 10.0, True, "10", None])
    def test_bad_horizon_refused_before_drawing(self, horizon, stream, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing the horizon")
        monkeypatch.setattr(assoc_walk, "draw_increments", no_draw)
        spec = EnvironmentSpec.gaussian(1.0)
        with pytest.raises(DomainError, match="horizon must be a positive integer"):
            estimate_table(spec, [0.0, 1.0], horizon=horizon, m_samples=100, stream=stream)
        with pytest.raises(DomainError, match="horizon must be a positive integer"):
            harmonicity_residual(spec, [0.0], horizon=horizon, m_samples=5000, stream=stream)

    @pytest.mark.parametrize("m_samples", [0, -3, 1.5, 5000.5, True, "10", None])
    @pytest.mark.usefixtures("no_draws")
    def test_bad_m_samples_refused_before_drawing(self, m_samples, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        with pytest.raises(DomainError, match="m_samples must be a positive integer"):
            estimate_table(spec, [0.0, 1.0], horizon=20, m_samples=m_samples, stream=stream)
        with pytest.raises(DomainError, match="m_samples must be a positive integer"):
            harmonicity_residual(spec, [0.0], horizon=20, m_samples=m_samples, stream=stream)

    def test_integer_m_samples_types(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = estimate_table(spec, [1.0], horizon=20, m_samples=np.int64(100), stream=stream)
        b = estimate_table(spec, [1.0], horizon=20, m_samples=100, stream=stream)
        assert a.means.tolist() == b.means.tolist()
        assert np.array_equal(a.block_sums, b.block_sums)

    @pytest.mark.usefixtures("no_draws")
    def test_empty_harmonicity_grid_refused_before_drawing(self, stream):
        with pytest.raises(DomainError, match="must not be empty"):
            harmonicity_residual(EnvironmentSpec.gaussian(1.0), [], horizon=20, m_samples=5000,
                                 stream=stream)

    @pytest.mark.parametrize("grid", [[np.nan], [0.0, np.nan]])
    @pytest.mark.usefixtures("no_draws")
    def test_nan_grid_node_refused_before_drawing(self, grid, stream):
        with pytest.raises(DomainError, match="grid must not hold nan"):
            estimate_table(EnvironmentSpec.gaussian(1.0), grid, horizon=20, m_samples=100,
                           stream=stream)

    @pytest.mark.parametrize("grid, message", [
        ([0.5, 0.5], "grid must be strictly increasing"),
        ([1.0, 0.5], "grid must be strictly increasing"),
        ([-0.5, 1.0], "u-table grid must be nonnegative"),
    ])
    @pytest.mark.usefixtures("no_draws")
    def test_bad_grid_refused_before_drawing(self, grid, message, stream):
        with pytest.raises(DomainError, match=message):
            estimate_table(EnvironmentSpec.gaussian(1.0), grid, horizon=20, m_samples=100,
                           stream=stream)

    @pytest.mark.parametrize("x_grid", [[np.nan], [0.5, np.inf]])
    @pytest.mark.usefixtures("no_draws")
    def test_non_finite_harmonicity_grid_refused_before_drawing(self, x_grid, stream):
        with pytest.raises(DomainError, match="harmonicity grid must be finite"):
            harmonicity_residual(EnvironmentSpec.gaussian(1.0), x_grid, horizon=20,
                                 m_samples=5000, stream=stream)

    @pytest.mark.usefixtures("no_draws")
    def test_negative_harmonicity_x_refused_before_drawing(self, stream):
        with pytest.raises(DomainError, match="u-harmonicity grid must be nonnegative"):
            harmonicity_residual(EnvironmentSpec.gaussian(1.0), [1.0, -0.5], horizon=20,
                                 m_samples=5000, stream=stream)

    def test_infinite_grid_node_counts_every_step(self, stream):
        # u(+inf) counts every step a path takes before it leaves the negative half-line
        spec = EnvironmentSpec.gaussian(1.0)
        every = estimate_table(spec, [1e300], horizon=50, m_samples=100, stream=stream)
        table = estimate_table(spec, [0.0, np.inf], horizon=50, m_samples=100, stream=stream)
        assert table.means[-1] == every.means[0] > 1.0

    def test_integer_horizon_types(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = estimate_table(spec, [1.0], horizon=np.int64(20), m_samples=100, stream=stream)
        b = estimate_table(spec, [1.0], horizon=20, m_samples=100, stream=stream)
        assert a.means.tolist() == b.means.tolist()

    def test_u_against_lattice_dp(self, stream):
        spec = EnvironmentSpec.two_point(1.0)
        horizon = 2000
        xs = [1.0, 2.0, 3.0]
        exact = truncated_u_by_dp(1.0, xs, horizon)
        table = estimate_table(spec, xs, horizon=horizon, m_samples=100_000, stream=stream)
        ses = reference_stderrs(spec, xs, horizon, 100_000, stream)
        for x, mean, se in zip(xs, table.means, ses):
            assert abs(mean - exact[x]) <= 3.0 * se, (x, mean, exact[x])

    def test_u_truncation_stability(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = estimate_table(spec, [2.0], horizon=10_000, m_samples=20_000, stream=stream)
        b = estimate_table(spec, [2.0], horizon=20_000, m_samples=20_000, stream=stream)
        band = 3.0 * math.hypot(reference_stderrs(spec, [2.0], 10_000, 20_000, stream)[0],
                                reference_stderrs(spec, [2.0], 20_000, 20_000, stream)[0])
        assert abs(a.means[0] - b.means[0]) <= band

    def test_u_table_monotone(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        xs = np.arange(0, 41, dtype=float) * 0.05
        table = estimate_table(spec, xs, horizon=500, m_samples=5000, stream=stream)
        assert np.all(np.diff(table.means) >= 0.0)

    def test_u_harmonicity_on_lattice_walk(self, stream):
        # x + X lands exactly on table nodes, so the residual is pure noise
        spec = EnvironmentSpec.two_point(1.0)
        pts = harmonicity_residual(spec, [0.0, 1.0, 2.0], horizon=2000,
                                   m_samples=30_000, stream=stream)
        for p in pts:
            assert p.passed, (p.x, p.residual, p.bound)



def persistence_total(horizon):
    """1 + sum_{k=1}^{horizon} C(2k, k) / 4^k, by u_k = u_{k-1} (2k - 1) / (2k).

    For i.i.d. steps of a continuous symmetric law, Sparre Andersen's
    theorem gives P(S_1 < 0, ..., S_k < 0) = C(2k, k) / 4^k whatever the
    law.
    """
    total, u_k = 1.0, 1.0
    for k in range(1, horizon + 1):
        u_k *= (2 * k - 1) / (2 * k)
        total += u_k
    return total


class TestSparreAndersen:
    """The scan against a distribution-free exact value.

    A node above every threshold counts each step a path takes before it
    leaves the negative half-line, so the table there is one plus the mean persistence
    time: 1 + sum_{k<=H} C(2k, k) / 4^k for any continuous symmetric law.
    It checks the chunk schedule, the leave test, the in-grid mask, the
    bins and the block-end tally at once.
    """

    def test_exact_totals(self):
        assert persistence_total(16) == pytest.approx(4.6183, abs=1e-4)
        assert persistence_total(2000) == pytest.approx(50.4721, abs=1e-4)

    @pytest.mark.parametrize("horizon", [16, 2000])
    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0),
                                      EnvironmentSpec.uniform_symmetric(1.5)],
                             ids=["gaussian", "uniform"])
    def test_table_at_the_far_node(self, spec, horizon):
        grid = [0.0, 1e300]
        stream = RngStream(27_000 + horizon)
        table = estimate_table(spec, grid, horizon=horizon, m_samples=200_000, stream=stream,
                               shards=2)
        se = reference_stderrs(spec, grid, horizon, 200_000, stream)[-1]
        z = (table.means[-1] - persistence_total(horizon)) / se
        assert abs(z) <= 4.0, (table.means[-1], se, z)


def reference_scan(spec, grid, horizon, m_samples, stream, purpose):
    """The dense per-chunk persistence scan, one block after another.

    Each chunk draws and cumsums every surviving path at once and tallies
    its steps into dense (paths, grid + 1) counts of the whole block.  The
    production scan draws in row batches and adds each path to the sums
    when it leaves the negative half-line; it must give the same integers.
    """
    grid = np.asarray(grid, dtype=float)
    ngrid = grid.size
    results = []
    block = assoc_walk._WALK_BLOCK
    for b, lo in enumerate(range(0, m_samples, block)):
        rows = min(block, m_samples - lo)
        gen = stream.substream(purpose, b)
        counts = np.zeros((rows, ngrid + 1), dtype=np.int32)
        s_cur = np.zeros(rows)
        alive = np.arange(rows)
        done = 0
        while alive.size and done < horizon:
            k = assoc_walk._chunk_steps(done, horizon)
            seg = np.cumsum(draw_increments(spec, gen, np.empty((alive.size, k))), axis=1)
            seg += s_cur[alive, None]
            bad = seg >= 0.0
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
        per_path = np.cumsum(counts[:, :ngrid], axis=1, dtype=np.int64)
        results.append((rows, per_path.sum(axis=0), (per_path.astype(np.int64) ** 2).sum(axis=0)))
    block_paths = np.array([r[0] for r in results], dtype=np.int64)
    block_sums = np.stack([r[1] for r in results])
    total_sumsq = np.sum([r[2] for r in results], axis=0)
    return block_paths, block_sums, total_sumsq


def reference_stderrs(spec, grid, horizon, m_samples, stream):
    """Standard errors of `estimate_table`'s means, from the per-path squares of `reference_scan`.

    The indicator shifts every path's value equally, so the spread is the
    event counts'.
    """
    _, block_sums, total_sumsq = reference_scan(spec, grid, horizon, m_samples, stream,
                                                "assoc_walk.u")
    mean = block_sums.sum(axis=0) / m_samples
    var = (total_sumsq / m_samples - mean ** 2) / max(m_samples - 1, 1)
    return np.sqrt(np.maximum(var, 0.0))


def assert_same_scan(got, want):
    """The scan's (block_paths, block_sums) against the reference's first two results."""
    assert len(got) == 2
    for g, w in zip(got, want[:2]):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestPersistenceScan:
    # 4096 + 700 paths: a full block of many row batches and a short last
    # block; a horizon of 300 ends on a chunk of 44 steps
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0),
                                      EnvironmentSpec.uniform_symmetric(1.5),
                                      EnvironmentSpec.two_point(1.0)],
                             ids=["gaussian", "uniform", "twopoint"])
    def test_same_integers_as_dense_reference(self, spec, shards, stream):
        args = (spec, np.arange(0, 41) * 0.1, 300, 4796, stream, "test.scan.u")
        got = assoc_walk._persistence_scan(*args, shards=shards)
        want = reference_scan(*args)
        assert got[0].tolist() == [4096, 700]
        assert_same_scan(got, want)
        assert want[1].sum() > 0

    # horizons that end inside, on and just past the first chunk of 16 steps
    @pytest.mark.parametrize("horizon", [1, 15, 16, 17])
    def test_same_integers_at_edge_horizons(self, horizon, stream):
        args = (EnvironmentSpec.gaussian(1.0), np.arange(0, 41) * 0.1, horizon, 4796, stream,
                "test.edge.u")
        got = assoc_walk._persistence_scan(*args, shards=1)
        want = reference_scan(*args)
        assert_same_scan(got, want)
        assert want[1].sum() > 0

    # blocks of one path, of exactly one and just over one first-chunk row
    # batch (_ROW_BATCH // 16 = 1024 paths), and a full block beside a block
    # of one path
    @pytest.mark.parametrize("m_samples, block_paths", [(1, [1]), (1024, [1024]), (1025, [1025]),
                                                        (4097, [4096, 1])],
                             ids=["1", "1024", "1025", "4097"])
    def test_same_integers_at_block_and_batch_edges(self, m_samples, block_paths, stream):
        args = (EnvironmentSpec.gaussian(1.0), np.arange(0, 41) * 0.1, 300, m_samples, stream,
                "test.batch.u")
        got = assoc_walk._persistence_scan(*args, shards=2)
        want = reference_scan(*args)
        assert got[0].tolist() == block_paths
        assert_same_scan(got, want)

    def test_walk_that_never_goes_negative_tallies_nothing(self, stream):
        # zero steps put every path at S_1 = 0, so each leaves at its first step
        spec, grid = EnvironmentSpec.two_point(0.0), np.arange(0, 41) * 0.1
        got = assoc_walk._persistence_scan(spec, grid, 300, 4796, stream, "test.flat.u", shards=2)
        assert_same_scan(got, reference_scan(spec, grid, 300, 4796, stream, "test.flat.u"))
        assert not got[1].any()
        table = estimate_table(spec, grid, horizon=300, m_samples=4796, stream=stream)
        assert np.all(table.means == 1.0)

    # the 161-node table of `oracle` over two blocks; two-point walks land on its nodes
    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0), EnvironmentSpec.two_point(1.0)],
                             ids=["gaussian", "twopoint"])
    def test_same_integers_on_oracle_table(self, spec, stream):
        args = (spec, ORACLE_TABLE, 2000, 4796, stream, "test.table.u")
        got = assoc_walk._persistence_scan(*args, shards=2)
        want = reference_scan(*args)
        assert got[0].tolist() == [4096, 700]
        assert_same_scan(got, want)

    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0),
                                      EnvironmentSpec.uniform_symmetric(1.5),
                                      EnvironmentSpec.two_point(1.0)],
                             ids=["gaussian", "uniform", "twopoint"])
    def test_draws_bounded_by_tallied_steps(self, spec, stream, monkeypatch):
        # a path that leaves in the chunk starting at step `done` has tallied
        # at least `done` steps and drew at most max(_FIRST_CHUNK, done) more
        drawn, draw = [0], assoc_walk.draw_increments

        def counted(spec, gen, out):
            drawn[0] += out.size
            return draw(spec, gen, out)

        monkeypatch.setattr(assoc_walk, "draw_increments", counted)
        paths = 8192
        grid = np.array([1e300])  # every tallied step counts
        _, block_sums = assoc_walk._persistence_scan(spec, grid, 2000, paths, stream, "test.waste",
                                                     shards=1)
        tallied = int(block_sums.sum())
        assert 0 < drawn[0] <= 2 * tallied + assoc_walk._FIRST_CHUNK * paths, (drawn, tallied)

    # a 1024-node table, the widest `oracle` builds, and an uneven grid
    @pytest.mark.parametrize("nodes", [np.arange(1024) * 0.05,
                                       np.array([0.05, 0.1, 0.15, 1.0, 7.5, 7.5000001, 300.0])],
                             ids=["1024-node", "uneven"])
    def test_same_integers_on_wide_and_uneven_grids(self, nodes, stream):
        args = (EnvironmentSpec.gaussian(1.0), nodes, 2000, 4796, stream, "test.wide.u")
        got = assoc_walk._persistence_scan(*args, shards=2)
        want = reference_scan(*args)
        assert_same_scan(got, want)
        assert want[1].sum() > 0

    def test_block_working_set_bounded(self, stream):
        # a full block against a 161-node table: the dense per-chunk tallies
        # of the reference peak at about 13 MB
        spec, grid = EnvironmentSpec.gaussian(1.0), np.arange(161) * 0.05
        tracemalloc.start()
        try:
            assoc_walk._persistence_scan(spec, grid, 2000, 4096, stream, "test.mem", shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, peak

    def test_block_working_set_flat_in_table_width(self, stream):
        # a block keeps one count per node beside its batch temporaries:
        # about 0.5 MiB against 1024 nodes, where per-path bin-count rows took 6 MiB
        peak = scan_peak(EnvironmentSpec.gaussian(1.0), np.arange(1024) * 0.05, 2000, 4096, stream,
                         "test.mem", shards=1)
        assert peak <= 3 * 2**20, peak

    def test_block_working_set_flat_in_tallied_steps(self, stream):
        # a node above every threshold counts each of the 0.4-0.5 M steps a
        # block takes at this horizon; one count row and the batch
        # temporaries peak at about 0.5 MiB, and 4 B per tallied step
        # would take about 1.8 MiB
        spec, grid = EnvironmentSpec.gaussian(1.0), np.array([1e300])
        assoc_walk._persistence_scan(spec, grid, 16, 64, stream, "test.warm", shards=1)
        peak = scan_peak(spec, grid, 10_000, 4096, stream, "test.long", shards=1)
        _, every = assoc_walk._persistence_scan(spec, grid, 10_000, 4096, stream, "test.long",
                                                shards=1)
        tallied = int(every.sum())
        assert tallied > 300_000, tallied
        assert peak <= 2**20, (peak, tallied)

    # an empty grid has no bin that counts; grids that almost every step
    # overshoots leave a few in-grid steps per block
    @pytest.mark.parametrize("grid, horizon", [(np.array([]), 300), (np.array([0.0, 0.05]), 2000)],
                             ids=["u-empty", "u-overshot"])
    def test_same_integers_on_empty_and_overshot_grids(self, grid, horizon, stream):
        args = (EnvironmentSpec.gaussian(1.0), grid, horizon, 4796, stream, "test.over.u")
        got = assoc_walk._persistence_scan(*args, shards=2)
        want = reference_scan(*args)
        assert_same_scan(got, want)
        assert got[1].shape == (2, grid.size)

    def test_bins_only_in_grid_steps(self, stream, monkeypatch):
        # the table's last node counts every in-grid step, so the thresholds
        # the scan bins are exactly the steps some node counts
        binned, searchsorted = [], np.searchsorted

        def recorded(a, v, *args, **kwargs):
            binned.append(v.copy())
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recorded)
        _, block_sums = assoc_walk._persistence_scan(
            EnvironmentSpec.gaussian(1.0), ORACLE_TABLE, 2000, 4796, stream, "test.count.u",
            shards=2)
        thresholds = np.concatenate(binned)
        assert np.all(thresholds <= ORACLE_TABLE[-1])
        assert thresholds.size == block_sums[:, -1].sum()
        assert thresholds.size > 0

    def test_block_working_set_follows_in_grid_steps(self, stream):
        # at horizon 10 000 a block takes 0.4-0.5 M steps and about 50 000
        # fall in the 161-node table: about 0.4 MiB after one-time state
        spec = EnvironmentSpec.gaussian(1.0)
        assoc_walk._persistence_scan(spec, ORACLE_TABLE, 16, 64, stream, "test.warm", shards=1)
        peak = scan_peak(spec, ORACLE_TABLE, 10_000, 4096, stream, "test.long", shards=1)
        assert peak <= 2 * 2**20, peak


def scan_peak(*args, **kwargs):
    """The tracemalloc peak of one persistence scan."""
    tracemalloc.start()
    try:
        assoc_walk._persistence_scan(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_interp_extrap(xs, ys, q):
    """np.interp inside the nodes, linear extrapolation from the end pairs outside."""
    out = np.interp(q, xs, ys)
    if xs.size >= 2:
        hi = q > xs[-1]
        if hi.any():
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out[hi] = ys[-1] + slope * (q[hi] - xs[-1])
        lo = q < xs[0]
        if lo.any():
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            out[lo] = ys[0] + slope * (q[lo] - xs[0])
    return out


def reference_harmonicity(spec, x_grid, horizon, m_samples, stream, shards=None):
    """The harmonicity check with one interpolation per x and per left-out group.

    Same table, draws and groups as the production check; each group's
    value interpolates the draws outside that group afresh.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    k_max = int(math.ceil((float(x_grid.max()) + assoc_walk._x_padding(spec)) / 0.05))
    nodes = np.arange(0, k_max + 1, dtype=float) * 0.05
    table = estimate_table(spec, nodes, horizon, m_samples, stream, shards,
                           purpose="assoc_walk.harmonicity.u")
    ind = np.ones(nodes.size)  # 1{x >= 0} on the nonnegative nodes
    gen = stream.substream("assoc_walk.harmonicity.u.draws", 0)
    draws = draw_increments(spec, gen, np.empty(m_samples))
    n_blocks = table.block_paths.size
    groups = min(20, n_blocks)
    block_group = np.arange(n_blocks) % groups
    draw_group = (np.arange(m_samples) * groups) // m_samples

    def table_means(excluded):
        keep = block_group != excluded
        return ind + table.block_sums[keep].sum(axis=0) / int(table.block_paths[keep].sum())

    def residual_for(x, means, dmask):
        y = x + draws[dmask]
        keep = y >= 0.0
        expect = float(reference_interp_extrap(nodes, means, y[keep]).sum()) / y.size
        return expect, expect - float(reference_interp_extrap(nodes, means, np.array([x]))[0])

    full = ind + table.block_sums.sum(axis=0) / int(table.block_paths.sum())
    allowance = 0.5 * float(np.max(np.abs(np.diff(full)))) if nodes.size >= 2 else 0.0
    out = []
    for x in x_grid:
        expect, res = residual_for(float(x), full, np.ones(m_samples, dtype=bool))
        jk = np.array([residual_for(float(x), table_means(g), draw_group != g)[1]
                       for g in range(groups)])
        se = math.sqrt((groups - 1) / groups * float(np.sum((jk - jk.mean()) ** 2)))
        out.append(assoc_walk.HarmonicityPoint(
            x=float(x), table_value=float(reference_interp_extrap(nodes, full, np.array([x]))[0]),
            expectation_value=expect, residual=abs(res), stderr=se, allowance=allowance,
            bound=3.0 * se + allowance))
    return out


@pytest.fixture
def scan_once(monkeypatch):
    """Let a check and its reference share each persistence scan they both ask for."""
    scan, done = assoc_walk._persistence_scan, {}

    def shared(spec, grid, horizon, m_samples, stream, purpose, shards=None):
        key = (grid.tobytes(), horizon, m_samples, purpose)
        if key not in done:
            done[key] = scan(spec, grid, horizon, m_samples, stream, purpose, shards)
        return done[key]
    monkeypatch.setattr(assoc_walk, "_persistence_scan", shared)


@pytest.mark.usefixtures("scan_once")
class TestHarmonicityJackknife:
    # 19 * 4096 + 700 paths give 20 blocks and 20 groups; 2 * 4096 + 700
    # give three blocks and three groups.  20 * 4096 + 700 paths give 21
    # blocks, so group 0 holds two of them; 4097 paths, the fewest the check
    # takes, give two groups whose second block holds one path; 3 * 4096
    # give three full blocks.  A horizon of 300 keeps it fast.
    @pytest.mark.parametrize("m_samples,shards", [(19 * 4096 + 700, 2), (2 * 4096 + 700, 1),
                                                  (2 * 4096 + 700, 2), (20 * 4096 + 700, 2),
                                                  (4097, 1), (3 * 4096, 2)],
                             ids=["20-groups-shards2", "3-groups-shards1", "3-groups-shards2",
                                  "21-blocks-shards2", "one-path-block-shards1",
                                  "full-blocks-shards2"])
    @pytest.mark.parametrize("spec", [EnvironmentSpec.gaussian(1.0),
                                      EnvironmentSpec.gaussian(0.3),
                                      EnvironmentSpec.uniform_symmetric(1.5),
                                      EnvironmentSpec.two_point(1.0)],
                             ids=["gaussian", "gaussian-0.3", "uniform", "twopoint"])
    def test_same_points_as_reference(self, spec, shards, m_samples):
        args = (spec, [0.0, 0.33, 1.0, 2.0], 300, m_samples, RngStream(4242))
        got = harmonicity_residual(*args, shards=shards)
        want = reference_harmonicity(*args, shards=shards)
        assert got == want

    def test_single_node_table(self):
        # step 0 and x = 0 need one node at 0: np.interp returns that node's
        # value for every query
        args = (EnvironmentSpec.two_point(0.0), [0.0], 300, 2 * 4096 + 700, RngStream(4243))
        got = harmonicity_residual(*args)
        want = reference_harmonicity(*args)
        assert got == want
        assert got[0].allowance == 0.0


    def test_jackknife_working_set_bounded(self):
        # m = 50 000 draws against a 161-node table; the second call takes
        # its table from the first call's scan, so it measures the jackknife:
        # the search, offsets and value vectors of one x at a time peak at
        # about 2.4 MiB, where copies per group would not fit; the group
        # values reuse the shifted draws (2.7 MiB with a vector of their own)
        args = (EnvironmentSpec.gaussian(1.0), [0.0, 1.0, 2.0], 300, 50_000, RngStream(4244))
        harmonicity_residual(*args, shards=1)
        tracemalloc.start()
        try:
            harmonicity_residual(*args, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, peak


@st.composite
def nodes_and_queries(draw):
    """A strictly increasing grid of 1-50 nodes, values on it, and queries.

    The grid is uniform of step 0.05 or has random steps; the queries hold
    every node, the last node again, points below the first and above the
    last node, and random points around the grid.
    """
    size = draw(st.integers(1, 50))
    start = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        nodes = start + np.arange(size) * 0.05
    else:
        steps = draw(st.lists(st.floats(1e-3, 5.0), min_size=size - 1, max_size=size - 1))
        nodes = start + np.concatenate(([0.0], np.cumsum(steps)))
    ys = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)))
    outside = draw(st.lists(st.floats(1e-9, 20.0), min_size=1, max_size=4))
    inside = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    q = np.concatenate((nodes, nodes[-1:], nodes[0] - np.array(outside),
                        nodes[-1] + np.array(outside),
                        nodes[0] + np.array(inside) * (nodes[-1] - nodes[0])))
    return nodes, ys, draw(st.permutations(q))


@settings(max_examples=300, deadline=None)
@given(nodes_and_queries())
def test_interpolate_is_np_interp_with_linear_ends(case):
    nodes, ys, q = case
    want = reference_interp_extrap(nodes, ys, np.array(q))
    assert np.array_equal(assoc_walk._interpolate(nodes, ys, np.array(q)), want)
