import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from clanmc import (DomainError, EnvironmentPath,
                    EnvironmentSpec, MCEstimate, RegimeRule, RngStream,
                    UnreliableRatioError, build_walk, cond_event_prob,
                    duality_check, estimate_event_prob_grid, estimate_lambda,
                    estimate_theta, h_functional, scaling_study, strata_decomposition)
from clanmc import estimators
from clanmc.env_model import draw_increments
from clanmc.errors import NumericalFailureError
from clanmc.estimators import (DualityResult, EventProbResult, TransformResult, _sweep,
                               fit_scaling_points)
from clanmc.mcstats import ratio_with_stderr

from conftest import traced_peak

GAUSS = EnvironmentSpec.gaussian(1.0)
FLAT = EnvironmentSpec.two_point(0.0)
NINE_BETAS = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, math.inf]
END3 = RegimeRule.end_window(3)
FAMILIES = {"gaussian": GAUSS, "uniform": EnvironmentSpec.uniform_symmetric(1.5),
            "twopoint": EnvironmentSpec.two_point(0.7)}


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


def sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


class TestSweep:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_reused_buffers_give_each_block_its_own_walk(self, stream, shards):
        # 600 samples: two full blocks and a short last one, each drawn into
        # the thread's buffers; the kernel negates its walk in place
        n, sizes = 9, [256, 256, 88]
        seen = []

        def kernel(s):
            seen.append(s.copy())
            np.negative(s, out=s)

        _sweep(GAUSS, n, sum(sizes), stream, "test.sweep", kernel, shards)
        walks = np.concatenate([
            np.cumsum(stream.substream("test.sweep", b).normal(0.0, 1.0, (rows, n)), axis=1)
            for b, rows in enumerate(sizes)])
        got = np.concatenate(seen)
        assert not got[:, 0].any()
        assert sorted_rows(got[:, 1:]).tobytes() == sorted_rows(walks).tobytes()

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("spec, draw", [
        (GAUSS, lambda gen, shape: gen.normal(0.0, 1.0, shape)),
        (EnvironmentSpec.uniform_symmetric(1.5), lambda gen, shape: gen.uniform(-1.5, 1.5, shape)),
        (EnvironmentSpec.two_point(0.7),
         lambda gen, shape: (2 * gen.integers(0, 2, shape) - 1.0) * 0.7),
    ], ids=["gaussian", "uniform", "twopoint"])
    def test_row_slabs_draw_each_block_as_one_walk(self, stream, monkeypatch, spec, draw,
                                                   shards):
        # 100-row slabs: each full block runs as 100 + 100 + 56 rows and the
        # short last block of 188 as 100 + 88, each drawn into a fresh
        # increment array from the block's one generator and cumsummed into
        # one thread's walk buffer
        n, sizes = 9, [256, 256, 188]
        monkeypatch.setattr(estimators, "_SLAB_BYTES", 100 * 8 * (n + 1))
        seen = []

        def kernel(s):
            seen.append(s.copy())
            np.negative(s, out=s)

        _sweep(spec, n, sum(sizes), stream, "test.slabs", kernel, shards)
        walks = np.concatenate([np.cumsum(draw(stream.substream("test.slabs", b), (rows, n)),
                                          axis=1) for b, rows in enumerate(sizes)])
        assert sorted(len(s) for s in seen) == sorted([100, 100, 56] * 2 + [100, 88])
        got = np.concatenate(seen)
        assert sorted_rows(got[:, 1:]).tobytes() == sorted_rows(walks).tobytes()


class TestSweepSums:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_chunks_and_threads_change_no_bit(self, stream, monkeypatch, shards):
        # 100-row slabs into 400-row buffers (two keys share an 800-value
        # budget): each thread reduces a chunk before a slab would overflow
        # it, and its last rows after the sweep.  Two-point steps tie, so
        # "argmax" must give the first index of each row's maximum.
        n, m = 9, 700
        monkeypatch.setattr(estimators, "_SLAB_BYTES", 100 * 8 * (n + 1))
        monkeypatch.setattr(estimators, "_COLUMN_CHUNK", 800)
        chunks = []

        def chunk_stage(rows):
            chunks.append((len(rows[n]), rows["argmax"].dtype))
            return {"end": MCEstimate.from_values(rows[n]),
                    "tau": Counter(rows["argmax"].tolist())}

        got = estimators._sweep_sums(FAMILIES["twopoint"], n, m, stream, "test.sums", shards,
                                     True, (n, "argmax", n), chunk_stage)
        walks = np.concatenate([np.cumsum(
            (2 * stream.substream("test.sums", b).integers(0, 2, (rows, n)) - 1.0) * 0.7, axis=1)
            for b, rows in enumerate([256, 256, 188])])
        assert got["end"] == MCEstimate.from_values(-walks[:, -1])
        assert got["tau"] == Counter(np.argmax(-np.hstack([np.zeros((m, 1)), walks]),
                                               axis=1).tolist())
        assert sum(rows for rows, _ in chunks) == m
        assert all(rows <= 400 and dtype == np.intp for rows, dtype in chunks)
        if shards == 1:
            assert [rows for rows, _ in chunks] == [356, 344]


def record_chunk_rows(monkeypatch):
    """Route estimators._sweep_sums through a wrapper; the returned list gets each chunk's rows."""
    seen, sweep_sums = [], estimators._sweep_sums

    def recording(*args):
        *head, chunk_stage = args

        def stage(rows):
            seen.append(len(next(iter(rows.values()))))
            return chunk_stage(rows)
        return sweep_sums(*head, stage)
    monkeypatch.setattr(estimators, "_sweep_sums", recording)
    return seen


# Each estimator with a chunk stage of its own, at n = 16; each sweep reads
# fewer than 12 keys, so the row cap sets its chunks
CHUNK_M = 3 * 8192 + 100
CHUNK_STAGES = {
    "theta": lambda stream, shards: estimate_theta(GAUSS, END3, 16, [0.0, 0.3, 0.9, 1.0], CHUNK_M,
                                                   stream, shards),
    "lambda": lambda stream, shards: estimate_lambda(GAUSS, RegimeRule.proportional(0.5), 16,
                                                     NINE_BETAS, CHUNK_M, stream, shards),
    "duality": lambda stream, shards: duality_check(GAUSS, RegimeRule.fixed_i(8), 16, NINE_BETAS,
                                                    CHUNK_M, stream, shards),
    "strata": lambda stream, shards: strata_decomposition(GAUSS, RegimeRule.fixed_i(4), 16, 1.0, 2,
                                                          CHUNK_M, stream, shards),
    "strata-inf": lambda stream, shards: strata_decomposition(
        GAUSS, RegimeRule.fixed_i(4), 16, math.inf, 2, CHUNK_M, stream, shards),
}


class TestChunkStages:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("name", sorted(CHUNK_STAGES))
    def test_one_block_chunks_change_no_bit(self, stream, monkeypatch, name, shards):
        # 8192-row chunks at the default cap (some thread fills one, and a
        # short one follows), 256-row chunks with the cap at one block
        seen = record_chunk_rows(monkeypatch)
        whole = CHUNK_STAGES[name](stream, shards)
        default = seen[:]
        seen.clear()
        monkeypatch.setattr(estimators, "_CHUNK_ROWS", estimators._SWEEP_BLOCK)
        assert CHUNK_STAGES[name](stream, shards) == whole
        assert max(default) == 8192 and max(seen) == estimators._SWEEP_BLOCK
        assert sum(seen) == sum(default) == CHUNK_M * (2 if name == "duality" else 1)


def arcsine_law(n):
    """P(the first maximum of S_0..S_n falls at k) = u_k u_{n-k}, u_k = C(2k, k)/4^k.

    Sparre Andersen's discrete arcsine law, the same for every continuous
    symmetric step law (Feller, Vol. II, ch. XII).
    """
    r = np.arange(1, n + 1)
    u = np.concatenate([[1.0], np.cumprod((2 * r - 1) / (2 * r))])
    return u * u[::-1]


def merged_windows(observed, expected, least=5.0):
    """Merge each window into the one before it until every window expects at least `least`."""
    obs, exp = [], []
    for o, e in zip(observed, expected):
        if exp and exp[-1] < least:
            obs[-1], exp[-1] = obs[-1] + o, exp[-1] + e
        else:
            obs.append(o)
            exp.append(e)
    if len(exp) > 1 and exp[-1] < least:
        obs[-2:], exp[-2:] = [sum(obs[-2:])], [sum(exp[-2:])]
    return np.array(obs, dtype=float), np.array(exp)


class TestArcsineLaw:
    # production draws, slabs, cumsum, shard merge and buffers at n = 64 (one
    # slab per block), 5000 (52-row slabs) and 65 536 (3-row slabs), against
    # an exact law: the share of first maxima in each decile and in the
    # cells 0, 1, n - 1 and n, chi-squared at its 0.1 % point
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("n, m", [(64, 100_000), (5000, 4000), (65536, 512)])
    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_first_maximum_follows_the_discrete_arcsine_law(self, family, n, m, shards):
        counts = estimators._sweep_sums(
            FAMILIES[family], n, m, RngStream(20260), f"test.arcsine:n={n}", shards, False,
            ("argmax",), lambda rows: {"tau": np.bincount(rows["argmax"], minlength=n + 1)})
        law = arcsine_law(n)
        assert math.isclose(math.fsum(law), 1.0, rel_tol=1e-12)
        edges = sorted({0, 1, 2, n - 1, n, n + 1} | {k * n // 10 for k in range(1, 10)})
        obs, exp = merged_windows(
            [counts["tau"][lo:hi].sum() for lo, hi in zip(edges, edges[1:])],
            [m * math.fsum(law[lo:hi]) for lo, hi in zip(edges, edges[1:])])
        stat = float(np.sum((obs - exp) ** 2 / exp))
        assert counts["tau"].sum() == m and len(edges) == 15
        assert stat < chi2.ppf(0.999, len(obs) - 1), (stat, len(obs))


def peaks(run, sizes, warm=300):
    """tracemalloc peak of run(m) for each m, after one small run run(warm) that warms up."""
    run(warm)
    return [traced_peak(run, m)[1] for m in sizes]


def count_sweeps(monkeypatch):
    """Route estimators._sweep through a wrapper; the returned list gets each sweep's n."""
    calls = []

    def counting_sweep(*args, **kwargs):
        calls.append(args[1])
        return _sweep(*args, **kwargs)
    monkeypatch.setattr(estimators, "_sweep", counting_sweep)
    return calls


class TestEventProb:
    def test_grid_points_are_positive_integers(self, stream, monkeypatch):
        # 16.9 is refused, not read as n = 16; numpy integers stay accepted
        calls = count_sweeps(monkeypatch)
        for bad in (16.9, 16.0, True, 0):
            with pytest.raises(DomainError, match=f"grid point n must be a positive integer, "
                                                  f"got {bad!r}"):
                estimate_event_prob_grid(GAUSS, RegimeRule.end_window(3), [bad], 1000, stream, 1)
        assert calls == []  # refused before the sweep
        (got,) = estimate_event_prob_grid(GAUSS, RegimeRule.end_window(3), [np.int64(16)], 1000,
                                          stream, 1)
        assert type(got.n) is int
        assert got == estimate_event_prob_grid(GAUSS, RegimeRule.end_window(3), [16], 1000,
                                               stream, 1)[0]

    def test_one_step_symmetry(self, stream):
        # E[1/(1+e^{-X})] = 1/2 for symmetric X; quadrature agrees
        res = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(0), [1], 100_000, stream)[0]
        quad_val, _ = quad(
            lambda x: 1.0 / (1.0 + math.exp(-x)) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -10, 10)
        assert quad_val == pytest.approx(0.5, abs=1e-9)
        assert abs(res.estimate.mean - 0.5) <= 3 * res.estimate.stderr

    def test_disjoint_sum_below_one(self, stream):
        n = 6
        total, var = 0.0, 0.0
        for i in range(n):
            res = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(i), [n], 20_000, stream)[0]
            total += res.estimate.mean
            var += res.estimate.stderr**2
        assert total <= 1.0 + 3 * math.sqrt(var)

    def test_flat_degenerate_is_deterministic(self, stream):
        res = estimate_event_prob_grid(FLAT, RegimeRule.fixed_i(2), [6], 500, stream)[0]
        w = build_walk(EnvironmentPath(np.zeros(6)))
        assert res.estimate.mean == pytest.approx(cond_event_prob(w, 2, 6).value, rel=1e-12)
        assert res.estimate.stderr == 0.0

    def test_grid_swept_once_in_any_chunking(self, stream, monkeypatch):
        # one sweep at n_max serves an unsorted grid with a repeated point, and
        # 40-row slabs in one-block chunks (a 100-value budget over 13 keys is
        # below a block) on two threads give the same estimates
        grid = [64, 8, 16, 32, 16]
        whole = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(2), grid, 300, stream)
        calls = count_sweeps(monkeypatch)
        monkeypatch.setattr(estimators, "_SLAB_BYTES", 40 * 8 * 65)
        monkeypatch.setattr(estimators, "_COLUMN_CHUNK", 100)
        chunked = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(2), grid, 300, stream,
                                           shards=2)
        assert calls == [64]
        assert chunked == whole
        assert [r.n for r in chunked] == grid

    def test_grid_memory_flat_in_m(self, stream):
        # 19 buffered inputs of 5173 rows and the chunk stage's temporaries
        # peak at about 1.2 MiB at both sizes; nothing is held per block
        low, high = peaks(lambda m: estimate_event_prob_grid(
            GAUSS, RegimeRule.fixed_i(0), [1, 2, 4, 8, 16, 32], m, stream, shards=1),
            [10**5, 10**6])
        assert max(low, high) <= 3 * 2**20, (low, high)
        assert abs(high - low) <= 2**14, (low, high)

    def test_long_grid_working_set_holds_two_slab_arrays(self, stream):
        # the benchmark's scaling grid: at n = 8192 a slab of 31 rows is 2 MiB
        # of walk, and the walk and the exponentials peak at about 4.25 MiB
        # with the 24 buffered inputs; an idle increment buffer beside them
        # peaked at about 6.19 MiB
        (peak,) = peaks(lambda m: estimate_event_prob_grid(
            GAUSS, RegimeRule.end_window(3), [256, 512, 1024, 2048, 4096, 8192], m, stream,
            shards=1), [2000])
        assert peak <= 5 * 2**20, peak

    def test_buffers_never_shorter_than_a_block(self, stream, monkeypatch):
        # 128 points read 385 inputs: the budget alone gives 255 rows, and a
        # slab at n = 128 holds 256; neither shards nor a small budget change a
        # record, and the buffers of one block stay under the 3 MiB bound above
        def run(m, shards):
            return estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(0), range(1, 129), m,
                                            stream, shards)
        whole = run(700, 1)
        assert run(700, 2) == whole
        monkeypatch.setattr(estimators, "_COLUMN_CHUNK", 1000)
        assert run(700, 2) == whole
        monkeypatch.undo()
        assert max(peaks(lambda m: run(m, 1), [1000])) <= 3 * 2**20

    def test_grid_point_is_the_prefix_walk_value(self, stream):
        # the n = 8 point of an n_max = 16 grid reads the first 8 steps of each walk
        grid = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(2), [8, 16], 300, stream)
        x = np.concatenate([stream.substream("prob:fixed_i(2):n=16", b).normal(0.0, 1.0, (rows, 16))
                            for b, rows in enumerate([256, 44])])
        direct = [cond_event_prob(build_walk(EnvironmentPath(row[:8])), 2, 8).value for row in x]
        assert grid[0].estimate.mean == pytest.approx(float(np.mean(direct)), rel=1e-12)


class TestTheta:
    def test_m_samples_is_a_positive_integer(self, stream):
        for bad in (1000.0, True):
            with pytest.raises(DomainError, match=f"m_samples must be a positive integer, "
                                                  f"got {bad!r}"):
                estimate_theta(GAUSS, END3, 16, [0.5], bad, stream, 1)
        assert (estimate_theta(GAUSS, END3, 16, [0.5], np.int64(1000), stream, 1)
                == estimate_theta(GAUSS, END3, 16, [0.5], 1000, stream, 1))

    def test_exact_endpoints_and_monotone(self, stream):
        results = estimate_theta(GAUSS, END3, 64, [0.0, 0.25, 0.5, 0.75, 1.0], 20_000, stream)
        assert results[0].value == 0.0 and results[0].stderr == 0.0
        assert results[-1].value == 1.0 and results[-1].stderr == 0.0
        assert [r.param for r in results] == [0.0, 0.25, 0.5, 0.75, 1.0]
        thetas = [r.value for r in results]
        assert all(a <= b for a, b in zip(thetas, thetas[1:]))
        assert all(0.0 <= t <= 1.0 for t in thetas)

    def test_stability_across_n(self, stream):
        a = estimate_theta(GAUSS, END3, 256, [0.5], 20_000, stream)[0]
        b = estimate_theta(GAUSS, END3, 512, [0.5], 20_000, stream)[0]
        band = 3.0 * math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= band

    def test_unreliable_denominator_raises(self, stream):
        with pytest.raises(UnreliableRatioError):
            estimate_theta(GAUSS, END3, 2048, [0.5], 40, stream)


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

    def test_nine_beta_working_set_bounded(self, stream):
        # the benchmark's grid at n = 256: six buffered columns of 8192 rows,
        # the slab arrays and the chunk stage peak at about 1.8 MiB after a
        # warm-up (a cold first call adds about 0.7 MiB of one-time state; at
        # n = 256, 300 samples leave the denominator indistinguishable from zero);
        # columns per beta and block (one per beta plus the denominator)
        # peaked at about 4.9 MB
        (peak,) = peaks(lambda m: estimate_lambda(
            GAUSS, RegimeRule.proportional(0.5), 256, NINE_BETAS, m, stream, shards=1),
            [20_000], warm=2000)
        assert peak <= 4 * 2**20, peak

    def test_nine_beta_working_set_holds_two_slab_arrays(self, stream):
        # the run above, bounded near its working set: the walk and the
        # exponentials (each 0.5 MiB at 256 x 257 doubles) with no increment
        # buffer beside them, and chunks of 8192 rows; an idle increment
        # buffer and 16 384-row chunks peaked at about 3.45 MiB
        (peak,) = peaks(lambda m: estimate_lambda(
            GAUSS, RegimeRule.proportional(0.5), 256, NINE_BETAS, m, stream, shards=1),
            [20_000], warm=2000)
        assert peak <= 2.25 * 2**20, peak

    @pytest.mark.parametrize("betas", [NINE_BETAS, [1.0]], ids=["nine", "one"])
    def test_benchmark_size_working_set_bounded(self, stream, betas):
        # the benchmark's lst at n = 256 and M = 100 000 peaks at about 2.4 MiB
        # (nine beta or one) as a fresh process's first call, 4.1 MiB with an
        # idle increment buffer and 16 384-row chunks; six gathered M-row
        # columns and whole-column sums peaked at about 8.4 MiB
        _, peak = traced_peak(estimate_lambda, GAUSS, RegimeRule.proportional(0.5), 256, betas,
                              100_000, stream, shards=1)
        assert peak <= 9 * 2**20, peak

    def test_nine_beta_memory_flat_in_m(self, stream):
        # about 1.3 MiB at both sizes; see test_grid_memory_flat_in_m
        low, high = peaks(lambda m: estimate_lambda(
            GAUSS, RegimeRule.proportional(0.5), 16, NINE_BETAS, m, stream, shards=1),
            [10**5, 10**6])
        assert max(low, high) <= 9 * 2**20, (low, high)
        assert abs(high - low) <= 2**17, (low, high)

    def test_beta_domain(self, stream):
        with pytest.raises(DomainError):
            estimate_lambda(GAUSS, RegimeRule.fixed_i(0), 8, [0.0], 100, stream)

    def test_n_is_an_integer(self, stream):
        with pytest.raises(DomainError, match="observation time n must be a positive integer, "
                                              "got 16.5"):
            estimate_lambda(GAUSS, RegimeRule.end_window(3), 16.5, [1.0], 1000, stream, 1)


def synthetic_points(slope, n_values, m, seed):
    rng = np.random.default_rng(seed)
    points = []
    for n in n_values:
        target = 3.0 * float(n)**slope
        vals = target * rng.lognormal(-0.125, 0.5, m)
        points.append(EventProbResult(n=n, i=0, estimate=MCEstimate.from_values(vals)))
    return points


class TestScaling:
    def test_synthetic_slope_recovery(self):
        points = synthetic_points(-1.5, [64, 128, 256, 512, 1024], 40_000, seed=11)
        fit = fit_scaling_points(points, RegimeRule.fixed_i(0))
        assert abs(fit.slope - (-1.5)) <= 2.0 * fit.slope_stderr

    def test_one_sweep_per_study(self, stream, monkeypatch):
        calls = count_sweeps(monkeypatch)
        scaling_study(GAUSS, RegimeRule.end_window(3), [256, 32, 64, 128], 600, stream)
        assert calls == [256]

    def test_slope_stderr_honest_under_shared_walks(self):
        # the grid points share environments; the independent-points WLS
        # standard error must still match the seed-to-seed spread of the slope
        slopes, stderrs = [], []
        for seed in range(100):
            fit = scaling_study(GAUSS, RegimeRule.end_window(3), [32, 64, 128, 256], 2000,
                                RngStream(900_000 + seed))
            slopes.append(fit.slope)
            stderrs.append(fit.slope_stderr)
        ratio = float(np.std(slopes, ddof=1)) / float(np.median(stderrs))
        assert 0.8 <= ratio <= 1.3, ratio

    def test_grid_validation(self, stream):
        with pytest.raises(DomainError):
            scaling_study(GAUSS, RegimeRule.end_window(3), [16, 32, 64], 100, stream)

    def test_grid_points_are_integers(self, stream, monkeypatch):
        calls = count_sweeps(monkeypatch)
        with pytest.raises(DomainError, match="grid point n must be a positive integer, "
                                              "got 128.5"):
            scaling_study(GAUSS, RegimeRule.end_window(3), [16, 32, 64, 128.5], 100, stream)
        assert calls == []

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

    def test_end_window_smoke(self, stream):
        fit = scaling_study(GAUSS, RegimeRule.end_window(3), [32, 64, 128, 256], 20_000, stream)
        assert -0.8 <= fit.slope <= -0.2
        assert len(fit.ratios) == len(fit.points) - 1
        assert fit.plateau > 0


class TestDuality:
    def test_n_is_an_integer(self, stream):
        with pytest.raises(DomainError, match="observation time n must be a positive integer, "
                                              "got 16.0"):
            duality_check(GAUSS, RegimeRule.fixed_i(3), 16.0, [1.0], 1000, stream, 1)

    def test_flat_degenerate_exact(self, stream):
        (res,) = duality_check(FLAT, RegimeRule.fixed_i(2), 6, [1.0], 200, stream)
        assert res.h_form.mean == res.v_form.mean
        assert res.z_score == 0.0

    def test_forms_differing_without_error_refused(self):
        # at this seed both samples of each form share one walk step, so both
        # standard errors vanish while the two means differ: no finite z exists
        with pytest.raises(NumericalFailureError, match="zero standard error"):
            duality_check(EnvironmentSpec.two_point(0.7), RegimeRule.fixed_i(0), 1, [1.0], 2,
                          RngStream(1))

    def test_agreement_small_case(self, stream):
        (res,) = duality_check(GAUSS, RegimeRule.fixed_i(12), 16, [1.0], 50_000, stream)
        assert abs(res.z_score) <= 4.0

    def test_infinite_beta_matches_event_prob(self, stream):
        (res,) = duality_check(GAUSS, RegimeRule.fixed_i(12), 16, [math.inf], 50_000, stream)
        prob = estimate_event_prob_grid(GAUSS, RegimeRule.fixed_i(12), [16], 50_000, stream)[0]
        z = abs(res.v_form.mean - prob.estimate.mean) / math.hypot(
            res.v_form.stderr, prob.estimate.stderr)
        assert z <= 4.0


class TestStrata:
    def test_masses_partition_exactly(self, stream):
        rep = strata_decomposition(GAUSS, RegimeRule.fixed_i(48), 64, 1.0, 3, 10_000, stream)
        total = rep.early.sum + rep.middle.sum + rep.before_j.sum + rep.after_j.sum
        assert total == rep.total.sum  # exact rational identity
        masses = (rep.early.mean, rep.middle.mean, rep.before_j.mean, rep.after_j.mean)
        assert rep.total.mean == pytest.approx(sum(masses), abs=0.0)

    def test_window_validation(self, stream):
        with pytest.raises(DomainError):
            # N >= j/2
            strata_decomposition(GAUSS, RegimeRule.fixed_i(48), 64, 1.0, 8, 100, stream)

    def test_window_is_an_integer(self, stream):
        with pytest.raises(DomainError, match="strata window N must be a positive integer, "
                                              "got 2.5"):
            strata_decomposition(GAUSS, RegimeRule.fixed_i(48), 64, 1.0, 2.5, 100, stream)

    def test_middle_mass_shrinks_with_window(self, stream):
        wide = strata_decomposition(GAUSS, RegimeRule.fixed_i(192), 256, 1.0, 5, 20_000, stream)
        narrow = strata_decomposition(GAUSS, RegimeRule.fixed_i(192), 256, 1.0, 20, 20_000, stream)
        assert narrow.middle.mean < wide.middle.mean


WALK8 = build_walk(EnvironmentPath(np.linspace(-1.0, 1.0, 8)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda s: h_functional(WALK8, 1.0, 4, 0.5), id="h_functional"),
    pytest.param(lambda s: cond_event_prob(WALK8, 1.0, 4), id="cond_event_prob"),
    pytest.param(lambda s: RegimeRule.end_window(3).clan_index(16.5), id="regime"),
])
def test_float_clan_index_refused_before_drawing(call, monkeypatch):
    drawn = []
    substream = RngStream.substream

    def counting(self, *args, **kwargs):
        drawn.append(args)
        return substream(self, *args, **kwargs)
    monkeypatch.setattr(RngStream, "substream", counting)
    with pytest.raises(DomainError):
        call(RngStream(1))
    assert drawn == []


def simulate_conditional_transform(spec, i, n, beta, m_reps, stream):
    """Rejection-route oracle for the conditional Laplace transform.

    Draws a fresh environment per replicate, runs the individual-based
    process, and averages e^{-beta Y} over replicates where only clan i
    survives, with Y the end-rescaled clan size.  Purely definitional, no
    closed forms anywhere.
    """
    from clanmc.env_model import draw_increments, offspring_params

    gen = stream.substream("test.rejection_oracle", 0)
    x = draw_increments(spec, gen, np.empty((m_reps, n)))
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



# Reference routes: the per-block kernels that evaluated every grid point's
# closed form inside each 256-row block, on 256-element columns, and reduced
# whole M-row columns; the cross sums come from Fractions.


def block_walks(spec, n, m_samples, stream, purpose):
    """The walks a sweep draws, one (rows, n + 1) array per block of the substream (purpose, b)."""
    block = estimators._SWEEP_BLOCK
    for b, lo in enumerate(range(0, m_samples, block)):
        rows = min(block, m_samples - lo)
        x = draw_increments(spec, stream.substream(purpose, b), np.empty((rows, n)))
        yield np.hstack([np.zeros((rows, 1)), np.cumsum(x, axis=1)])


def per_block_transform(spec, i, n, params, m_samples, stream, purpose, log_cols):
    """_estimate_transform with every grid point's column computed per block."""
    den, nums = [], []
    for s_mat in block_walks(spec, n, m_samples, stream, purpose):
        neg = estimators._ExpRows(-s_mat)
        den.append(np.exp(estimators._log_event_prob_cols(neg, i, n)))
        nums.append([np.exp(log_cols(neg, i, n, p)) for p in params])
    den = np.concatenate(den)
    den_est = MCEstimate.from_values(den)
    assert den_est.mean > 3.0 * den_est.stderr
    results = []
    for k, p in enumerate(params):
        num = np.concatenate([cols[k] for cols in nums])
        sum_xy = sum(Fraction(x) * Fraction(y) for x, y in zip(num.tolist(), den.tolist()))
        ratio, se = ratio_with_stderr(MCEstimate.from_values(num), den_est, sum_xy)
        results.append(TransformResult(n=n, i=i, param=p, value=1.0 - ratio, stderr=se,
                                       count=den.size))
    return results


def per_block_theta(spec, end_window, n, s_values, m_samples, stream):
    return per_block_transform(spec, n - end_window, n, s_values, m_samples, stream,
                               f"theta:N={end_window}:n={n}", estimators._log_h_cols)


def per_block_lambda(spec, rule, n, betas, m_samples, stream):
    return per_block_transform(spec, rule.clan_index(n), n, betas, m_samples, stream,
                               f"lambda:{rule.describe()}:n={n}", estimators._log_yaglom_cols_from)


def per_block_duality(spec, i, n, betas, m_samples, stream):
    j = n - i
    h_cols = [[np.exp(estimators._log_yaglom_cols_from(estimators._ExpRows(-s_mat), i, n, b))
               for b in betas]
              for s_mat in block_walks(spec, n, m_samples, stream, f"duality.h:n={n}:i={i}")]
    v_cols = [[np.exp(estimators._log_v_cols_from(estimators._ExpRows(s_mat), j, n, b))
               for b in betas]
              for s_mat in block_walks(spec, n, m_samples, stream, f"duality.v:n={n}:i={i}")]
    results = []
    for k, beta in enumerate(betas):
        h_est = MCEstimate.from_values(np.concatenate([cols[k] for cols in h_cols]))
        v_est = MCEstimate.from_values(np.concatenate([cols[k] for cols in v_cols]))
        se = math.hypot(h_est.stderr, v_est.stderr)
        diff = h_est.mean - v_est.mean
        z = 0.0 if diff == 0.0 else diff / se
        results.append(DualityResult(i=i, n=n, beta=beta, h_form=h_est, v_form=v_est,
                                     z_score=z))
    return results


class TestTransformsMatchPerBlockKernels:
    # 700 samples: two full blocks and a short last one
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_theta(self, family, shards, stream):
        spec, s_values = FAMILIES[family], [0.0, 0.5, 1.0]
        got = estimate_theta(spec, END3, 40, s_values, 700, stream, shards)
        assert got == per_block_theta(spec, 3, 40, s_values, 700, stream)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_lambda(self, family, shards, stream):
        spec, rule = FAMILIES[family], RegimeRule.fixed_i(12)
        got = estimate_lambda(spec, rule, 40, NINE_BETAS, 700, stream, shards)
        assert got == per_block_lambda(spec, rule, 40, NINE_BETAS, 700, stream)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_duality(self, family, shards, stream):
        spec = FAMILIES[family]
        got = duality_check(spec, RegimeRule.fixed_i(20), 40, NINE_BETAS, 700, stream, shards)
        assert got == per_block_duality(spec, 20, 40, NINE_BETAS, 700, stream)
