"""The oracle checks' batched closed forms and their failure on a nan closed form."""

import math

import numpy as np
import pytest

from clanmc import (EnvironmentPath, RngStream, build_walk, diagnostics, estimators, exact_fl,
                    h_functional, survival_closed)

from conftest import traced_peak


def random_cases(seed, count, max_n):
    """Paths of random length and clans, some flat and some spanning hundreds of log units."""
    gen = np.random.default_rng(seed)
    paths, clans = [], []
    for t in range(count):
        n = int(gen.integers(1, max_n + 1))
        clans.append(int(gen.integers(0, n)))
        sigma = (0.0, 1.0, 3.0, 100.0)[t % 4]  # sigma 100 re-sums far-below slices
        paths.append(EnvironmentPath(gen.normal(0.0, sigma, n)))
    return paths, clans


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestBatchedClosedForms:
    def test_survival_rows_are_the_scalar_calls(self):
        paths, clans = random_cases(5, 600, 20)
        s_values = [(0.0, 0.25, 0.5, 0.9, 0.999)[r % 5] for r in range(len(paths))]
        got = diagnostics._survival_closed_rows([p.x for p in paths], clans, s_values)
        want = [survival_closed(build_walk(p), i, p.n, s).value
                for p, i, s in zip(paths, clans, s_values)]
        assert np.array_equal(bits(got), bits(want))

    def test_h_rows_and_telescoped_steps_are_the_scalar_calls(self):
        paths, clans = random_cases(6, 300, 12)
        s_grid = (0.0, 0.3, 0.5, 0.9)
        h, telescoped = diagnostics._h_closed_rows([p.x for p in paths], clans, s_grid)
        for r, (p, i) in enumerate(zip(paths, clans)):
            w = build_walk(p)
            want = [h_functional(w, i, p.n, s).value for s in s_grid]
            assert np.array_equal(bits(h[r]), bits(want)), r
            fsum = math.fsum(exact_fl.extinction_step_log(w, j, p.n) for j in range(p.n))
            assert bits(telescoped[r]) == bits(fsum), r

    def test_mobius_check_builds_no_path(self, monkeypatch):
        # its increments go to the fold and the walks as drawn
        built = []
        post_init = EnvironmentPath.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)
        monkeypatch.setattr(EnvironmentPath, "__post_init__", counting)
        assert diagnostics.mobius_equivalence_check(RngStream(1)).passed
        assert built == []


def nan_in_one_row(kernel):
    """The kernel with its first call's first row replaced by nan."""
    calls = []

    def patched(*args, **kwargs):
        cols = np.array(kernel(*args, **kwargs), dtype=float)
        if not calls:
            cols[0] = np.nan
        calls.append(1)
        return cols
    return patched


class TestNanFails:
    def test_checks_pass_unpatched(self):
        stream = RngStream(1)
        for check in (diagnostics.mobius_equivalence_check, diagnostics.definitional_h_check,
                      diagnostics.reversed_product_check):
            assert check(stream).passed

    def test_mobius_nan_in_one_tuple(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_log_survival_cols",
                            nan_in_one_row(diagnostics._log_survival_cols))
        result = diagnostics.mobius_equivalence_check(RngStream(1))
        assert not result.passed
        assert result.detail.startswith("max relative deviation nan")

    # estimators._log_h_cols reads the first two; the telescoping sum reads the third
    @pytest.mark.parametrize("owner, kernel", [
        pytest.param(estimators, "_log_h_cols_from", id="_log_h_cols_from"),
        pytest.param(estimators, "_log_event_prob_cols", id="_log_event_prob_cols"),
        pytest.param(diagnostics, "_log_extinction_cols", id="_log_extinction_cols")])
    def test_definitional_nan_in_one_row(self, owner, kernel, monkeypatch):
        monkeypatch.setattr(owner, kernel, nan_in_one_row(getattr(owner, kernel)))
        result = diagnostics.definitional_h_check(RngStream(1))
        assert not result.passed
        assert "nan" in result.detail

    def test_definitional_nan_everywhere(self, monkeypatch):
        monkeypatch.setattr(estimators, "_log_h_cols_from",
                            lambda neg, i, n, log1ms: np.full(neg.a.shape[0], np.nan))
        assert not diagnostics.definitional_h_check(RngStream(1)).passed

    def test_reversed_product_nan_in_one_trial(self, monkeypatch):
        closed, calls = exact_fl.reversed_product_closed, []

        def patched(path, i, z):
            calls.append(1)
            return math.nan if len(calls) == 7 else closed(path, i, z)
        monkeypatch.setattr(exact_fl, "reversed_product_closed", patched)
        result = diagnostics.reversed_product_check(RngStream(1))
        assert not result.passed
        assert result.detail.startswith("max relative deviation nan")


class TestSimulatorCheck:
    def test_working_set_bounded(self):
        # the oracle suite's sizes (250 000 replicates at n = 1, 50 000 at
        # n = 8): each block reduces its 8192-row clan matrix to counts, so
        # one block and its batch temporaries make the peak
        diagnostics.simulator_check(RngStream(1), 10, 10, shards=1)
        result, peak = traced_peak(diagnostics.simulator_check, RngStream(1), 50_000, 250_000,
                                   shards=1)
        assert result.passed
        assert peak <= 1.5 * 2**20, peak
