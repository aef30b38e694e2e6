import math

import mpmath
import numpy as np
import pytest

from clanmc import (DomainError, EnvironmentPath, RngStream, build_walk,
                    compose_pgf_bruteforce, cond_event_prob, extinction_step,
                    h_functional, survival_bruteforce, survival_closed,
                    v_functional, yaglom_integrand)
from clanmc.diagnostics import mobius_equivalence_check
from clanmc.exact_fl import reversed_product_bruteforce, reversed_product_closed


def random_case(seed, n, sigma=1.0):
    x = np.random.default_rng(seed).normal(0.0, sigma, n)
    path = EnvironmentPath(x)
    return path, build_walk(path)


FLAT5 = EnvironmentPath(np.zeros(5))


class TestComposition:
    def test_empty_composition_is_identity(self):
        assert compose_pgf_bruteforce(FLAT5, 3, 3, 0.7) == 0.7

    def test_flat_extinction(self):
        # critical geometric composition hits n/(n+1) at zero
        assert compose_pgf_bruteforce(FLAT5, 0, 5, 0.0) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_complement_fold_matches_fold(self):
        path, _ = random_case(31, 12)
        for s in (0.0, 0.3, 0.8, 1.0):
            direct = 1.0 - compose_pgf_bruteforce(path, 2, 12, s)
            got = survival_bruteforce(path.x, 2, 12, s)
            assert got == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_complement_fold_keeps_tiny_survival(self):
        # a falling walk makes survival ~ 1e-8, where 1 - F keeps only half the digits
        path = EnvironmentPath(np.full(6, -3.0))
        with mpmath.workdps(50):
            u = mpmath.mpf(1) - mpmath.mpf("0.25")
            for x in path.x[::-1]:
                u = mpmath.exp(x) * u / (1 + mpmath.exp(x) * u)
            ref = float(u)
        assert survival_bruteforce(path.x, 0, 6, 0.25) == pytest.approx(ref, rel=1e-14)
        assert survival_closed(build_walk(path), 0, 6, 0.25).value == pytest.approx(ref, rel=1e-12)

    def test_oracle_check_passes_where_complement_cancels(self):
        # master seed 69 draws a tuple with survival 2.5e-8 (n=18, i=0, s=0.25)
        assert mobius_equivalence_check(RngStream(69)).passed


class TestSurvivalClosed:
    def test_flat_value(self):
        w = build_walk(FLAT5)
        assert survival_closed(w, 0, 5, 0.0).value == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_matches_bruteforce_randomly(self):
        for seed in range(25):
            path, w = random_case(200 + seed, 20)
            rng = np.random.default_rng(999 + seed)
            i = int(rng.integers(0, 20))
            n = int(rng.integers(i + 1, 21))
            for s in (0.0, 0.25, 0.5, 0.9):
                direct = 1.0 - compose_pgf_bruteforce(path, i, n, s)
                assert survival_closed(w, i, n, s).value == pytest.approx(direct, rel=1e-10)

    def test_monotone_to_zero_in_s(self):
        _, w = random_case(32, 10)
        vals = [survival_closed(w, 2, 10, s).value for s in np.linspace(0.0, 0.999, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert survival_closed(w, 2, 10, 1.0).is_zero


class TestExtinctionStep:
    def test_flat_one_step(self):
        w = build_walk(EnvironmentPath(np.zeros(1)))
        assert extinction_step(w, 0, 1).value == pytest.approx(0.5, rel=1e-14)

    def test_flat_telescoping(self):
        w = build_walk(EnvironmentPath(np.zeros(4)))
        prod = math.fsum(extinction_step(w, j, 4).log for j in range(4))
        assert math.exp(prod) == pytest.approx(1.0 / 5.0, rel=1e-12)

    def test_complement_is_survival(self):
        _, w = random_case(34, 15)
        for i in range(0, 15, 3):
            lhs = 1.0 - extinction_step(w, i, 15).value
            rhs = survival_closed(w, i, 15, 0.0).value
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestHFunctional:
    def test_flat_hand_values(self):
        w1 = build_walk(EnvironmentPath(np.zeros(1)))
        assert h_functional(w1, 0, 1, 0.0).value == pytest.approx(0.5, rel=1e-12)
        w4 = build_walk(EnvironmentPath(np.zeros(4)))
        assert h_functional(w4, 2, 4, 0.0).value == pytest.approx(0.1, rel=1e-12)

    def test_definitional_product(self):
        # h(s) is the survival complement times every other clan's extinction
        for seed in range(12):
            path, w = random_case(300 + seed, 12)
            rng = np.random.default_rng(1300 + seed)
            n = int(rng.integers(1, 13))
            i = int(rng.integers(0, n))
            for s in (0.0, 0.3, 0.9):
                direct = 1.0 - compose_pgf_bruteforce(path, i, n, s)
                for j in range(n):
                    if j != i:
                        direct *= compose_pgf_bruteforce(path, j, n, 0.0)
                assert h_functional(w, i, n, s).value == pytest.approx(direct, rel=1e-9)

    def test_boundary_values(self):
        _, w = random_case(36, 9)
        assert h_functional(w, 4, 9, 1.0).is_zero
        assert h_functional(w, 4, 9, 0.0).log == cond_event_prob(w, 4, 9).log

    def test_nonincreasing_in_s(self):
        _, w = random_case(37, 14)
        vals = [h_functional(w, 5, 14, s).value for s in np.linspace(0.0, 1.0, 21)]
        assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0


class TestCondEventProb:
    def test_one_step_logistic(self):
        for x in (-0.7, 0.0, 1.3):
            w = build_walk(EnvironmentPath(np.array([x])))
            expected = 1.0 / (1.0 + math.exp(-x))
            assert cond_event_prob(w, 0, 1).value == pytest.approx(expected, rel=1e-12)

    def test_disjoint_events_sum_below_one(self):
        for seed in range(8):
            _, w = random_case(400 + seed, 11)
            total = sum(cond_event_prob(w, i, 11).value for i in range(11))
            assert total <= 1.0 + 1e-12


class TestVFunctional:
    def test_flat_infinite_beta(self):
        w = -build_walk(EnvironmentPath(np.zeros(4)))
        assert v_functional(w, 2, 4, math.inf).value == pytest.approx(0.1, rel=1e-12)

    def test_bounded_by_infinite_beta_and_monotone(self):
        _, w0 = random_case(38, 16)
        w = -w0
        cap = v_functional(w, 5, 16, math.inf).value
        betas = [0.01, 0.1, 1.0, 10.0, 1e4]
        vals = [v_functional(w, 5, 16, b).value for b in betas]
        assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))
        assert all(v <= cap * (1 + 1e-12) for v in vals)

    def test_flat_duality_pointwise(self):
        # a zero-variance environment makes both orientations the same number
        w = build_walk(EnvironmentPath(np.zeros(6)))
        wr = -w
        for beta in (0.3, 1.0, 7.0, math.inf):
            h_side = yaglom_integrand(w, 2, 6, beta)
            v_side = v_functional(wr, 4, 6, beta)
            assert h_side.log == pytest.approx(v_side.log, rel=1e-13)

    def test_domain(self):
        _, w0 = random_case(39, 6)
        w = -w0
        with pytest.raises(DomainError):
            v_functional(w, 0, 6, 1.0)
        with pytest.raises(DomainError):
            v_functional(w, 2, 6, 0.0)
        with pytest.raises(DomainError):
            v_functional(w, 2, 6, -1.0)


class TestYaglomIntegrand:
    def test_beta_limits(self):
        _, w = random_case(40, 10)
        assert yaglom_integrand(w, 3, 10, 0.0).is_zero
        inf_val = yaglom_integrand(w, 3, 10, math.inf)
        assert inf_val.log == cond_event_prob(w, 3, 10).log

    @pytest.mark.parametrize("beta", [-1.0, -math.inf, math.nan])
    def test_beta_domain(self, beta):
        _, w = random_case(40, 10)
        with pytest.raises(DomainError, match="beta must be nonnegative"):
            yaglom_integrand(w, 2, 8, beta)

    def test_monotone_in_beta(self):
        _, w = random_case(41, 12)
        betas = [0.0, 1e-6, 1e-3, 0.1, 1.0, 100.0, math.inf]
        vals = [yaglom_integrand(w, 4, 12, b).value for b in betas]
        assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))

    def test_tiny_exponent_high_precision(self):
        # beta * a_{i,n} = 1e-12 must survive without forming s = 1 - eps
        path, w = random_case(42, 5)
        i, n = 1, 5
        a_in = math.exp(w[i] - w[n])
        beta = 1e-12 / a_in
        got = yaglom_integrand(w, i, n, beta).value
        with mpmath.workdps(60):
            s_vals = [mpmath.mpf(float(v)) for v in w]
            one_ms = -mpmath.expm1(-mpmath.mpf(beta) * mpmath.exp(s_vals[i] - s_vals[n]))
            a_i, a_n = mpmath.exp(-s_vals[i]), mpmath.exp(-s_vals[n])
            b = lambda k: mpmath.fsum(mpmath.exp(-s_vals[r]) for r in range(k))
            f1 = a_i / (a_n / one_ms + b(n) - b(i))
            f2 = (a_n + b(n) - b(i)) / (a_n + b(n) - b(i + 1))
            f3 = a_n / b(n + 1)
            ref = float(f1 * f2 * f3)
        assert got == pytest.approx(ref, rel=1e-6)


class TestReversedProduct:
    def test_identity_small_i(self):
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            i = int(rng.integers(2, 16))
            path = EnvironmentPath(rng.normal(0.0, 1.0, i))
            for z in (0.0, 0.3, 0.7):
                lhs = reversed_product_bruteforce(path, i, z)
                rhs = reversed_product_closed(path, i, z)
                assert lhs == pytest.approx(rhs, rel=1e-10)


EIGHT_STEPS, EIGHT_WALK = random_case(41, 8)
INDEXED_ORACLES = {
    "compose_pgf_bruteforce": lambda i: compose_pgf_bruteforce(EIGHT_STEPS, i, 8, 0.5),
    "survival_bruteforce": lambda i: survival_bruteforce(EIGHT_STEPS.x, i, 8, 0.5),
    "reversed_product_bruteforce": lambda i: reversed_product_bruteforce(EIGHT_STEPS, i, 0.5),
    "reversed_product_closed": lambda i: reversed_product_closed(EIGHT_STEPS, i, 0.5),
    "v_functional": lambda j: v_functional(-EIGHT_WALK, j, 8, 1.0),
}


@pytest.mark.parametrize("index", [3.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", sorted(INDEXED_ORACLES))
def test_oracle_index_must_be_an_integer(name, index):
    # the integer 3 is a valid index of each; 3.0 and True are not integers
    INDEXED_ORACLES[name](3)
    with pytest.raises(DomainError, match="integer"):
        INDEXED_ORACLES[name](index)
