"""The log-domain rules: LogValue (exact_fl) and log(1 - e^{-t}) (estimators)."""

import math

import mpmath
import numpy as np
import pytest

from clanmc import (EnvironmentPath, LogValue, build_walk, h_functional, survival_closed,
                    yaglom_integrand)
from clanmc.estimators import log1m_exp_neg_vec


def test_linear_round_trip():
    v = LogValue(math.log(0.125))
    assert v.value == pytest.approx(0.125, rel=1e-15)
    assert v.log > -math.inf


def test_zero_flag():
    z = LogValue(-math.inf)
    assert z.log == -math.inf and z.value == 0.0
    # a log magnitude far below the double range is still a positive value
    tiny = LogValue(-1e4)
    assert tiny.log > -math.inf and tiny.value == 0.0


def test_one_exact_zero():
    # s = 1 and beta = 0 give the same exact zero, log = -inf
    w = build_walk(EnvironmentPath(np.array([0.3, -0.2, 0.5, 0.1])))
    zeros = {survival_closed(w, 1, 4, 1.0), h_functional(w, 1, 4, 1.0),
             yaglom_integrand(w, 1, 4, 0.0)}
    assert zeros == {LogValue(-math.inf)}
    assert LogValue(-math.inf).value == 0.0


@pytest.mark.parametrize("log_t", [-750.0, -300.0, -37.0, -5.0, -1.0, 0.0, 1.0, 3.0, 6.0, 700.0])
def test_log1m_exp_neg_against_mpmath(log_t):
    with mpmath.workdps(300):
        t = mpmath.exp(log_t)
        expected = float(mpmath.log(-mpmath.expm1(-t)))
    got = float(log1m_exp_neg_vec(np.array([log_t]))[0])
    assert got == pytest.approx(expected, rel=1e-12, abs=5e-324)


def test_log1m_exp_neg_vec_matches_scalar():
    # a mixed-branch array gives each element what a one-element call gives it
    xs = np.array([-750.0, -37.0, -1.0, 0.5, 4.0, 700.0])
    vec = log1m_exp_neg_vec(xs)
    for x, v in zip(xs, vec):
        assert v == log1m_exp_neg_vec(np.array([x]))[0]
