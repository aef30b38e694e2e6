import math

import mpmath
import numpy as np
import pytest

from clanmc import DomainError, LogValue
from clanmc.logdomain import log1m_exp_neg_vec


def test_linear_round_trip():
    v = LogValue.from_linear(0.125)
    assert v.value == pytest.approx(0.125, rel=1e-15)
    assert not v.is_zero


def test_zero_flag():
    z = LogValue.zero()
    assert z.is_zero and z.value == 0.0
    assert LogValue.from_linear(0.0).is_zero
    with pytest.raises(DomainError):
        LogValue.from_linear(-1.0)


def test_mul_div_add_closure():
    a = LogValue.from_log(-500.0)
    b = LogValue.from_log(-600.0)
    assert (a * b).log == pytest.approx(-1100.0)
    assert (a / b).log == pytest.approx(100.0)
    # add is max-shifted: far-apart magnitudes keep the dominant log
    assert (a + b).log == pytest.approx(np.logaddexp(-500.0, -600.0))
    assert (a + LogValue.zero()).log == a.log
    assert (LogValue.zero() * a).is_zero
    assert (LogValue.zero() / a).is_zero
    with pytest.raises(DomainError):
        a / LogValue.zero()


def test_add_matches_linear_on_benign_range():
    vals = [0.3, 1.7, 2.9, 0.004]
    acc = LogValue.from_linear(vals[0])
    for v in vals[1:]:
        acc = acc + LogValue.from_linear(v)
    assert acc.value == pytest.approx(sum(vals), rel=1e-14)


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
