"""Exact environment-conditional clan-survival formulas.

Geometric offspring laws compose as fractional-linear maps, so the
composition of a whole stretch of generations collapses to a ratio of
exponential prefix sums of the associated walk.  This module carries both
routes: brute-force folds over the per-generation generating functions
(the oracles) and the closed forms in log domain (the production path).
The closed forms are written once, as the batched kernels of
`estimators`; the scalar functions here evaluate them on one walk.  The
rules around them live there too: `estimators._log1ms` is the one
log(1 - s) (-inf at s = 1, so survival_closed(..., 1) is the exact zero)
and `estimators._log_h_cols` decides the h(s) endpoints.  Clan indices and
counts are checked by `errors.check_index` and `errors.check_count`.

Conventions, for the walk S_0..S_n (an array) built from the environment X_1..X_n:
  survival complement   1 - F_{i,n}(s) = e^{-S_i} / (e^{-S_n}/(1-s) + sum_{k=i}^{n-1} e^{-S_k})
  extinction step       F_{i,n}(0)     = tail_{i+1} / tail_i,  tail_i = sum_{k=i}^{n} e^{-S_k}
  only-surviving-clan   h(s) = (1 - F_{i,n}(s)) * prod_{j != i} F_{j,n}(0), evaluated
                        as three log-domain ratios, never in linear scale.
The dual form evaluates the same expectation through the reflected walk
with j = n - i playing the role of i.
"""

from __future__ import annotations

import math

import numpy as np

from .env_model import EnvironmentPath, pgf_eval
from .errors import DomainError, check_count, check_index
from .estimators import (_ExpRows, _log1ms, _log_event_prob_cols, _log_extinction_cols,
                         _log_h_cols, _log_survival_cols, _log_v_cols_from,
                         _log_yaglom_cols_from)
from .logdomain import LogValue


def compose_pgf_bruteforce(path: EnvironmentPath, i: int, n: int, s: float) -> float:
    """Right-to-left fold of the per-generation generating functions.

    Evaluates the composition of generations i+1..n at s; i = n returns s.
    This is the oracle the closed forms are tested against.
    """
    check_index("observation time n", n, path.n + 1)
    check_index("clan index i", i, n + 1)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    t = s
    for k in range(n, i, -1):
        t = pgf_eval(math.exp(path.x[k - 1]), t)
    return t


def survival_bruteforce(x: np.ndarray, i: int, n: int, s: float) -> float:
    """1 - F_{i,n}(s) by folding the complement u -> m u / (1 + m u) from u = 1 - s.

    The same geometric generating functions as compose_pgf_bruteforce,
    written without forming 1 - F, so a tiny survival keeps full relative
    precision.  x holds a path's increments (EnvironmentPath.x).
    """
    check_index("observation time n", n, len(x) + 1)
    check_index("clan index i", i, n + 1)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    u = 1.0 - s
    for k in range(n, i, -1):
        mu = math.exp(x[k - 1]) * u
        u = mu / (1.0 + mu)
    return u


def _neg_row(w: np.ndarray, i: int, n: int) -> _ExpRows:
    """-S_0..-S_n as a one-row _ExpRows, after checking 0 <= i < n <= walk length."""
    check_index("observation time n", n, w.size)
    check_index("clan index i", i, n)
    return _ExpRows(-w[None, :n + 1])


def _first(cols: np.ndarray) -> LogValue:
    return LogValue.from_log(float(cols[0]))


def survival_closed(w: np.ndarray, i: int, n: int, s: float) -> LogValue:
    """Closed form of 1 - F_{i,n}(s) in log domain; s = 1 returns the exact zero."""
    return _first(_log_survival_cols(_neg_row(w, i, n), i, n, _log1ms(s)))


def extinction_step(w: np.ndarray, i: int, n: int) -> LogValue:
    """F_{i,n}(0) as the log-domain ratio of adjacent tail sums."""
    return LogValue.from_log(extinction_step_log(w, i, n))


def extinction_step_log(w: np.ndarray, i: int, n: int) -> float:
    """log F_{i,n}(0)."""
    return float(_log_extinction_cols(_neg_row(w, i, n), i, n)[0])


def h_functional(w: np.ndarray, i: int, n: int, s: float) -> LogValue:
    """The only-surviving-clan functional h_{i,n}(s), all factors in log domain.

    h(1) = 0 exactly; h(0) is the conditional probability that exactly the
    clan founded at generation i is alive at n.
    """
    return _first(_log_h_cols(_neg_row(w, i, n), i, n, s))


def cond_event_prob(w: np.ndarray, i: int, n: int) -> LogValue:
    """P(only the clan of generation i survives at n | environment)."""
    return _first(_log_event_prob_cols(_neg_row(w, i, n), i, n))


def v_functional(w_reflected: np.ndarray, j: int, n: int, beta: float) -> LogValue:
    """The dual (time-reversed) clan functional, evaluated on the reflected walk -S.

    With j = n - i, its expectation over environments equals that of the
    Laplace-point functional h_{i,n}(exp(-beta a_{i,n})).  beta = inf is a
    first-class case and reduces to the product of the first-step ratio and
    the full prefix weight.
    """
    check_index("observation time n", n, w_reflected.size)
    check_count("dual index j", j)
    check_index("dual index j", j, n + 1)
    if not beta > 0:
        raise DomainError(f"beta must be positive (inf allowed), got {beta}")
    # the kernel takes the walk before reflection
    return _first(_log_v_cols_from(_ExpRows(-w_reflected[None, :n + 1]), j, n, beta))


def yaglom_integrand(w: np.ndarray, i: int, n: int, beta: float) -> LogValue:
    """h_{i,n} evaluated at s = exp(-beta a_{i,n}) without ever forming s.

    The factor 1 - s is taken from -expm1(-beta a_{i,n}) in log domain, so
    precision survives beta * a_{i,n} down to the underflow threshold.
    beta = 0 gives the exact zero (s = 1); beta = inf gives the event
    probability (s = 0).
    """
    neg = _neg_row(w, i, n)
    if not beta >= 0:  # refuses nan too
        raise DomainError(f"beta must be nonnegative, got {beta}")
    if beta == 0:
        return LogValue.zero()
    return _first(_log_yaglom_cols_from(neg, i, n, beta))


# ---------------------------------------------------------------------------
# Reversed-composition product identity (small-i oracle).
#
# Folding the generating functions of the sign-flipped environment in
# reversed order telescopes against the prefix sums of the original walk:
#   prod_{k=1}^{i-1} Fbar_k(Fbar_{k-1}(...Fbar_1(z))) = w / (w + sum_{k=1}^{i-1} e^{-S_k})
# with w = (1 - z)^{-1} and Fbar_k the geometric law with mean e^{-X_k}.
# ---------------------------------------------------------------------------


def _check_product(path: EnvironmentPath, i: int, z: float) -> None:
    """Refuse a product index outside 2 <= i <= path length + 1, or z outside [0, 1)."""
    check_index("product index i", i, path.n + 2)
    if i < 2:
        raise DomainError(f"product index i must be at least 2, got {i}")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"z must lie in [0, 1), got {z}")


def reversed_product_bruteforce(path: EnvironmentPath, i: int, z: float) -> float:
    """prod_{k=1}^{i-1} of reversed compositions under the sign-flipped environment."""
    _check_product(path, i, z)
    out = 1.0
    for k in range(1, i):
        t = z
        for j in range(1, k + 1):
            t = pgf_eval(math.exp(-path.x[j - 1]), t)
        out *= t
    return out


def reversed_product_closed(path: EnvironmentPath, i: int, z: float) -> float:
    """Closed form of the same product from the original walk's prefix sums."""
    _check_product(path, i, z)
    s = np.cumsum(path.x)
    w_weight = 1.0 / (1.0 - z)
    return w_weight / (w_weight + float(np.exp(-s[:i - 1]).sum()))
