"""Exact environment-conditional clan-survival formulas.

Geometric offspring laws compose as fractional-linear maps, so the
composition of a whole stretch of generations collapses to a ratio of
exponential prefix sums of the associated walk.  This module carries both
routes: brute-force folds over the per-generation generating functions
(the oracles) and the closed forms in log domain (the production path).
The closed forms are written once, as the batched kernels of
`estimators`; the scalar functions here evaluate them on one walk.

Conventions, for a walk S built from the environment X_1..X_n:
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

from .assoc_walk import WalkFunctionals
from .env_model import EnvironmentPath, pgf_eval
from .errors import DomainError
from .estimators import (_ExpRows, _log_event_prob_cols, _log_extinction_cols,
                         _log_h_cols_from, _log_survival_cols, _log_v_cols_from,
                         _log_yaglom_cols_from)
from .logdomain import LogValue


def compose_pgf_bruteforce(path: EnvironmentPath, i: int, n: int, s: float) -> float:
    """Right-to-left fold of the per-generation generating functions.

    Evaluates the composition of generations i+1..n at s; i = n returns s.
    This is the oracle the closed forms are tested against.
    """
    _check_window(path.n, i, n)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    t = s
    for k in range(n, i, -1):
        t = pgf_eval(math.exp(path.x[k - 1]), t)
    return t


def survival_bruteforce(path: EnvironmentPath, i: int, n: int, s: float) -> float:
    """1 - F_{i,n}(s) by folding the complement u -> m u / (1 + m u) from u = 1 - s.

    The same geometric generating functions as compose_pgf_bruteforce,
    written without forming 1 - F, so a tiny survival keeps full relative
    precision.
    """
    _check_window(path.n, i, n)
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    u = 1.0 - s
    for k in range(n, i, -1):
        mu = math.exp(path.x[k - 1]) * u
        u = mu / (1.0 + mu)
    return u


def _check_window(length: int, i: int, n: int) -> None:
    if not 0 <= i <= n <= length:
        raise DomainError(f"need 0 <= i <= n <= path length, got i={i}, n={n}, length={length}")


def _check_clan_indices(w: WalkFunctionals, i: int, n: int) -> None:
    if not 0 <= i < n <= w.n:
        raise DomainError(f"need 0 <= i < n <= walk length, got i={i}, n={n}, length={w.n}")


def _log1ms(s: float) -> float | None:
    """log(1 - s); None encodes s = 1 exactly."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    return None if s == 1.0 else math.log1p(-s)


def _row(w: WalkFunctionals, n: int) -> np.ndarray:
    """S_0..S_n as a one-row walk matrix."""
    return w.s[None, :n + 1]


def _first(cols: np.ndarray) -> LogValue:
    return LogValue.from_log(float(cols[0]))


def survival_closed(w: WalkFunctionals, i: int, n: int, s: float) -> LogValue:
    """Closed form of 1 - F_{i,n}(s) in log domain; s = 1 returns the exact zero."""
    _check_clan_indices(w, i, n)
    log1ms = _log1ms(s)
    if log1ms is None:
        return LogValue.zero()
    return _first(_log_survival_cols(_ExpRows(-_row(w, n)), i, n, log1ms))


def extinction_step(w: WalkFunctionals, i: int, n: int) -> LogValue:
    """F_{i,n}(0) as the log-domain ratio of adjacent tail sums."""
    return LogValue.from_log(extinction_step_log(w, i, n))


def extinction_step_log(w: WalkFunctionals, i: int, n: int) -> float:
    """log F_{i,n}(0)."""
    _check_clan_indices(w, i, n)
    return float(_log_extinction_cols(_ExpRows(-_row(w, n)), i, n)[0])


def h_functional(w: WalkFunctionals, i: int, n: int, s: float) -> LogValue:
    """The only-surviving-clan functional h_{i,n}(s), all factors in log domain.

    h(1) = 0 exactly; h(0) is the conditional probability that exactly the
    clan founded at generation i is alive at n.
    """
    _check_clan_indices(w, i, n)
    log1ms = _log1ms(s)
    if log1ms is None:
        return LogValue.zero()
    if log1ms == 0.0:  # s = 0: the (1-s)^{-1} weight drops out
        return cond_event_prob(w, i, n)
    return _first(_log_h_cols_from(_ExpRows(-_row(w, n)), i, n, log1ms))


def cond_event_prob(w: WalkFunctionals, i: int, n: int) -> LogValue:
    """P(only the clan of generation i survives at n | environment)."""
    _check_clan_indices(w, i, n)
    return _first(_log_event_prob_cols(_ExpRows(-_row(w, n)), i, n))


def v_functional(w_reflected: WalkFunctionals, j: int, n: int, beta: float) -> LogValue:
    """The dual (time-reversed) clan functional, evaluated on the reflected walk.

    With j = n - i, its expectation over environments equals that of the
    Laplace-point functional h_{i,n}(exp(-beta a_{i,n})).  beta = inf is a
    first-class case and reduces to the product of the first-step ratio and
    the full prefix weight.
    """
    if not 1 <= j <= n <= w_reflected.n:
        raise DomainError(f"need 1 <= j <= n <= walk length, got j={j}, n={n}")
    if not beta > 0:
        raise DomainError(f"beta must be positive (inf allowed), got {beta}")
    s = -_row(w_reflected, n)  # the kernel takes the walk before reflection
    return _first(_log_v_cols_from(_ExpRows(s), s, j, n, beta))


def yaglom_integrand(w: WalkFunctionals, i: int, n: int, beta: float) -> LogValue:
    """h_{i,n} evaluated at s = exp(-beta a_{i,n}) without ever forming s.

    The factor 1 - s is taken from -expm1(-beta a_{i,n}) in log domain, so
    precision survives beta * a_{i,n} down to the underflow threshold.
    beta = 0 gives the exact zero (s = 1); beta = inf gives the event
    probability (s = 0).
    """
    _check_clan_indices(w, i, n)
    if beta < 0:
        raise DomainError(f"beta must be nonnegative, got {beta}")
    if beta == 0:
        return LogValue.zero()
    s = _row(w, n)
    return _first(_log_yaglom_cols_from(_ExpRows(-s), s, i, n, beta))


# ---------------------------------------------------------------------------
# Reversed-composition product identity (small-i oracle).
#
# Folding the generating functions of the sign-flipped environment in
# reversed order telescopes against the prefix sums of the original walk:
#   prod_{k=1}^{i-1} Fbar_k(Fbar_{k-1}(...Fbar_1(z))) = w / (w + sum_{k=1}^{i-1} e^{-S_k})
# with w = (1 - z)^{-1} and Fbar_k the geometric law with mean e^{-X_k}.
# ---------------------------------------------------------------------------


def reversed_product_bruteforce(path: EnvironmentPath, i: int, z: float) -> float:
    """prod_{k=1}^{i-1} of reversed compositions under the sign-flipped environment."""
    if not 2 <= i <= path.n + 1:
        raise DomainError(f"need 2 <= i <= path length + 1, got i={i}")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"z must lie in [0, 1), got {z}")
    out = 1.0
    for k in range(1, i):
        t = z
        for j in range(1, k + 1):
            t = pgf_eval(math.exp(-path.x[j - 1]), t)
        out *= t
    return out


def reversed_product_closed(path: EnvironmentPath, i: int, z: float) -> float:
    """Closed form of the same product from the original walk's prefix sums."""
    if not 2 <= i <= path.n + 1:
        raise DomainError(f"need 2 <= i <= path length + 1, got i={i}")
    if not 0.0 <= z < 1.0:
        raise DomainError(f"z must lie in [0, 1), got {z}")
    s = np.cumsum(path.x)
    w_weight = 1.0 / (1.0 - z)
    return w_weight / (w_weight + float(np.exp(-s[:i - 1]).sum()))
