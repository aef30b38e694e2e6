"""Monte Carlo estimators over environments.

Every conditional quantity is a ratio of environment-averaged exact
formulas: the rare survival event never needs to be simulated because its
conditional probability given the environment is available in closed form
(an exact Rao-Blackwellization).  Numerator and denominator of each ratio
share the same sampled environments, and ratio errors carry the covariance
term.  Replicates live in fixed-size blocks with block-keyed substreams, so
results are independent of how many workers run the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .env_model import EnvironmentSpec, draw_increments, validate_spec
from .errors import AssumptionViolationError, DomainError, NumericalFailureError, UnreliableRatioError
from .logdomain import log1m_exp_neg_vec
from .mcstats import MCEstimate, ratio_with_stderr
from .parallel import block_sizes, map_blocks
from .streams import RngStream

_SWEEP_BLOCK = 256
# Smallest relative error a scaling fit weights: 1/rel^2 and the weighted
# sums of log n and log mean stay finite above it.
_MIN_REL_ERR = 1e-150
_TINY = np.finfo(float).tiny  # smallest normal double

TAG_OK = "ok"
TAG_VIOLATED = "assumptions-violated"

FIXED_I = "fixed_i"
END_WINDOW = "end_window"
PROPORTIONAL = "proportional"


@dataclass(frozen=True)
class RegimeRule:
    """Maps an observation time n to the designated immigrant generation i."""

    kind: str
    param: float

    def __post_init__(self):
        if not math.isfinite(self.param):
            raise DomainError(f"regime parameter must be finite, got {self.param}")
        if self.kind == FIXED_I:
            if self.param < 0 or self.param != int(self.param):
                raise DomainError(f"fixed i must be a nonnegative integer, got {self.param}")
        elif self.kind == END_WINDOW:
            if self.param < 1 or self.param != int(self.param):
                raise DomainError(f"end window must be a positive integer, got {self.param}")
        elif self.kind == PROPORTIONAL:
            if not 0.0 < self.param < 1.0:
                raise DomainError(f"proportion must lie in (0, 1), got {self.param}")
        else:
            raise DomainError(f"unknown regime kind {self.kind!r}")

    @staticmethod
    def fixed_i(i: int) -> "RegimeRule":
        return RegimeRule(FIXED_I, float(i))

    @staticmethod
    def end_window(n_back: int) -> "RegimeRule":
        return RegimeRule(END_WINDOW, float(n_back))

    @staticmethod
    def proportional(rho: float) -> "RegimeRule":
        return RegimeRule(PROPORTIONAL, float(rho))

    def clan_index(self, n: int) -> int:
        if self.kind == FIXED_I:
            i = int(self.param)
        elif self.kind == END_WINDOW:
            i = n - int(self.param)
        else:
            i = int(math.floor(self.param * n))
        if not 0 <= i < n:
            raise DomainError(f"regime {self.describe()} gives i={i} outside [0, {n})")
        return i

    def describe(self) -> str:
        if self.kind == PROPORTIONAL:
            return f"{self.kind}({self.param})"
        return f"{self.kind}({int(self.param)})"


def _conformity_tag(spec: EnvironmentSpec) -> str:
    return TAG_OK if validate_spec(spec).conforms else TAG_VIOLATED


def _require_regime_assumptions(spec: EnvironmentSpec, rule: RegimeRule, allow: bool) -> None:
    # the intermediate regime's limit needs a continuous increment law
    if rule.kind == PROPORTIONAL and not validate_spec(spec).continuous:
        if not allow:
            raise AssumptionViolationError(
                "proportional regime requires a continuous environment law; "
                "pass allow_assumption_violations to override")


# ---------------------------------------------------------------------------
# Sweep engine: draw environments block by block, evaluate per-replicate
# closed-form values fully vectorized on the (rows, n+1) walk matrix.
# ---------------------------------------------------------------------------


def _sweep(spec: EnvironmentSpec, n: int, m_samples: int, stream: RngStream,
           purpose: str, kernel, shards: int = 1) -> dict[str, np.ndarray]:
    sizes = block_sizes(m_samples, _SWEEP_BLOCK)

    def run_block(b: int) -> dict[str, np.ndarray]:
        gen = stream.substream(purpose, b)
        x = draw_increments(spec, gen, (sizes[b], n))
        s = np.empty((sizes[b], n + 1))
        s[:, 0] = 0.0
        # an overflowed partial sum stays +-inf or nan to the end of its row,
        # so the check below catches every such row without the warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(x, axis=1, out=s[:, 1:])
        if not np.isfinite(s[:, n]).all():
            raise NumericalFailureError("environment walk overflowed the double range")
        return kernel(s)

    blocks = map_blocks(run_block, len(sizes), shards)
    return {k: np.concatenate([blk[k] for blk in blocks]) for k in blocks[0]}


class _ExpRows:
    """Shared max-shifted exponentials of one sign of the walk matrix.

    One exp pass serves every slice log-sum, instead of one full
    max/exp/sum/log cycle per slice, and each slice is summed at most once.
    A slice more than ~708 log units below its row maximum sums to a
    subnormal (or zero) shifted total that keeps too few digits, so such
    rows are re-summed with their own shift.  A row whose spread a - max
    leaves the double range (finite walks near 1e308) has no usable
    log-sums, and is refused.
    """

    def __init__(self, a: np.ndarray):
        self.a = a
        self.shift = a.max(axis=1)
        # the check rides on the subtraction, with no extra pass over the
        # block; numpy's error state is thread-local, so other sweep threads
        # keep theirs
        with np.errstate(over="raise"):
            try:
                shifted = a - self.shift[:, None]
            except FloatingPointError:
                raise NumericalFailureError(
                    "environment walk spans more than the double range") from None
        self.e = np.exp(shifted)
        self._sums: dict[tuple[int, int], np.ndarray] = {}

    def lse(self, lo: int, hi: int) -> np.ndarray:
        out = self._sums.get((lo, hi))
        if out is None:
            total = self.e[:, lo:hi].sum(axis=1)
            out = np.empty_like(total)
            ok = total >= _TINY
            out[ok] = np.log(total[ok]) + self.shift[ok]
            if not ok.all():
                out[~ok] = logsumexp(self.a[~ok, lo:hi], axis=1)
            self._sums[(lo, hi)] = out
        return out


# The clan formulas, one column per (i, n) over the rows of a walk matrix.
# exact_fl evaluates its scalar closed forms as one-row calls of these.


def _log_event_prob_cols(neg: _ExpRows, i: int, n: int) -> np.ndarray:
    """log P(only the clan of generation i survives at n | environment)."""
    return neg.a[:, i] - neg.lse(i + 1, n + 1) + neg.a[:, n] - neg.lse(0, n + 1)


def _log_extinction_cols(neg: _ExpRows, i: int, n: int) -> np.ndarray:
    """log F_{i,n}(0), the ratio of adjacent tail sums."""
    return neg.lse(i + 1, n + 1) - neg.lse(i, n + 1)


def _log_survival_cols(neg: _ExpRows, i: int, n: int, log1ms) -> np.ndarray:
    """log(1 - F_{i,n}(s)); log1ms is log(1-s), scalar or per-row."""
    window = neg.lse(i, n)          # log(b_n - b_i)
    return neg.a[:, i] - np.logaddexp(neg.a[:, n] - log1ms, window)


def _log_h_cols_from(neg: _ExpRows, i: int, n: int, log1ms) -> np.ndarray:
    """Generic-argument only-surviving-clan values; log1ms is log(1-s), scalar or per-row."""
    return (_log_survival_cols(neg, i, n, log1ms) - _log_extinction_cols(neg, i, n)
            + (neg.a[:, n] - neg.lse(0, n + 1)))


def _log_yaglom_cols_from(neg: _ExpRows, s: np.ndarray, i: int, n: int, beta: float) -> np.ndarray:
    """Laplace-point values h(e^{-beta a}), capped by their beta = inf limit h(0).

    beta = inf is that limit, the event probability.  The bound holds
    exactly; the two closed forms are different roundings of it and may
    cross by a few ulps at large beta without the cap.
    """
    at_inf = _log_event_prob_cols(neg, i, n)
    if math.isinf(beta):
        return at_inf
    log_t = math.log(beta) + s[:, i] - s[:, n]
    return np.minimum(_log_h_cols_from(neg, i, n, log1m_exp_neg_vec(log_t)), at_inf)


def _log_v_cols_from(pos: _ExpRows, s: np.ndarray, j: int, n: int, beta: float) -> np.ndarray:
    """Dual clan functional on the reflection of the sampled walk.

    Finite beta is capped by the beta = inf value, as in _log_yaglom_cols_from.
    """
    head_j = pos.lse(0, j)          # log of reflected prefix sum b_j
    head_np1 = pos.lse(0, n + 1)
    at_inf = s[:, j] - head_j - head_np1
    if math.isinf(beta):
        return at_inf
    head_jp1 = pos.lse(0, j + 1)
    inner = pos.lse(1, j + 1)
    inv_weight = -log1m_exp_neg_vec(math.log(beta) - s[:, j])
    denom = np.logaddexp(inv_weight, inner)
    return np.minimum(s[:, j] - denom + (head_jp1 - head_j) - head_np1, at_inf)


def _log_v_cols(s: np.ndarray, j: int, n: int, beta: float) -> np.ndarray:
    return _log_v_cols_from(_ExpRows(s), s, j, n, beta)


def _first_max_index(s: np.ndarray, n: int) -> np.ndarray:
    """First index attaining max(S_0..S_n) = first minimum of the reflected walk."""
    return np.argmax(s[:, 0:n + 1], axis=1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventProbResult:
    n: int
    i: int
    estimate: MCEstimate
    tag: str


def estimate_event_prob(spec: EnvironmentSpec, rule: RegimeRule, n: int, m_samples: int,
                        stream: RngStream, shards: int = 1,
                        allow_assumption_violations: bool = False) -> EventProbResult:
    """Mean over environments of the exact conditional only-survivor probability."""
    _require_regime_assumptions(spec, rule, allow_assumption_violations)
    i = rule.clan_index(n)
    purpose = f"prob:{rule.describe()}:n={n}"
    cols = _sweep(spec, n, m_samples, stream, purpose,
                  lambda s: {"p": np.exp(_log_event_prob_cols(_ExpRows(-s), i, n))}, shards)
    return EventProbResult(n=n, i=i, estimate=MCEstimate.from_values(cols["p"]),
                           tag=_conformity_tag(spec))


@dataclass(frozen=True)
class TransformResult:
    """Conditional transform 1 - E[h(param)] / E[h(0)] at one grid point (s or beta)."""

    param: float
    value: float
    stderr: float
    count: int
    tag: str


def _estimate_transform(spec: EnvironmentSpec, i: int, n: int, params: list[float],
                        m_samples: int, stream: RngStream, purpose: str, shards: int,
                        point_cols) -> list[TransformResult]:
    """1 - E[h(param)] / E[h(0)] per grid point, all over the same environments.

    point_cols(neg, s, den, param) gives one grid point's h column; den is
    the h(0) column.  A denominator within three standard errors of zero
    refuses the whole grid.
    """
    def kernel(s_mat: np.ndarray) -> dict[str, np.ndarray]:
        neg = _ExpRows(-s_mat)
        out = {"den": np.exp(_log_event_prob_cols(neg, i, n))}
        for idx, p in enumerate(params):
            out[f"num{idx}"] = point_cols(neg, s_mat, out["den"], p)
        return out

    cols = _sweep(spec, n, m_samples, stream, purpose, kernel, shards)
    den = cols["den"]
    den_est = MCEstimate.from_values(den)
    if den_est.mean <= 3.0 * den_est.stderr:
        raise UnreliableRatioError(
            "denominator estimate indistinguishable from zero at three standard errors")
    tag = _conformity_tag(spec)
    results = []
    for idx, p in enumerate(params):
        ratio, se = ratio_with_stderr(cols[f"num{idx}"], den)
        results.append(TransformResult(param=p, value=1.0 - ratio, stderr=se,
                                       count=den.size, tag=tag))
    return results


def estimate_theta(spec: EnvironmentSpec, end_window: int, n: int, s_grid, m_samples: int,
                   stream: RngStream, shards: int = 1,
                   allow_assumption_violations: bool = False) -> list[TransformResult]:
    """Conditional generating function of the clan size for i = n - end_window.

    theta(s) = 1 - E[h(s)] / E[h(0)], numerator and denominator averaged
    over the same environments.  theta(0) = 0 and theta(1) = 1 hold exactly
    because the paired arrays coincide (or vanish) pointwise.
    """
    i = RegimeRule.end_window(end_window).clan_index(n)
    s_values = [float(sv) for sv in s_grid]
    for sv in s_values:
        if not 0.0 <= sv <= 1.0:
            raise DomainError(f"s grid must lie in [0, 1], got {sv}")

    def point_cols(neg, s_mat, den, sv):
        if sv == 0.0:
            return den
        if sv == 1.0:
            return np.zeros_like(den)
        return np.exp(_log_h_cols_from(neg, i, n, math.log1p(-sv)))

    return _estimate_transform(spec, i, n, s_values, m_samples, stream,
                               f"theta:N={end_window}:n={n}", shards, point_cols)


def estimate_lambda(spec: EnvironmentSpec, rule: RegimeRule, n: int, beta_grid, m_samples: int,
                    stream: RngStream, shards: int = 1,
                    allow_assumption_violations: bool = False) -> list[TransformResult]:
    """Conditional Laplace transform lambda(beta) = 1 - E[h(e^{-beta a})] / E[h(0)].

    beta = inf returns exactly 0 (the integrand is the event probability
    pointwise).  Values are nonincreasing in beta replicate by replicate,
    so the estimated transform is monotone without any tolerance.
    """
    _require_regime_assumptions(spec, rule, allow_assumption_violations)
    i = rule.clan_index(n)
    betas = [float(b) for b in beta_grid]
    for b in betas:
        if not b > 0:
            raise DomainError(f"beta grid must lie in (0, inf], got {b}")

    def point_cols(neg, s_mat, den, b):
        return np.exp(_log_yaglom_cols_from(neg, s_mat, i, n, b))

    return _estimate_transform(spec, i, n, betas, m_samples, stream,
                               f"lambda:{rule.describe()}:n={n}", shards, point_cols)


@dataclass(frozen=True)
class ScalingFit:
    """Weighted log-log fit of event-probability decay against n."""

    slope: float
    intercept: float
    slope_stderr: float
    plateau: float                      # exp of the weighted mean compensated log level
    ratios: tuple[float, ...]           # consecutive compensated-level ratios (diagnostic)
    points: tuple[EventProbResult, ...]
    regime: str
    tag: str
    dropped: tuple[EventProbResult, ...] = ()  # grid points indistinguishable from zero


def _compensator(rule: RegimeRule, n: int) -> float:
    """log of the factor that should flatten the decay under the stated regime."""
    if rule.kind == END_WINDOW:
        return 0.5 * math.log(n)
    if rule.kind == FIXED_I:
        return 1.5 * math.log(n)
    i = rule.clan_index(n)
    if i == 0:
        raise DomainError(f"regime {rule.describe()} gives i=0 at n={n}, where the "
                          f"compensator i^(1/2) (n-i)^(3/2) vanishes")
    return 0.5 * math.log(i) + 1.5 * math.log(n - i)


def fit_scaling_points(points, rule: RegimeRule, tag: str = TAG_OK, dropped=()) -> ScalingFit:
    """Weighted least-squares log-log fit of already-estimated grid points.

    Weights are the inverse squared relative errors (the log-scale
    variances); the slope standard error is the usual known-variance WLS
    expression.  The compensated plateau and its consecutive ratios come
    along as secondary diagnostics.
    """
    distinct = len({p.n for p in points})
    if distinct < 4:
        raise NumericalFailureError(
            f"only {distinct} distinct reliable grid points; at least 4 required for a fit")
    rel = np.array([p.estimate.stderr / p.estimate.mean for p in points])
    for p, r in zip(points, rel):
        # a zero (or vanishing) error leaves no finite weight 1/rel^2 to fit with
        if not r >= _MIN_REL_ERR:
            raise NumericalFailureError(
                f"grid point n={p.n} has standard error {p.estimate.stderr!r} on mean "
                f"{p.estimate.mean!r}; the weighted fit needs a relative error of at "
                f"least {_MIN_REL_ERR:g}")
    x = np.array([math.log(p.n) for p in points])
    y = np.array([math.log(p.estimate.mean) for p in points])
    w = 1.0 / rel**2
    xbar = float(np.sum(w * x) / np.sum(w))
    ybar = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - xbar) ** 2))
    slope = float(np.sum(w * (x - xbar) * y)) / sxx
    intercept = ybar - slope * xbar
    slope_stderr = math.sqrt(1.0 / sxx)

    comp = np.array([_compensator(rule, p.n) for p in points])
    level = y + comp
    plateau = math.exp(float(np.sum(w * level) / np.sum(w)))
    ratios = tuple(float(math.exp(level[k] - level[k - 1])) for k in range(1, len(level)))

    return ScalingFit(slope=slope, intercept=intercept, slope_stderr=slope_stderr,
                      plateau=plateau, ratios=ratios, points=tuple(points),
                      regime=rule.describe(), tag=tag, dropped=tuple(dropped))


def scaling_study(spec: EnvironmentSpec, rule: RegimeRule, n_grid, m_samples: int,
                  stream: RngStream, shards: int = 1,
                  allow_assumption_violations: bool = False) -> ScalingFit:
    """Fit the decay exponent of the only-survivor probability over an n grid.

    Points whose estimate is statistically indistinguishable from zero are
    left out of the fit and reported in `dropped`; at least four must remain.
    """
    _require_regime_assumptions(spec, rule, allow_assumption_violations)
    n_values = sorted(int(n) for n in n_grid)
    if len(set(n_values)) < 4:
        raise DomainError(f"need at least 4 distinct grid points, got {len(set(n_values))}")

    points, dropped = [], []
    for n in n_values:
        res = estimate_event_prob(spec, rule, n, m_samples, stream, shards,
                                  allow_assumption_violations)
        unreliable = res.estimate.mean <= 3.0 * res.estimate.stderr
        (dropped if unreliable else points).append(res)
    return fit_scaling_points(points, rule, _conformity_tag(spec), dropped)


def _dual_index(i: int, n: int, beta: float) -> int:
    """j = n - i, after checking the (i, n, beta) of a dual-form estimate."""
    if not 0 <= i < n:
        raise DomainError(f"need 0 <= i < n, got i={i}, n={n}")
    if not beta > 0:
        raise DomainError(f"beta must be positive (inf allowed), got {beta}")
    return n - i


@dataclass(frozen=True)
class DualityResult:
    """Two-sample agreement of the direct and time-reversed estimators."""

    i: int
    n: int
    beta: float
    h_form: MCEstimate
    v_form: MCEstimate
    z_score: float
    tag: str


def duality_check(spec: EnvironmentSpec, i: int, n: int, beta: float, m_samples: int,
                  stream: RngStream, shards: int = 1) -> DualityResult:
    """Estimate the same expectation through both walk orientations.

    The direct form averages h(e^{-beta a}) over environments; the dual form
    averages the reflected-walk functional with j = n - i over independent
    environments.  Their difference is pure Monte Carlo noise.
    """
    j = _dual_index(i, n, beta)

    def kernel_h(s_mat):
        return {"h": np.exp(_log_yaglom_cols_from(_ExpRows(-s_mat), s_mat, i, n, beta))}

    def kernel_v(s_mat):
        return {"v": np.exp(_log_v_cols(s_mat, j, n, beta))}

    h_cols = _sweep(spec, n, m_samples, stream, f"duality.h:n={n}:i={i}", kernel_h, shards)
    v_cols = _sweep(spec, n, m_samples, stream, f"duality.v:n={n}:i={i}", kernel_v, shards)
    h_est = MCEstimate.from_values(h_cols["h"])
    v_est = MCEstimate.from_values(v_cols["v"])
    se = math.hypot(h_est.stderr, v_est.stderr)
    diff = h_est.mean - v_est.mean
    if se == 0.0:
        z = 0.0 if diff == 0.0 else math.inf
    else:
        z = diff / se
    return DualityResult(i=i, n=n, beta=beta, h_form=h_est, v_form=v_est,
                         z_score=z, tag=_conformity_tag(spec))


@dataclass(frozen=True)
class StrataReport:
    """Decomposition of the dual-form estimate by first-minimum strata.

    The reflected walk's first-minimum time is classified into an early
    window, two boundary windows around j, and the middle ranges; window
    masses partition the total estimate exactly (every replicate lands in
    exactly one window).
    """

    i: int
    n: int
    j: int
    beta: float
    n_window: int
    total: MCEstimate
    early: MCEstimate       # first minimum before the window
    middle: MCEstimate      # the two interior ranges
    before_j: MCEstimate    # (j - N, j]
    after_j: MCEstimate     # (j, j + N)
    tag: str


def strata_decomposition(spec: EnvironmentSpec, i: int, n: int, beta: float, n_window: int,
                         m_samples: int, stream: RngStream, shards: int = 1) -> StrataReport:
    """Split the dual-form estimate by where the reflected walk first bottoms out."""
    j = _dual_index(i, n, beta)
    if not 1 <= n_window < j / 2:
        raise DomainError(f"window must satisfy 1 <= N < j/2 = {j / 2}, got {n_window}")

    def kernel(s_mat):
        return {
            "v": np.exp(_log_v_cols(s_mat, j, n, beta)),
            "tau": _first_max_index(s_mat, n).astype(float),
        }

    cols = _sweep(spec, n, m_samples, stream, f"strata:n={n}:i={i}:beta={beta}", kernel, shards)
    v, tau = cols["v"], cols["tau"].astype(int)
    masks = {
        "early": tau < n_window,
        "before_j": (tau > j - n_window) & (tau <= j),
        "after_j": (tau > j) & (tau < j + n_window),
    }
    masks["middle"] = ~(masks["early"] | masks["before_j"] | masks["after_j"])
    ests = {name: MCEstimate.from_values(np.where(mask, v, 0.0)) for name, mask in masks.items()}
    return StrataReport(i=i, n=n, j=j, beta=beta, n_window=n_window,
                        total=MCEstimate.from_values(v),
                        early=ests["early"], middle=ests["middle"],
                        before_j=ests["before_j"], after_j=ests["after_j"],
                        tag=_conformity_tag(spec))
