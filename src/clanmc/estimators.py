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
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .env_model import EnvironmentSpec, draw_increments
from .errors import (DomainError, NumericalFailureError, UnreliableRatioError, check_count,
                     check_index)
from .mcstats import MCEstimate, paired_sums, ratio_with_stderr
from .parallel import block_count, map_blocks, resolve_shards
from .streams import RngStream

_SWEEP_BLOCK = 256
# Most bytes of walk in one row slab: a block's rows are drawn, cumsummed
# and handed to the kernel slab by slab, so a sweep thread holds two slab
# arrays (the walk, then the kernel's exponentials in the memory the
# increments left) at any n.
_SLAB_BYTES = 2 * 2**20
# Largest observation time a sweep accepts, eight times the largest grid
# point the scaling studies use; a slab there holds 3 rows.
_MAX_N = 65536
# Values a sweep thread buffers (_sweep_sums), six columns of 16 384 rows:
# a sweep of k keys buffers the budget's k-th part in rows, at most
# _CHUNK_ROWS and never less than a block, so a chunk stage's temporaries
# stay small whatever M is, and each exact-sum call gets enough values to
# amortise its fixed cost.
_COLUMN_CHUNK = 6 * 16384
# Most rows of a chunk; binds on sweeps of fewer than 12 keys.  The chunk
# stage's temporaries grow with its rows: at 8192 rows in place of 16 384,
# nine-beta estimate_lambda at n = 256 peaks at about 1.8 MiB a thread in
# place of 2.9 MiB.  mcstats._fold's word packing pays for the extra
# exact-sum calls: 65 536 values sum in 2.4 ms as 8192-value calls, where
# the bucket-by-bucket fold took 2.65 ms as 16 384-value calls.
_CHUNK_ROWS = 8192
# Smallest relative error a scaling fit weights: 1/rel^2 and the weighted
# sums of log n and log mean stay finite above it.
_MIN_REL_ERR = 1e-150
_TINY = np.finfo(float).tiny  # smallest normal double

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
        check_count("observation time n", n)
        if self.kind == FIXED_I:
            i = int(self.param)
        elif self.kind == END_WINDOW:
            i = n - int(self.param)
        else:
            i = int(math.floor(self.param * n))
        check_index(f"clan index i of regime {self.describe()} at n={n}", i, n)
        return i

    def log_compensator(self, n: int) -> float:
        """log of the factor that should flatten the decay under this regime."""
        if self.kind == END_WINDOW:
            return 0.5 * math.log(n)
        if self.kind == FIXED_I:
            return 1.5 * math.log(n)
        i = self.clan_index(n)
        if i == 0:
            raise DomainError(f"regime {self.describe()} gives i=0 at n={n}, where the "
                              f"compensator i^(1/2) (n-i)^(3/2) vanishes")
        return 0.5 * math.log(i) + 1.5 * math.log(n - i)

    def describe(self) -> str:
        if self.kind == PROPORTIONAL:
            return f"{self.kind}({self.param})"
        return f"{self.kind}({int(self.param)})"


# ---------------------------------------------------------------------------
# Sweep engine: draw environments block by block, hand each row slab of walks
# to a kernel, and reduce what it computes to exact statistics per thread.
# ---------------------------------------------------------------------------


def _sweep(spec: EnvironmentSpec, n: int, m_samples: int, stream: RngStream,
           purpose: str, kernel, shards: int | None = None) -> None:
    """Call kernel(s) on the walks s, of shape (rows, n + 1), of all M replicates, slab by slab.

    Block b draws from the substream (purpose, b) in row slabs of at most
    _SLAB_BYTES of walk, in order from the block's generator, so it consumes
    its stream as one (rows, n) draw would and row-wise kernels see the same
    numbers.  Each thread reuses one slab buffer for s: a kernel may modify
    s and must copy what it keeps of it.  Each slab's increments are drawn
    into a fresh array and released once cumsummed into s, before kernel(s)
    runs, so the kernel's slab-sized arrays can take their memory and a
    thread holds two slab arrays.  n and m_samples are positive integers.
    """
    check_count("observation time n", n)
    check_count("m_samples", m_samples)
    if n > _MAX_N:  # refused before any workspace is allocated
        raise DomainError(f"observation time n exceeds the limit of {_MAX_N}, eight times "
                          f"the largest grid point of the scaling studies")
    n_blocks = block_count(m_samples, _SWEEP_BLOCK)
    slab = min(_SWEEP_BLOCK, m_samples, _SLAB_BYTES // (8 * (n + 1)))
    local = threading.local()

    def run_slab(gen: np.random.Generator, rows: int) -> None:
        s = local.s[:rows]
        s[:, 0] = 0.0
        # an increment or partial sum that overflows stays +-inf or nan to the
        # end of its row, so the check below catches every such row without the warning
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(draw_increments(spec, gen, np.empty((rows, n))), axis=1, out=s[:, 1:])
        if not np.isfinite(s[:, n]).all():
            raise NumericalFailureError("environment walk overflowed the double range")
        kernel(s)

    def run_block(b: int) -> None:
        if not hasattr(local, "s"):
            local.s = np.empty((slab, n + 1))
        gen = stream.substream(purpose, b)
        rows = min(_SWEEP_BLOCK, m_samples - b * _SWEEP_BLOCK)
        for lo in range(0, rows, slab):
            run_slab(gen, min(slab, rows - lo))

    map_blocks(run_block, n_blocks, resolve_shards(shards))


def _sweep_sums(spec: EnvironmentSpec, n: int, m_samples: int, stream: RngStream, purpose: str,
                shards: int | None, negate: bool, keys, chunk_stage) -> dict:
    """Exact statistics of a sweep: closed-form inputs buffered by key, reduced chunk by chunk.

    Each slab's walk (negated in place when `negate`) becomes one _ExpRows,
    read at each of `keys` into the sweep thread's buffers, one per key.
    The buffers hold _COLUMN_CHUNK values over all keys, in at most
    _CHUNK_ROWS rows and never fewer than a block, so a slab always fits
    and a chunk stage's temporaries stay small.  Before a slab would overflow
    them, chunk_stage(rows) reduces the filled rows to a dict of exact
    statistics (MCEstimate, Fraction cross sums), added key by key to the
    sweep's totals; rows is a dict that answers the same keys, so the
    formulas read it as they would an _ExpRows, in the same IEEE steps.
    After the sweep each thread's last rows are reduced too.  Exact sums
    of the parts add up to those of the whole in any order, so no shard
    count or chunk boundary changes a bit, and no array grows with M.
    """
    keys = tuple(dict.fromkeys(keys))
    rows = min(max(min(_COLUMN_CHUNK // len(keys), _CHUNK_ROWS), _SWEEP_BLOCK), m_samples)
    local, lock = threading.local(), threading.Lock()
    folds, total = [], {}  # folds: each thread's buffers; list.append is atomic

    def reduce(fold: SimpleNamespace) -> None:
        stats = chunk_stage({k: b[:fold.filled] for k, b in fold.buffers.items()})
        fold.filled = 0
        with lock:
            for k, v in stats.items():
                total[k] = total[k] + v if k in total else v

    def kernel(s: np.ndarray) -> None:
        if not hasattr(local, "fold"):
            local.fold = SimpleNamespace(filled=0, buffers={})
            folds.append(local.fold)
        fold, size = local.fold, s.shape[0]
        if fold.filled + size > rows:
            reduce(fold)  # before this slab's exponentials exist
        exp_rows = _ExpRows(np.negative(s, out=s) if negate else s)
        for key in keys:
            col = exp_rows[key]
            if key not in fold.buffers:
                fold.buffers[key] = np.empty(rows, dtype=col.dtype)
            fold.buffers[key][fold.filled:fold.filled + size] = col
        fold.filled += size

    _sweep(spec, n, m_samples, stream, purpose, kernel, shards)
    for fold in folds:
        reduce(fold)
    return total


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along each row, for finite a with nonempty rows.

    The arithmetic of scipy.special.logsumexp (scipy 1.17), so each value
    has the same bits: the maximum is taken out of the sum, the rest is
    summed shifted by it and divided by the count m of tied maxima, and the
    result is log1p(rest / m) + log(m) + max.
    """
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    m = np.count_nonzero(at_top, axis=1, keepdims=True).astype(float)
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=1, keepdims=True)
    return np.squeeze(np.log1p(rest / m) + np.log(m) + top, axis=1)


class _ExpRows:
    """Shared max-shifted exponentials of one sign of the walk matrix.

    One exp pass serves every slice log-sum, instead of one full
    max/exp/sum/log cycle per slice.  The clan formulas read it by key:
    rows[k] is walk column k, rows[lo, hi] is lse(lo, hi) and
    rows["argmax"] is the first index of each row's maximum.
    A slice more than ~708 log units below its row maximum sums to a
    subnormal (or zero) shifted total that keeps too few digits, so such
    rows are re-summed with their own shift by the module's `logsumexp`
    (called through the module name, so a tracer can count those rows).
    A row whose spread a - max leaves the double range (finite walks near
    1e308) has no usable log-sums, and is refused.
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
        self.e = np.exp(shifted, out=shifted)

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, tuple):
            return self.lse(*key)  # through the method, which a tracer may wrap
        if key == "argmax":
            return np.argmax(self.a, axis=1)
        return self.a[:, key]

    def lse(self, lo: int, hi: int) -> np.ndarray:
        total = self.e[:, lo:hi].sum(axis=1)
        ok = total >= _TINY
        if ok.all():
            return np.log(total) + self.shift
        out = np.empty_like(total)
        out[ok] = np.log(total[ok]) + self.shift[ok]
        out[~ok] = logsumexp(self.a[~ok, lo:hi])
        return out


# The clan formulas, one column per (i, n), read by key from an _ExpRows or
# from the dict of buffered columns a chunk stage of _sweep_sums gets.
# exact_fl evaluates its scalar closed forms as one-row calls of these.
# _log1ms is the one log(1 - s) rule, log1m_exp_neg_vec the one log(1 - e^{-t})
# rule for a Laplace point s = e^{-t}, and _log_h_cols the one place the
# h(s) endpoints are decided: s = 0 takes the event-probability form, and
# s = 1 gives log(1 - s) = -inf, which the formula carries to -inf, the
# exact zero.  Callers check clan indices with errors.check_index.


def _log_event_prob_cols(neg: _ExpRows | dict, i: int, n: int) -> np.ndarray:
    """log P(only the clan of generation i survives at n | environment)."""
    return neg[i] - neg[i + 1, n + 1] + neg[n] - neg[0, n + 1]


def _log_extinction_cols(neg: _ExpRows | dict, i: int, n: int) -> np.ndarray:
    """log F_{i,n}(0), the ratio of adjacent tail sums."""
    return neg[i + 1, n + 1] - neg[i, n + 1]


def _log_survival_cols(neg: _ExpRows | dict, i: int, n: int, log1ms) -> np.ndarray:
    """log(1 - F_{i,n}(s)); log1ms is log(1-s), scalar or per-row."""
    window = neg[i, n]          # log(b_n - b_i)
    return neg[i] - np.logaddexp(neg[n] - log1ms, window)


def _log_h_cols_from(neg: _ExpRows | dict, i: int, n: int, log1ms) -> np.ndarray:
    """Generic-argument only-surviving-clan values; log1ms is log(1-s), scalar or per-row."""
    return (_log_survival_cols(neg, i, n, log1ms) - _log_extinction_cols(neg, i, n)
            + (neg[n] - neg[0, n + 1]))


def _log1ms(s: float) -> float:
    """log(1 - s) for s in [0, 1]; -inf at s = 1."""
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"argument must lie in [0, 1], got {s}")
    return -math.inf if s == 1.0 else math.log1p(-s)


_LOG_TINY = -700.0  # below this, exp underflows and 1 - e^{-t} ~ t to full precision
_LOG2 = math.log(2.0)


def log1m_exp_neg_vec(log_t: np.ndarray) -> np.ndarray:
    """log(1 - exp(-t)) for t = exp(log_t) > 0, elementwise and stable over the whole range.

    For tiny t the result is ~ log_t; for large t it approaches 0 from below.
    """
    log_t = np.asarray(log_t, dtype=float)
    out = np.empty_like(log_t)
    tiny = log_t < _LOG_TINY
    out[tiny] = log_t[tiny]
    rest = ~tiny
    with np.errstate(over="ignore"):
        t = np.exp(log_t[rest])
    big = t > _LOG2
    r = np.empty_like(t)
    r[big] = np.log1p(-np.exp(-t[big]))
    r[~big] = np.log(-np.expm1(-t[~big]))
    out[rest] = r
    return out


def _log_h_cols(neg: _ExpRows | dict, i: int, n: int, s: float) -> np.ndarray:
    """log h_{i,n}(s) for s in [0, 1]: the event probability at s = 0, -inf at s = 1."""
    if s == 0.0:  # the (1-s)^{-1} weight drops out
        return _log_event_prob_cols(neg, i, n)
    return _log_h_cols_from(neg, i, n, _log1ms(s))


def _log_yaglom_cols_from(neg: _ExpRows | dict, i: int, n: int, beta: float) -> np.ndarray:
    """Laplace-point values h(e^{-beta a}), capped by their beta = inf limit h(0).

    beta = inf is that limit, the event probability.  The bound holds
    exactly; the two closed forms are different roundings of it and may
    cross by a few ulps at large beta without the cap.
    """
    at_inf = _log_event_prob_cols(neg, i, n)
    if math.isinf(beta):
        return at_inf
    # neg[k] = -s_k exactly, so these are the bits of log(beta) + s_i - s_n
    log_t = math.log(beta) - neg[i] + neg[n]
    return np.minimum(_log_h_cols_from(neg, i, n, log1m_exp_neg_vec(log_t)), at_inf)


def _log_v_cols_from(pos: _ExpRows | dict, j: int, n: int, beta: float) -> np.ndarray:
    """Dual clan functional on the reflection of the sampled walk; pos[k] is the walk S_k.

    Finite beta is capped by the beta = inf value, as in _log_yaglom_cols_from.
    """
    s_j = pos[j]
    head_j = pos[0, j]          # log of reflected prefix sum b_j
    head_np1 = pos[0, n + 1]
    at_inf = s_j - head_j - head_np1
    if math.isinf(beta):
        return at_inf
    head_jp1 = pos[0, j + 1]
    inner = pos[1, j + 1]
    inv_weight = -log1m_exp_neg_vec(math.log(beta) - s_j)
    denom = np.logaddexp(inv_weight, inner)
    return np.minimum(s_j - denom + (head_jp1 - head_j) - head_np1, at_inf)


def _exp_cols(log_cols: np.ndarray) -> np.ndarray:
    """exp of log-probabilities; an overflow gives inf, which MCEstimate refuses."""
    with np.errstate(over="ignore"):  # per thread, so set where the exp runs
        return np.exp(log_cols)


def _event_keys(i: int, n: int) -> tuple:
    """The negated-walk columns and slice log-sums _log_event_prob_cols reads."""
    return (i, n, (i + 1, n + 1), (0, n + 1))


def _h_keys(i: int, n: int) -> tuple:
    """The negated-walk inputs of every h-side formula (_log_yaglom_cols_from, _log_h_cols)."""
    return _event_keys(i, n) + ((i, n), (i, n + 1))


def _v_keys(j: int, n: int) -> tuple:
    """The walk column and slice log-sums _log_v_cols_from reads; at beta = inf, the first three."""
    return (j, (0, j), (0, n + 1), (0, j + 1), (1, j + 1))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def _grid_points(n_values) -> list[int]:
    """The grid as ints, after refusing a point that is not a positive integer."""
    n_values = list(n_values)
    for n in n_values:
        check_count("grid point n", n)
    return [int(n) for n in n_values]


def _beta_grid(beta_grid) -> list[float]:
    """The grid as floats, after refusing a point outside (0, inf]."""
    betas = [float(b) for b in beta_grid]
    for b in betas:
        if not b > 0:
            raise DomainError(f"beta grid must lie in (0, inf], got {b}")
    return betas


@dataclass(frozen=True)
class EventProbResult:
    n: int
    i: int
    estimate: MCEstimate


def estimate_event_prob_grid(spec: EnvironmentSpec, rule: RegimeRule, n_values, m_samples: int,
                             stream: RngStream, shards: int | None = None) -> list[EventProbResult]:
    """Mean over environments of the exact conditional only-survivor probability, per grid n.

    One sweep at n_max = max(n_values) draws each replicate's walk, and grid
    point n reads the first n steps of it (common random numbers across the
    grid).  One shifted exp pass over the full row serves every point.  The
    sweep's purpose is the one-point purpose at n_max, so the largest point
    is bit for bit the estimate of a grid that holds only n_max.  Results
    keep the order of n_values, repeats included.
    """
    n_values = _grid_points(n_values)
    if not n_values:
        raise DomainError("the n grid must not be empty")
    distinct = sorted(set(n_values))
    index = {n: rule.clan_index(n) for n in distinct}
    estimates = _sweep_sums(
        spec, distinct[-1], m_samples, stream, f"prob:{rule.describe()}:n={distinct[-1]}",
        shards, True, [k for n in distinct for k in _event_keys(index[n], n)],
        lambda rows: {n: MCEstimate.from_values(_exp_cols(_log_event_prob_cols(rows, index[n], n)))
                      for n in distinct})
    return [EventProbResult(n=n, i=index[n], estimate=estimates[n]) for n in n_values]


@dataclass(frozen=True)
class TransformResult:
    """Conditional transform 1 - E[h(param)] / E[h(0)] at one grid point (s or beta)."""

    n: int
    i: int
    param: float
    value: float
    stderr: float
    count: int


def _estimate_transform(spec: EnvironmentSpec, i: int, n: int, params: list[float],
                        m_samples: int, stream: RngStream, purpose: str, shards: int | None,
                        log_cols) -> list[TransformResult]:
    """1 - E[h(param)] / E[h(0)] per grid point, all over the same environments.

    Each chunk of closed-form inputs gives the exact sums of h(0) and, per
    grid point, of h(param) and its cross sum with h(0); log_cols(rows, i,
    n, param) is the kernel of a point's log h column.
    A denominator within three standard errors of zero refuses the grid.
    """
    def chunk_stage(rows):
        den = _exp_cols(_log_event_prob_cols(rows, i, n))
        stats = {"den": MCEstimate.from_values(den)}
        for k, (num, sum_xy) in enumerate(paired_sums(
                den, (_exp_cols(log_cols(rows, i, n, p)) for p in params))):
            stats[k, "num"], stats[k, "xy"] = num, sum_xy
        return stats

    stats = _sweep_sums(spec, n, m_samples, stream, purpose, shards, True, _h_keys(i, n),
                        chunk_stage)
    den = stats["den"]
    if den.mean <= 3.0 * den.stderr:
        raise UnreliableRatioError(
            "denominator estimate indistinguishable from zero at three standard errors")
    results = []
    for k, p in enumerate(params):
        ratio, se = ratio_with_stderr(stats[k, "num"], den, stats[k, "xy"])
        results.append(TransformResult(n=n, i=i, param=p, value=1.0 - ratio, stderr=se,
                                       count=den.count))
    return results


def estimate_theta(spec: EnvironmentSpec, rule: RegimeRule, n: int, s_grid, m_samples: int,
                   stream: RngStream, shards: int | None = None) -> list[TransformResult]:
    """Conditional generating function of the clan size for an end_window rule, i = n - N.

    theta(s) = 1 - E[h(s)] / E[h(0)], numerator and denominator averaged
    over the same environments.  theta(0) = 0 and theta(1) = 1 hold exactly
    because the paired arrays coincide (or vanish) pointwise.
    """
    if rule.kind != END_WINDOW:
        raise DomainError(f"the generating function theta is defined for the end_window "
                          f"regime, got {rule.describe()}")
    i = rule.clan_index(n)
    s_values = [float(sv) for sv in s_grid]
    for sv in s_values:
        if not 0.0 <= sv <= 1.0:
            raise DomainError(f"s grid must lie in [0, 1], got {sv}")
    return _estimate_transform(spec, i, n, s_values, m_samples, stream,
                               f"theta:N={n - i}:n={n}", shards, _log_h_cols)


def estimate_lambda(spec: EnvironmentSpec, rule: RegimeRule, n: int, beta_grid, m_samples: int,
                    stream: RngStream, shards: int | None = None) -> list[TransformResult]:
    """Conditional Laplace transform lambda(beta) = 1 - E[h(e^{-beta a})] / E[h(0)].

    beta = inf returns exactly 0 (the integrand is the event probability
    pointwise).  Values are nonincreasing in beta replicate by replicate,
    so the estimated transform is monotone without any tolerance.
    """
    return _estimate_transform(spec, rule.clan_index(n), n, _beta_grid(beta_grid), m_samples,
                               stream, f"lambda:{rule.describe()}:n={n}", shards,
                               _log_yaglom_cols_from)


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
    dropped: tuple[EventProbResult, ...] = ()  # grid points indistinguishable from zero


def fit_scaling_points(points, rule: RegimeRule, dropped=()) -> ScalingFit:
    """Weighted least-squares log-log fit of already-estimated grid points.

    Weights are the inverse squared relative errors (the log-scale
    variances); the slope standard error is the usual known-variance WLS
    expression sqrt(1/Sxx), which treats the points as independent.  Points
    of one scaling study share environments; a shift shared by all of
    them moves every log mean together, which the slope does not see,
    and tests/test_estimators.py checks the expression against the
    seed-to-seed spread of the slope under shared walks.  The compensated
    plateau and its consecutive ratios come along as secondary diagnostics.
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

    comp = np.array([rule.log_compensator(p.n) for p in points])
    level = y + comp
    plateau = math.exp(float(np.sum(w * level) / np.sum(w)))
    ratios = tuple(float(math.exp(level[k] - level[k - 1])) for k in range(1, len(level)))

    return ScalingFit(slope=slope, intercept=intercept, slope_stderr=slope_stderr,
                      plateau=plateau, ratios=ratios, points=tuple(points),
                      regime=rule.describe(), dropped=tuple(dropped))


def scaling_study(spec: EnvironmentSpec, rule: RegimeRule, n_grid, m_samples: int,
                  stream: RngStream, shards: int | None = None) -> ScalingFit:
    """Fit the decay exponent of the only-survivor probability over an n grid.

    One sweep at the largest n serves every grid point (see
    estimate_event_prob_grid), so the points share environments (see
    fit_scaling_points for the slope standard error).  Points whose
    estimate is statistically indistinguishable from zero are left out of
    the fit and reported in `dropped`; at least four must remain.
    """
    n_values = sorted(_grid_points(n_grid))
    if len(set(n_values)) < 4:
        raise DomainError(f"need at least 4 distinct grid points, got {len(set(n_values))}")
    for n in n_values:  # refuse a bad grid before the sweep, not after it
        rule.log_compensator(n)

    points, dropped = [], []
    for res in estimate_event_prob_grid(spec, rule, n_values, m_samples, stream, shards):
        unreliable = res.estimate.mean <= 3.0 * res.estimate.stderr
        (dropped if unreliable else points).append(res)
    return fit_scaling_points(points, rule, dropped)


@dataclass(frozen=True)
class DualityResult:
    """Two-sample agreement of the direct and time-reversed estimators."""

    i: int
    n: int
    beta: float
    h_form: MCEstimate
    v_form: MCEstimate
    z_score: float


def duality_check(spec: EnvironmentSpec, rule: RegimeRule, n: int, beta_grid, m_samples: int,
                  stream: RngStream, shards: int | None = None) -> list[DualityResult]:
    """Estimate the same expectation through both walk orientations, per beta.

    The direct form averages h(e^{-beta a}) over environments; the dual form
    averages the reflected-walk functional with j = n - i over independent
    environments.  Their difference is pure Monte Carlo noise.  One sweep
    per orientation buffers the closed-form inputs by key, and its chunk
    stage folds each beta's column.  Two forms that differ with zero
    standard error have no finite z and are refused.
    """
    i = rule.clan_index(n)
    betas, j = _beta_grid(beta_grid), n - i

    def form(side, negate, keys, log_form):
        return _sweep_sums(spec, n, m_samples, stream, f"duality.{side}:n={n}:i={i}", shards,
                           negate, keys, lambda rows: {k: MCEstimate.from_values(
                               _exp_cols(log_form(rows, b))) for k, b in enumerate(betas)})

    h_ests = form("h", True, _h_keys(i, n), lambda rows, b: _log_yaglom_cols_from(rows, i, n, b))
    v_ests = form("v", False, _v_keys(j, n), lambda rows, b: _log_v_cols_from(rows, j, n, b))
    results = []
    for beta, h_est, v_est in zip(betas, h_ests.values(), v_ests.values()):
        se = math.hypot(h_est.stderr, v_est.stderr)
        diff = h_est.mean - v_est.mean
        if se == 0.0 and diff != 0.0:
            raise NumericalFailureError(
                f"duality forms differ by {diff!r} at beta={beta} with zero standard error")
        z = 0.0 if diff == 0.0 else diff / se
        results.append(DualityResult(i=i, n=n, beta=beta, h_form=h_est, v_form=v_est,
                                     z_score=z))
    return results


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


def strata_decomposition(spec: EnvironmentSpec, rule: RegimeRule, n: int, beta: float,
                         n_window: int, m_samples: int, stream: RngStream,
                         shards: int | None = None) -> StrataReport:
    """Split the dual-form estimate by where the reflected walk first bottoms out."""
    i = rule.clan_index(n)
    _beta_grid([beta])
    check_count("strata window N", n_window)
    j = n - i
    if not n_window < j / 2:
        largest = (j - 1) // 2  # the largest integer N < j/2
        fix = (f"the largest valid strata_N is {largest}" if largest >= 1 else
               "no strata_N is valid; choose a regime that leaves n - i >= 3")
        raise DomainError(f"strata window must satisfy 1 <= N < j/2 = {j / 2} with j = n - i "
                          f"at n={n}, i={i}, got {n_window}; {fix}")

    def chunk_stage(rows):
        # the first maximum of S_0..S_n is the first minimum of the reflected walk
        v, tau = _exp_cols(_log_v_cols_from(rows, j, n, beta)), rows["argmax"]
        masks = {
            "early": tau < n_window,
            "before_j": (tau > j - n_window) & (tau <= j),
            "after_j": (tau > j) & (tau < j + n_window),
        }
        masks["middle"] = ~(masks["early"] | masks["before_j"] | masks["after_j"])
        return {"total": MCEstimate.from_values(v), **{
            name: MCEstimate.from_values(np.where(mask, v, 0.0)) for name, mask in masks.items()}}

    keys = _v_keys(j, n)[:3 if math.isinf(beta) else None] + ("argmax",)
    ests = _sweep_sums(spec, n, m_samples, stream, f"strata:n={n}:i={i}:beta={beta}", shards,
                       False, keys, chunk_stage)
    return StrataReport(i=i, n=n, j=j, beta=beta, n_window=n_window, **ests)
