"""The associated random walk and its renewal-type harmonic functions.

The walk S has increments X (log mean offspring), S_0 = 0.  Everything the
closed-form survival machinery needs is a slice sum of e^{-S} over it,
which the batched kernels of `estimators` take from the walk itself.  The
module also estimates the two renewal-type harmonic functions of the walk
(series over staying-negative and staying-nonnegative events) by truncated
Monte Carlo, and checks their harmonicity under one step of the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env_model import EnvironmentSpec, EnvironmentPath, draw_increments
from .errors import DomainError
from .parallel import block_sizes, map_blocks
from .streams import RngStream

_WALK_BLOCK = 4096
_WALK_CHUNK = 128
# Largest harmonicity table.  Each persistence block holds (rows, nodes + 1)
# int32 counts and int64 cumulative sums: about 80 MB of peak memory per
# block at this size, against hundreds of MB per block at sigma = 100.
_MAX_TABLE_NODES = 1024


@dataclass(frozen=True)
class WalkFunctionals:
    """One walk: s[k] is S_k for k = 0..n."""

    s: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.s.size - 1


def build_walk(path: EnvironmentPath) -> WalkFunctionals:
    """The partial sums of the path, S_0 = 0 included."""
    s = np.empty(path.n + 1)
    s[0] = 0.0
    np.cumsum(path.x, out=s[1:])
    return WalkFunctionals(s)


def reflect(w: WalkFunctionals) -> WalkFunctionals:
    """The sign-flipped walk.  An involution."""
    return WalkFunctionals(-w.s)


# ---------------------------------------------------------------------------
# Renewal-type harmonic functions of the walk, by truncated Monte Carlo.
#
# u(x) = 1{x>=0} + sum_{n>=1} P(S_n >= -x, max(S_1..S_n) <  0)
# v(x) = 1{x<0}  + sum_{n>=1} P(S_n <  -x, min(S_0..S_n) >= 0)
#
# Each path contributes events only while it persists on one side of 0, so
# simulation stops at the first sign violation (or at the horizon).  The
# summand decays faster than the persistence probability ~ n^{-1/2}, so the
# truncated tail is small; stability under horizon doubling is the
# practical bias check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UVTable:
    """A harmonic-function estimate on a grid, with per-block sums for resampling."""

    side: str  # "u" or "v"
    xs: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    horizon: int
    samples: int
    block_sums: np.ndarray = field(repr=False)   # (n_blocks, G) int64 count sums
    block_paths: np.ndarray = field(repr=False)  # (n_blocks,) paths per block


def _indicator(side: str, x: float) -> int:
    return int(x >= 0) if side == "u" else int(x < 0)


def _persistence_scan(spec: EnvironmentSpec, side: str, grid: np.ndarray, horizon: int,
                      m_samples: int, stream: RngStream, purpose: str, shards: int = 1):
    """Count per-path side-persistence events against a threshold grid.

    Returns (block_paths, block_sums, total_sumsq) where block_sums[b, g]
    is the summed per-path event count of block b at grid point g.
    """
    grid = np.asarray(grid, dtype=float)
    ngrid = grid.size
    sizes = block_sizes(m_samples, _WALK_BLOCK)

    def run_block(b: int):
        gen = stream.substream(purpose, b)
        rows = sizes[b]
        counts = np.zeros((rows, ngrid + 1), dtype=np.int32)
        s_cur = np.zeros(rows)
        alive = np.arange(rows)
        done = 0
        while alive.size and done < horizon:
            k = min(_WALK_CHUNK, horizon - done)
            seg = np.cumsum(draw_increments(spec, gen, (alive.size, k)), axis=1)
            seg += s_cur[alive, None]
            bad = seg >= 0.0 if side == "u" else seg < 0.0
            has_bad = bad.any(axis=1)
            first = np.where(has_bad, bad.argmax(axis=1), k)
            valid = np.arange(k)[None, :] < first[:, None]
            vals = -seg[valid]  # row-major: row r contributes first[r] leading entries
            if vals.size:
                # one bincount over the flattened (row, bin) index of the rows with entries
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
        if side == "u":
            per_path = np.cumsum(counts[:, :ngrid], axis=1, dtype=np.int64)
        else:
            totals = counts.sum(axis=1, dtype=np.int64)[:, None]
            per_path = totals - np.cumsum(counts[:, :ngrid], axis=1, dtype=np.int64)
        return rows, per_path.sum(axis=0), (per_path.astype(np.int64) ** 2).sum(axis=0)

    results = map_blocks(run_block, len(sizes), shards)
    block_paths = np.array([r[0] for r in results], dtype=np.int64)
    block_sums = np.stack([r[1] for r in results])
    total_sumsq = np.sum([r[2] for r in results], axis=0)
    return block_paths, block_sums, total_sumsq


def estimate_table(spec: EnvironmentSpec, side: str, x_grid, horizon: int, m_samples: int,
                   stream: RngStream, shards: int = 1, purpose: str | None = None) -> UVTable:
    """Estimate a harmonic function on a strictly increasing grid.

    side "u" is the staying-negative function on x >= 0, side "v" the
    staying-nonnegative one on x < 0.  The purpose keys the walks' streams
    and defaults to "assoc_walk.<side>".
    """
    if side not in ("u", "v"):
        raise DomainError(f"side must be 'u' or 'v', got {side}")
    grid = np.asarray(x_grid, dtype=float)
    if side == "u" and np.any(grid < 0):
        raise DomainError("u-table grid must be nonnegative")
    if side == "v" and np.any(grid >= 0):
        raise DomainError("v-table grid must be strictly negative")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("grid must be strictly increasing")
    block_paths, block_sums, total_sumsq = _persistence_scan(
        spec, side, grid, horizon, m_samples, stream, purpose or f"assoc_walk.{side}", shards)
    total = block_sums.sum(axis=0)
    means = np.array([_indicator(side, x) for x in grid], dtype=float) + total / m_samples
    # the indicator shifts every path's value equally, so the spread is the counts'
    var = (total_sumsq / m_samples - (total / m_samples) ** 2) / max(m_samples - 1, 1)
    stderrs = np.sqrt(np.maximum(var, 0.0))
    return UVTable(side, grid, means, stderrs, horizon, m_samples, block_sums, block_paths)


@dataclass(frozen=True)
class HarmonicityPoint:
    """One grid point of the harmonicity check E[f(x + X); side] = f(x)."""

    x: float
    table_value: float
    table_stderr: float
    expectation_value: float
    residual: float
    stderr: float          # delete-one-group jackknife over paired blocks
    allowance: float       # piecewise-linear interpolation allowance
    bound: float           # 3 * stderr + allowance

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def _interp_extrap(xs: np.ndarray, ys: np.ndarray, q: np.ndarray) -> np.ndarray:
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


def _x_padding(spec: EnvironmentSpec) -> float:
    # generous upper quantile of one increment
    if spec.family == "gaussian":
        return 6.0 * spec.param
    return spec.param


def harmonicity_residual(spec: EnvironmentSpec, x_grid, horizon: int = 10_000,
                         m_samples: int = 100_000, stream: RngStream | None = None,
                         side: str = "u", grid_step: float = 0.05, shards: int = 1,
                         n_jackknife: int = 20) -> list[HarmonicityPoint]:
    """Residuals of the one-step harmonicity identity on a grid.

    side "u": checks E[u(x + X); x + X >= 0] = u(x) on x >= 0.
    side "v": checks E[v(x + X); x + X <  0] = v(x) on x < 0 only; the
      identity does not extend to x = 0 under this series convention
      (v(0) = 0 while the one-step expectation is positive), so x = 0 is
      rejected rather than checked.

    A single table on a uniform grid of the given step serves every x
    (piecewise-linear interpolation, linear extrapolation at the ends).
    The combined uncertainty of table noise, draw noise and their
    correlation is estimated by a delete-one-group jackknife over paired
    (path-block, draw-block) groups.
    """
    if stream is None:
        raise DomainError("an RngStream is required")
    if side not in ("u", "v"):
        raise DomainError(f"side must be 'u' or 'v', got {side}")
    x_grid = np.asarray(x_grid, dtype=float)
    if side == "u" and np.any(x_grid < 0):
        raise DomainError("u-harmonicity grid must be nonnegative")
    if side == "v" and np.any(x_grid > -1e-12):
        raise DomainError("v-harmonicity grid must be strictly negative")
    if m_samples <= _WALK_BLOCK:  # one persistence block leaves nothing to jackknife against
        raise DomainError(f"harmonicity jackknife needs at least 2 persistence blocks: "
                          f"m_samples must be >= {_WALK_BLOCK + 1}, got {m_samples}")

    pad = _x_padding(spec)
    reach = float(x_grid.max()) if side == "u" else -float(x_grid.min())
    span = (reach + pad) / grid_step   # inf or nan when the environment scale overflows
    if not span <= _MAX_TABLE_NODES - 1:
        raise DomainError(f"harmonicity table needs about {span + 1:.3g} nodes of step "
                          f"{grid_step}, more than the limit of {_MAX_TABLE_NODES}; use a "
                          f"smaller environment scale or x grid")
    k_max = int(math.ceil(span))
    if side == "u":
        nodes = np.arange(0, k_max + 1, dtype=float) * grid_step
    else:
        nodes = -np.arange(k_max, 0, -1, dtype=float) * grid_step  # excludes 0: f jumps there
    table = estimate_table(spec, side, nodes, horizon, m_samples, stream, shards,
                           purpose=f"assoc_walk.harmonicity.{side}")

    ind = np.array([_indicator(side, x) for x in nodes], dtype=float)
    gen = stream.substream(f"assoc_walk.harmonicity.{side}.draws", 0)
    draws = draw_increments(spec, gen, m_samples)

    n_blocks = table.block_paths.size
    groups = min(n_jackknife, n_blocks)
    block_group = np.arange(n_blocks) % groups
    draw_group = (np.arange(m_samples) * groups) // m_samples  # contiguous groups

    def table_means(excluded: int | None) -> np.ndarray:
        if excluded is None:
            sums = table.block_sums.sum(axis=0)
            paths = int(table.block_paths.sum())
        else:
            keep = block_group != excluded
            sums = table.block_sums[keep].sum(axis=0)
            paths = int(table.block_paths[keep].sum())
        return ind + sums / paths

    def residual_for(x: float, means: np.ndarray, dmask: np.ndarray) -> tuple[float, float]:
        y = x + draws[dmask]
        keep = y >= 0.0 if side == "u" else y < 0.0
        vals = _interp_extrap(nodes, means, y[keep])
        expect = float(vals.sum()) / y.size
        at_x = float(_interp_extrap(nodes, means, np.array([x]))[0])
        return expect, expect - at_x

    full_means = table_means(None)
    allowance = 0.5 * float(np.max(np.abs(np.diff(full_means)))) if nodes.size >= 2 else 0.0

    out = []
    all_draws = np.ones(m_samples, dtype=bool)
    for x in x_grid:
        expect, res = residual_for(float(x), full_means, all_draws)
        jk = np.empty(groups)
        for g in range(groups):
            _, jk[g] = residual_for(float(x), table_means(g), draw_group != g)
        se = math.sqrt((groups - 1) / groups * float(np.sum((jk - jk.mean()) ** 2)))
        at_x = float(_interp_extrap(nodes, full_means, np.array([float(x)]))[0])
        se_x = float(_interp_extrap(nodes, table.stderrs, np.array([float(x)]))[0])
        out.append(HarmonicityPoint(
            x=float(x), table_value=at_x, table_stderr=se_x,
            expectation_value=expect, residual=abs(res), stderr=se,
            allowance=allowance, bound=3.0 * se + allowance,
        ))
    return out
