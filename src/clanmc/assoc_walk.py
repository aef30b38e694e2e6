"""The associated random walk and its renewal-type harmonic function u.

The walk S has increments X (log mean offspring), S_0 = 0.  Everything the
closed-form survival machinery needs is a slice sum of e^{-S} over it,
which the batched kernels of `estimators` take from the walk itself.  The
module also estimates the renewal-type harmonic function u of the walk (a
series over staying-negative events) by truncated Monte Carlo, and checks
its harmonicity under one step of the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env_model import EnvironmentSpec, EnvironmentPath, _increment_bound, draw_increments
from .errors import DomainError, check_count
from .parallel import block_count, map_blocks, resolve_shards
from .streams import RngStream

_WALK_BLOCK = 4096
# Steps per chunk of a persistence scan: chunks start at _FIRST_CHUNK and
# double up to _WALK_CHUNK (see _chunk_steps).
_WALK_CHUNK = 128
_FIRST_CHUNK = 16
# Steps a scan block draws, cumsums and bins at a time: _ROW_BATCH // k paths
# of a k-step chunk, so 1024 paths of a first chunk and 128 of a full one.
# A batch's temporaries are a few arrays of this many values (128 kB each).
_ROW_BATCH = 16384
# Largest harmonicity table.  A scan block holds one count per node beside
# its batch temporaries, so the limit does not guard the scan: it keeps the
# table's own arrays small (the per-block sums, and the means and slopes of
# each jackknife table) and refuses environment scales whose table of step
# 0.05 would need thousands of nodes (about 12 000 for a Gaussian at
# sigma = 100).
_MAX_TABLE_NODES = 1024


def build_walk(path: EnvironmentPath) -> np.ndarray:
    """The partial sums S_0..S_n of the path, S_0 = 0 included."""
    s = np.empty(path.n + 1)
    s[0] = 0.0
    np.cumsum(path.x, out=s[1:])
    return s


# ---------------------------------------------------------------------------
# The renewal-type harmonic function u of the walk, by truncated Monte Carlo.
#
# u(x) = 1 + sum_{n>=1} P(S_n >= -x, max(S_1..S_n) < 0),  x >= 0
#
# Each path contributes events only while it stays negative, so simulation
# stops at its first nonnegative step (or at the horizon).  The summand
# decays faster than the persistence probability ~ n^{-1/2}, so the
# truncated tail is small; stability under horizon doubling is the
# practical bias check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UVTable:
    """A u estimate on a grid, with per-block sums for resampling.

    Its uncertainty is the delete-one-group jackknife's over the blocks
    (see `harmonicity_residual`).
    """

    means: np.ndarray
    block_sums: np.ndarray = field(repr=False)   # (n_blocks, G) int64 count sums
    block_paths: np.ndarray = field(repr=False)  # (n_blocks,) paths per block


def _chunk_steps(done: int, horizon: int) -> int:
    """Steps of the scan chunk that starts after `done` steps: 16, 16, 32, 64, 128, 128, ...

    A path stays negative past step n with probability of order
    n^{-1/2}, so most paths leave within a few steps.  A path that leaves
    in the chunk starting at `done` has tallied at least `done` steps and
    drew at most max(_FIRST_CHUNK, done) steps it does not tally.
    """
    return min(_WALK_CHUNK, max(_FIRST_CHUNK, done), horizon - done)


def _in_grid(grid: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Where the threshold -seg has a bin that counts at some grid point.

    That bin (np.searchsorted side "left") is below the last one:
    -seg <= grid[-1].  numpy sorts a nan last, so a nan threshold is in the
    top bin and out.  An empty grid has no bin that counts.
    """
    if not grid.size:
        return np.zeros(seg.shape, dtype=bool)
    return seg >= -grid[-1]


def _persistence_scan(spec: EnvironmentSpec, grid: np.ndarray, horizon: int, m_samples: int,
                      stream: RngStream, purpose: str, shards: int | None = None):
    """Count per-path staying-negative events against a threshold grid.

    Returns (block_paths, block_sums) where block_sums[b, g] is the summed
    per-path event count of block b at grid point g.

    A block walks its paths in chunks of _chunk_steps steps, drawing
    _ROW_BATCH steps at once, and keeps only each surviving path's level.
    A step's bin is the number of grid points below its threshold -S
    (np.searchsorted side "left"), and a path's event count at grid point g
    is its steps in bins up to g.  The top bin counts at no grid point, so
    only the steps taken before their path left whose bin is below it
    (`_in_grid`) are binned, into one count row per block whose cumulative
    sum is the block's sums.
    """
    grid = np.asarray(grid, dtype=float)
    top = grid.size                 # the bin past every grid point, never tallied
    n_blocks = block_count(m_samples, _WALK_BLOCK)
    block_paths = np.minimum(m_samples - np.arange(0, m_samples, _WALK_BLOCK), _WALK_BLOCK)
    block_sums = np.zeros((n_blocks, top), dtype=np.int64)

    def run_block(b: int) -> None:
        gen = stream.substream(purpose, b)
        buf = np.empty(_ROW_BATCH)
        level = np.zeros(block_paths[b])  # S at the last chunk's end, per path still negative
        steps = np.zeros(top, dtype=np.int64)  # tallied steps per bin
        done = 0
        while level.size and done < horizon:
            k = _chunk_steps(done, horizon)
            batch = _ROW_BATCH // k
            cols = np.arange(k)
            next_level = []
            # row batches draw the stream in the order of one (paths, k) draw
            for lo in range(0, level.size, batch):
                rows = min(batch, level.size - lo)
                seg = draw_increments(spec, gen, buf[:rows * k].reshape(rows, k))
                np.cumsum(seg, axis=1, out=seg)
                seg += level[lo:lo + rows, None]
                bad = seg >= 0.0
                first = bad.argmax(axis=1)
                stay = ~bad[np.arange(rows), first]
                first[stay] = k
                next_level.append(seg[stay, k - 1])
                # the steps taken before the path left whose threshold -S is in the grid
                inside = _in_grid(grid, seg)
                inside &= cols < first[:, None]
                bins = np.searchsorted(grid, np.negative(seg[inside]))
                steps += np.bincount(bins, minlength=top)
            level = np.concatenate(next_level)
            done += k
        block_sums[b] = np.cumsum(steps)

    map_blocks(run_block, n_blocks, resolve_shards(shards))
    return block_paths, block_sums


def estimate_table(spec: EnvironmentSpec, x_grid, horizon: int, m_samples: int,
                   stream: RngStream, shards: int | None = None,
                   purpose: str = "assoc_walk.u") -> UVTable:
    """Estimate u on a strictly increasing, nonnegative grid.

    From `m_samples` walks truncated after `horizon` steps; both are
    positive integers.  The purpose keys the walks' streams.  A nan node is
    refused; an infinite one counts every step a path takes before it
    leaves the negative half-line.
    """
    check_count("horizon", horizon)
    check_count("m_samples", m_samples)
    grid = np.asarray(x_grid, dtype=float)
    if np.any(np.isnan(grid)):
        raise DomainError("grid must not hold nan")
    if np.any(grid < 0):
        raise DomainError("u-table grid must be nonnegative")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise DomainError("grid must be strictly increasing")
    block_paths, block_sums = _persistence_scan(spec, grid, horizon, m_samples, stream, purpose,
                                                shards)
    # u(x) = 1 + the mean event count: the indicator 1{x >= 0} is 1 on the grid
    return UVTable(1.0 + block_sums.sum(axis=0) / m_samples, block_sums, block_paths)


@dataclass(frozen=True)
class HarmonicityPoint:
    """One grid point of the harmonicity check E[u(x + X); x + X >= 0] = u(x)."""

    x: float
    table_value: float
    expectation_value: float
    residual: float
    stderr: float          # delete-one-group jackknife over paired blocks
    allowance: float       # piecewise-linear interpolation allowance
    bound: float           # 3 * stderr + allowance

    @property
    def passed(self) -> bool:
        return self.residual <= self.bound


def _brackets(nodes: np.ndarray, q: np.ndarray):
    """Where each query falls among the nodes: (node a, slope index sj, offset d).

    d = q - nodes[a] overwrites q.  With `_slopes`, slopes[sj] * d + ys[a]
    is np.interp(q, nodes, ys) to the bit inside the nodes (numpy's own
    slope * (q - x_j) + y_j) and the line through the end pair outside
    them; a single node gives its value everywhere, as np.interp does.
    """
    a = np.searchsorted(nodes, q, side="right")
    a -= 1
    sj = np.clip(a, 0, max(nodes.size - 2, 0))
    np.clip(a, 0, nodes.size - 1, out=a)
    q -= nodes[a]
    return a, sj, q


def _slopes(nodes: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.diff(ys) / np.diff(nodes) if nodes.size >= 2 else np.zeros(1)


def _interpolate(nodes: np.ndarray, ys: np.ndarray, q) -> np.ndarray:
    """Piecewise-linear interpolation of (nodes, ys) at q, extrapolated linearly at the ends."""
    a, sj, d = _brackets(nodes, np.array(q, dtype=float, ndmin=1))
    return _slopes(nodes, ys)[sj] * d + ys[a]


def harmonicity_residual(spec: EnvironmentSpec, x_grid, horizon: int, m_samples: int,
                         stream: RngStream, shards: int | None = None) -> list[HarmonicityPoint]:
    """Residuals of the one-step harmonicity identity on a grid x >= 0.

    The identity is E[u(x + X); x + X >= 0] = u(x).  A single table on a
    uniform grid of step 0.05 serves every x (piecewise-linear
    interpolation, linear extrapolation at the ends).  The combined
    uncertainty of table noise, draw noise and their correlation is
    estimated by a delete-one-group jackknife over 20 paired (path-block,
    draw-block) groups, or one per block when there are fewer.  Each x
    searches its draws' interpolation brackets once; each group then costs
    one multiply-add and one sum over them.
    """
    grid_step, n_jackknife = 0.05, 20
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.size == 0:
        raise DomainError("harmonicity grid must not be empty")
    if not np.all(np.isfinite(x_grid)):
        raise DomainError("harmonicity grid must be finite")
    if np.any(x_grid < 0):
        raise DomainError("u-harmonicity grid must be nonnegative")
    check_count("m_samples", m_samples)
    if m_samples <= _WALK_BLOCK:  # one persistence block leaves nothing to jackknife against
        raise DomainError(f"harmonicity jackknife needs at least 2 persistence blocks: "
                          f"m_samples must be >= {_WALK_BLOCK + 1}, got {m_samples}")

    # inf or nan when the environment scale overflows
    span = (float(x_grid.max()) + _increment_bound(spec)) / grid_step
    if not span <= _MAX_TABLE_NODES - 1:
        raise DomainError(f"harmonicity table needs about {span + 1:.3g} nodes of step "
                          f"{grid_step}, more than the limit of {_MAX_TABLE_NODES}; use a "
                          f"smaller environment scale or x grid")
    nodes = np.arange(0, int(math.ceil(span)) + 1, dtype=float) * grid_step
    table = estimate_table(spec, nodes, horizon, m_samples, stream, shards,
                           purpose="assoc_walk.harmonicity.u")

    gen = stream.substream("assoc_walk.harmonicity.u.draws", 0)
    draws = draw_increments(spec, gen, np.empty(m_samples))

    n_blocks = table.block_paths.size
    groups = min(n_jackknife, n_blocks)
    block_group = np.arange(n_blocks) % groups

    def table_means(excluded: int) -> np.ndarray:
        keep = block_group != excluded
        return 1.0 + table.block_sums[keep].sum(axis=0) / int(table.block_paths[keep].sum())

    # the full table (None) and the table without each group
    means_of = {None: table.means, **{g: table_means(g) for g in range(groups)}}
    slopes_of = {g: _slopes(nodes, mu) for g, mu in means_of.items()}
    allowance = 0.5 * float(np.max(np.abs(np.diff(table.means)))) if nodes.size >= 2 else 0.0
    # draw groups are contiguous: group g is draws edges[g]..edges[g + 1] - 1
    edges = [(g * m_samples + groups - 1) // groups for g in range(groups + 1)]

    y, keep = np.empty(m_samples), np.empty(m_samples, dtype=bool)

    def jackknife_point(x: float) -> HarmonicityPoint:
        np.add(x, draws, out=y)
        np.greater_equal(y, 0.0, out=keep)
        # the kept draws' brackets serve every group: a group leaves out one
        # contiguous range kept[lo:hi] of them, which its sum skips
        a, sj, d = _brackets(nodes, y[keep])
        kept = np.cumsum([0] + [np.count_nonzero(keep[e:f]) for e, f in zip(edges, edges[1:])])
        vals, tmp = y[:d.size], np.empty_like(d)  # y is spent once d is taken

        def residual(g: int | None) -> tuple[float, float]:
            means, slopes = means_of[g], slopes_of[g]
            lo, hi = (0, 0) if g is None else (int(kept[g]), int(kept[g + 1]))
            n = d.size - (hi - lo)
            for src, dst in ((slice(0, lo), slice(0, lo)), (slice(hi, None), slice(lo, n))):
                # the indices are in range; mode "clip" lets take write to out unbuffered
                np.take(slopes, sj[src], out=vals[dst], mode="clip")
                vals[dst] *= d[src]
                np.take(means, a[src], out=tmp[dst], mode="clip")
                vals[dst] += tmp[dst]
            used = m_samples if g is None else m_samples - (edges[g + 1] - edges[g])
            expect = float(vals[:n].sum()) / used
            return expect, expect - float(_interpolate(nodes, means, x)[0])

        expect, res = residual(None)
        jk = np.array([residual(g)[1] for g in range(groups)])
        se = math.sqrt((groups - 1) / groups * float(np.sum((jk - jk.mean()) ** 2)))
        return HarmonicityPoint(
            x=x, table_value=float(_interpolate(nodes, table.means, x)[0]),
            expectation_value=expect, residual=abs(res), stderr=se,
            allowance=allowance, bound=3.0 * se + allowance,
        )

    return [jackknife_point(float(x)) for x in x_grid]
