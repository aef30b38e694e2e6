"""Batched individual-based simulator with per-immigrant clan tracking.

One immigrant enters per generation; the initial individual is the
generation-0 immigrant.  Each clan reproduces as a sum of i.i.d. geometric
offspring, drawn as a single negative-binomial variate per clan, which is
exact in distribution and keeps conditioned population sizes (order
e^{sqrt(n)}) tractable.  Replicates run side by side as the rows of a clan
matrix per block, which its thread reduces to sole-survivor counts.  This
simulator is the definitional oracle for the closed-form clan functionals
at small n; production estimates never use it.
"""

from __future__ import annotations

import numpy as np

from .env_model import EnvironmentPath, offspring_params
from .errors import NumericalFailureError, check_count
from .parallel import block_count, map_blocks, resolve_shards
from .streams import RngStream

# Abort rather than saturate: a clipped trajectory would silently corrupt
# conditional tail estimates.
_COUNT_LIMIT = np.int64(2) ** 62
_MEAN_LIMIT = 1e15
# Replicates per substream block, small enough that the oracle's 50 000
# replicates make several blocks to thread, and clan cells reproduced per
# batch: a batch of living cells traces about 1.27 MiB, its indices, sizes
# and draws plus the float copy of the sizes negative_binomial makes.
_SIM_BLOCK = 8192
_REPRODUCE_CELLS = 32768


def _reproduce(clans: np.ndarray, m: float, rng: np.random.Generator) -> None:
    """Replace every clan size by its size one mean-m geometric generation later.

    The sum of y i.i.d. geometrics is negative binomial with y successes:
    one draw per living (nonzero) clan, in row-major order, rather than per
    individual.  clans is updated in place, _REPRODUCE_CELLS cells at a
    time; the batches draw the stream in the order of one draw over the
    whole matrix.
    """
    if not clans.flags.c_contiguous:
        raise ValueError("clans must be C-contiguous to be updated in place")
    _, q = offspring_params(m)
    if float(clans.max(initial=0)) * m > _MEAN_LIMIT:
        raise NumericalFailureError("clan size beyond reliable 64-bit sampling range")
    flat = clans.reshape(-1)
    for lo in range(0, flat.size, _REPRODUCE_CELLS):
        cells = flat[lo:lo + _REPRODUCE_CELLS]
        alive = np.flatnonzero(cells)
        if alive.size:
            draws = rng.negative_binomial(cells[alive], q)
            if draws.max() > _COUNT_LIMIT:
                raise NumericalFailureError("clan count overflow")
            cells[alive] = draws


def _block_clans(path: EnvironmentPath, m_reps: int, stream: RngStream, b: int) -> np.ndarray:
    """Block b of the clan sizes at time n of m_reps replicates (columns = founding
    generation), observed after reproduction and before the immigrant of
    generation n enters, matching the only-surviving-clan event definition."""
    rng = stream.substream("clan_sim.ensemble", b)
    clans = np.zeros((min(_SIM_BLOCK, m_reps - b * _SIM_BLOCK), path.n), dtype=np.int64)
    clans[:, 0] = 1
    # clans not founded yet are 0 and draw nothing: the draws of clans[:, :t]
    for t, x in enumerate(path.x, start=1):
        _reproduce(clans, float(np.exp(x)), rng)
        clans[:, t:t + 1] = 1  # generation t's immigrant; the slice is empty at t = n
    return clans


def _tally(clan: np.ndarray, size: np.ndarray, count: np.ndarray):
    """count summed over equal (clan, size) pairs, sorted by clan, then size."""
    order = np.lexsort((size, clan))
    clan, size, count = clan[order], size[order], count[order]
    first = np.flatnonzero(np.diff(clan, prepend=-1) | np.diff(size, prepend=-1))
    return clan[first], size[first], np.add.reduceat(count, first)


def final_clans_ensemble(path: EnvironmentPath, m_reps: int, stream: RngStream,
                         shards: int | None = None) -> tuple:
    """(clan, size, count): of m_reps independent runs, count[k] end with clan[k]
    the only clan alive at time n, at size size[k]; the other m_reps - count.sum()
    end with no sole survivor.

    Each block of _SIM_BLOCK replicates draws its clan matrix (_block_clans)
    from its own substream, and its thread reduces it to these counts,
    sparse since sizes reach 2**62: no replicate-length array exists.
    """
    check_count("m_reps", m_reps)
    parts = [None] * block_count(m_reps, _SIM_BLOCK)

    def run_block(b: int) -> None:
        clans = _block_clans(path, m_reps, stream, b).reshape(-1)
        alive = np.flatnonzero(clans)  # sizes are nonnegative
        row = alive // path.n
        sole = alive[np.bincount(row)[row] == 1]  # the only living clan of its replicate
        parts[b] = _tally(sole % path.n, clans[sole], np.ones(sole.size, dtype=np.int64))

    map_blocks(run_block, len(parts), resolve_shards(shards))
    return _tally(*(np.concatenate(col) for col in zip(*parts)))
