"""Batched individual-based simulator with per-immigrant clan tracking.

One immigrant enters per generation; the initial individual is the
generation-0 immigrant.  Each clan reproduces as a sum of i.i.d. geometric
offspring, drawn as a single negative-binomial variate per clan, which is
exact in distribution and keeps conditioned population sizes (order
e^{sqrt(n)}) tractable.  Replicates run side by side as the rows of one
clan matrix.  This simulator is the definitional oracle for the
closed-form clan functionals at small n; production estimates never use it.
"""

from __future__ import annotations

import numpy as np

from .env_model import EnvironmentPath, offspring_params
from .errors import NumericalFailureError, check_count, check_index
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
    one draw per living clan, in row-major order, rather than per
    individual.  clans (replicates along the first axis) is updated in
    place, _REPRODUCE_CELLS cells at a time; the batches draw the stream in
    the order of one draw over the whole matrix.  Sizes are nonnegative,
    so the living clans are the nonzero cells.
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


def final_clans_ensemble(path: EnvironmentPath, m_reps: int, stream: RngStream,
                         shards: int | None = None) -> np.ndarray:
    """Pre-immigration clan matrix at time n for m_reps independent runs.

    Row r holds the clan sizes (columns = founding generation) of replicate
    r after the final reproduction step: the final generation is observed
    after reproduction and before its immigrant enters, matching the
    only-surviving-clan event definition.
    """
    check_count("m_reps", m_reps)
    n = path.n
    n_blocks = block_count(m_reps, _SIM_BLOCK)
    clans = np.zeros((m_reps, n), dtype=np.int64)

    def run_block(b: int) -> None:
        rng = stream.substream("clan_sim.ensemble", b)
        block = clans[b * _SIM_BLOCK:(b + 1) * _SIM_BLOCK]
        block[:, 0] = 1
        # the clans founded after generation t - 1 are still 0, so reproducing
        # the whole contiguous block draws what block[:, :t] would
        for t in range(1, n + 1):
            _reproduce(block, float(np.exp(path.x[t - 1])), rng)
            if t < n:
                block[:, t] = 1

    map_blocks(run_block, n_blocks, resolve_shards(shards))
    return clans


def simulate_ensemble(path: EnvironmentPath, i: int, m_reps: int, stream: RngStream,
                      shards: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z_in, y_minus, event_a) arrays over m_reps independent replicates."""
    check_index("clan index i", i, path.n)
    clans = final_clans_ensemble(path, m_reps, stream, shards)
    y_minus = clans.sum(axis=1)
    z_in = clans[:, i]
    event_a = (y_minus > 0) & (z_in == y_minus)
    return z_in, y_minus, event_a
