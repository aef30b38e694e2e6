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
from .errors import DomainError, NumericalFailureError
from .parallel import block_sizes, map_blocks
from .streams import RngStream

# Abort rather than saturate: a clipped trajectory would silently corrupt
# conditional tail estimates.
_COUNT_LIMIT = np.int64(2) ** 62
_MEAN_LIMIT = 1e15


def _reproduce(clans: np.ndarray, m: float, rng: np.random.Generator) -> np.ndarray:
    """Next sizes of all clans under mean-m geometric offspring.

    Sum of y i.i.d. geometrics is negative binomial with y successes, one
    draw per living clan (in row-major order) rather than per individual.
    """
    _, q = offspring_params(m)
    out = np.zeros_like(clans)
    alive = clans > 0
    if alive.any():
        y = clans[alive]
        if float(y.max()) * m > _MEAN_LIMIT:
            raise NumericalFailureError("clan size beyond reliable 64-bit sampling range")
        out[alive] = rng.negative_binomial(y, q)
    if out.max(initial=0) > _COUNT_LIMIT:
        raise NumericalFailureError("clan count overflow")
    return out


def final_clans_ensemble(path: EnvironmentPath, m_reps: int, stream: RngStream,
                         shards: int = 1, purpose: str = "clan_sim.ensemble") -> np.ndarray:
    """Pre-immigration clan matrix at time n for m_reps independent runs.

    Row r holds the clan sizes (columns = founding generation) of replicate
    r after the final reproduction step: the final generation is observed
    after reproduction and before its immigrant enters, matching the
    only-surviving-clan event definition.
    """
    n = path.n
    sizes = block_sizes(m_reps, 65536)

    def run_block(b: int) -> np.ndarray:
        rng = stream.substream(purpose, b)
        clans = np.zeros((sizes[b], n), dtype=np.int64)
        clans[:, 0] = 1
        for t in range(1, n + 1):
            clans[:, :t] = _reproduce(clans[:, :t], float(np.exp(path.x[t - 1])), rng)
            if t < n:
                clans[:, t] = 1
        return clans

    return np.concatenate(map_blocks(run_block, len(sizes), shards), axis=0)


def simulate_ensemble(path: EnvironmentPath, i: int, m_reps: int, stream: RngStream,
                      shards: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z_in, y_minus, event_a) arrays over m_reps independent replicates."""
    n = path.n
    if not 0 <= i < n:
        raise DomainError(f"need 0 <= i < n = {n}, got i = {i}")
    clans = final_clans_ensemble(path, m_reps, stream, shards)
    y_minus = clans.sum(axis=1)
    z_in = clans[:, i]
    event_a = (y_minus > 0) & (z_in == y_minus)
    return z_in, y_minus, event_a
