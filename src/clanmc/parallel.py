"""Deterministic block scheduling for shardable Monte Carlo loops.

Replicates are grouped into fixed-size blocks keyed by block index, and
blocks are what workers execute.  Results are always assembled in block
order, so the worker count never touches the numbers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

# Most worker threads a run may ask for.  A sweep thread holds its own walk
# workspace (up to 384 MiB at the largest n), and the shard count never
# changes a number, so more threads than this only cost memory.
_MAX_SHARDS = 64


def block_sizes(total: int, block: int) -> list[int]:
    """Split `total` replicates into fixed blocks; only the last may be short."""
    if total < 1:
        raise ValueError(f"need at least one replicate, got {total}")
    full, rem = divmod(total, block)
    sizes = [block] * full
    if rem:
        sizes.append(rem)
    return sizes


def map_blocks(fn: Callable[[int], object], n_blocks: int, shards: int = 1) -> list:
    """Run fn(block_index) for every block, in block order.

    shards > 1 uses a thread pool (numpy kernels release the GIL); the
    result list is ordered by block index regardless.
    """
    indices = range(n_blocks)
    if shards <= 1 or n_blocks <= 1:
        return [fn(b) for b in indices]
    with ThreadPoolExecutor(max_workers=shards) as pool:
        return list(pool.map(fn, indices))
