"""Deterministic block scheduling for shardable Monte Carlo loops.

Replicates are grouped into fixed-size blocks keyed by block index, and
blocks are what workers execute.  A block is only its index: it derives
its replicates and writes its output from that, so the worker count
never touches the numbers.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

from .errors import DomainError, _is_integer

# Most worker threads a run may ask for.  The shard count never changes a
# number, so more threads than this only cost memory.
_MAX_SHARDS = 64


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def resolve_shards(shards: int | None) -> int:
    """The worker-thread count of a run: `shards` when given, else the default.

    A given count is an integer in [1, _MAX_SHARDS]; numpy integers pass.
    The default is the usable CPUs, at most _MAX_SHARDS, and at least one.
    """
    if shards is None:
        return max(1, min(usable_cpus(), _MAX_SHARDS))
    if not _is_integer(shards) or not 1 <= shards <= _MAX_SHARDS:
        raise DomainError(f"shards must be between 1 and {_MAX_SHARDS}, got {shards!r}")
    return shards


def block_count(total: int, block: int) -> int:
    """Blocks of `total` replicates: block b holds b*block up to min((b+1)*block, total)."""
    if total < 1:
        raise ValueError(f"need at least one replicate, got {total}")
    return -(-total // block)


def map_blocks(fn: Callable[[int], None], n_blocks: int, shards: int = 1) -> None:
    """Run fn(block_index) once for every block; each block writes its own output.

    shards is a resolved count (see resolve_shards).  shards > 1 runs the
    blocks on min(shards, n_blocks) worker threads (numpy kernels release
    the GIL), a single block too: its temporaries then live in a worker's
    malloc arena, not stacked on the caller's.  Each worker claims the next
    block index from one shared counter, so nothing is held per block.
    After a block raises (any BaseException), no further block is claimed,
    and once every worker has stopped the caller gets the exception of the
    lowest failing block.
    """
    if shards <= 1 or n_blocks < 1:
        for b in range(n_blocks):
            fn(b)
        return
    failed: dict[int, BaseException] = {}
    pending = iter(range(n_blocks))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                b = None if failed else next(pending, None)
            if b is None:
                return
            try:
                fn(b)
            except BaseException as exc:
                with lock:
                    failed[b] = exc
                return

    workers = [threading.Thread(target=work) for _ in range(min(shards, n_blocks))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if failed:
        raise failed[min(failed)]
