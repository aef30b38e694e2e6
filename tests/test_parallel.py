import sys
import threading
import tracemalloc

import numpy as np
import pytest

from clanmc import (DomainError, EnvironmentPath, EnvironmentSpec, RegimeRule, RngStream,
                    assoc_walk, estimators, final_clans_ensemble, parallel)
from clanmc.cli import RunConfig
from clanmc.estimators import (_MAX_N, _SLAB_BYTES, _event_keys, _log_event_prob_cols,
                               _sweep, _sweep_sums)
from clanmc.mcstats import MCEstimate
from clanmc.parallel import _MAX_SHARDS, map_blocks, resolve_shards


GAUSS = EnvironmentSpec.gaussian(1.0)


class Interrupt(BaseException):
    """A BaseException that is not an Exception, like KeyboardInterrupt."""


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count the resolver sees; no thread is started."""
    def set_cpus(count):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: count)
    return set_cpus


class TestResolveShards:
    def test_one_usable_cpu_gives_one(self, cpus):
        cpus(1)
        assert resolve_shards(None) == 1

    def test_explicit_value_wins(self, cpus):
        cpus(1)
        assert resolve_shards(5) == 5

    def test_default_is_the_usable_cpus_up_to_the_cap(self, cpus):
        cpus(2)
        assert resolve_shards(None) == 2
        cpus(10_000)
        assert resolve_shards(None) == _MAX_SHARDS

    def test_default_threads_at_every_walk_length(self, cpus, monkeypatch):
        # a sweep thread's workspace does not grow with n, so no n caps the default
        seen = []

        def no_blocks(fn, n_blocks, shards):
            seen.append(shards)
        monkeypatch.setattr(estimators, "map_blocks", no_blocks)
        for count in (1, 2, 3, 8, 64, 10_000):
            cpus(count)
            for n in (1, 256, 8192, 16384, 32768, _MAX_N):
                config = RunConfig.from_strings({"seed": "1", "n": str(n), "n_grid": str(n)})
                assert config.shards == resolve_shards(None) == min(count, _MAX_SHARDS)
                _sweep(GAUSS, n, 512, RngStream(1), "test.default", None)
                assert seen.pop() == resolve_shards(None)


class TestSweepWorkspace:
    def test_peak_memory_bounded_at_the_largest_walk(self):
        # two slab arrays of 3 x 65537 doubles each (the walk, and the
        # increments or the exponentials in turn) and four buffered inputs of
        # m rows: about 3 MiB once warm, 3.7 MiB as a fresh process's first
        # call (4.5 and 5.2 MiB with an idle increment buffer)
        n, m = _MAX_N, 512

        def chunk_stage(rows):
            return {"p": MCEstimate.from_values(np.exp(_log_event_prob_cols(rows, n // 2, n))),
                    "end": MCEstimate.from_values(rows[n])}
        tracemalloc.start()
        try:
            stats = _sweep_sums(GAUSS, n, m, RngStream(3), "test.peak", 1, True,
                                _event_keys(n // 2, n), chunk_stage)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats["p"].count == stats["end"].count == m
        assert peak < 4 * _SLAB_BYTES + 2 * 8 * m


class TestMapBlocks:
    def test_single_block_runs_on_a_worker_when_sharded(self):
        caller, ran = threading.get_ident(), []
        assert map_blocks(lambda b: ran.append(threading.get_ident()), 1, 1) is None
        assert map_blocks(lambda b: ran.append(threading.get_ident()), 1, 2) is None
        assert ran[0] == caller != ran[1]

    def test_results_in_block_order(self):
        # each block writes its own output by index
        out = [None] * 7
        map_blocks(lambda b: out.__setitem__(b, b * b), 7, 3)
        assert out == [0, 1, 4, 9, 16, 25, 36]
        ran = []
        map_blocks(ran.append, 0, 2)
        assert ran == []

    def test_no_per_block_state_held(self):
        # workers claim block indices from one counter and no result is kept,
        # so nothing grows with the block count
        tracemalloc.start()
        try:
            map_blocks(lambda b: None, 1_000_000, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_lowest_failing_block_reaches_the_caller(self):
        ran = []

        def fn(b):
            ran.append(b)
            if b in (3, 5):
                raise ValueError(f"block {b}")
        with pytest.raises(ValueError, match="block 3"):
            map_blocks(fn, 1000, 2)
        # each worker stops at its first failure and no block is claimed after one is
        # recorded, so block 5 is the last that can run; every block before 3 ran
        assert sorted(ran) == list(range(len(ran))) and 4 <= len(ran) <= 6

    def test_base_exception_of_the_lowest_failing_block_reaches_the_caller(self):
        # an exception that is not an Exception, like KeyboardInterrupt, is
        # recorded too: the caller gets the lowest failing block's
        ran = []

        def fn(b):
            ran.append(b)
            if b in (3, 5):
                raise Interrupt(f"block {b}")
        with pytest.raises(Interrupt, match="block 3"):
            map_blocks(fn, 1000, 2)
        assert sorted(ran) == list(range(len(ran))) and 4 <= len(ran) <= 6

    def test_every_block_runs_once_under_contention(self):
        # more workers than cores and a short switch interval: a block claimed
        # twice or never would show in the counts
        calls = [0] * 20_000

        def fn(b):
            calls[b] += 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            map_blocks(fn, 20_000, 16)
        finally:
            sys.setswitchinterval(interval)
        assert calls == [1] * 20_000


def test_library_default_is_the_resolved_count(monkeypatch):
    seen = []
    for mod in (assoc_walk, estimators):
        def counting(fn, n_blocks, shards=None, _orig=mod.map_blocks):
            seen.append(shards)
            return _orig(fn, n_blocks, shards)
        monkeypatch.setattr(mod, "map_blocks", counting)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    spec, stream = EnvironmentSpec.gaussian(1.0), RngStream(5)
    assoc_walk.estimate_table(spec, [0.0, 1.0], horizon=50, m_samples=5000, stream=stream)
    estimators._sweep(spec, 8, 600, stream, "test.default", lambda s: {"end": s[:, -1].copy()})
    assert seen == [3, 3]


@pytest.mark.parametrize("shards", [0, 2.5, True, 65, 10**6])
@pytest.mark.parametrize("run", [
    lambda shards: estimators.estimate_event_prob_grid(
        GAUSS, RegimeRule("end_window", 3), [8, 16], 600, RngStream(1), shards),
    lambda shards: assoc_walk.harmonicity_residual(GAUSS, [0.0], 50, 5000, RngStream(1), shards),
    lambda shards: final_clans_ensemble(EnvironmentPath(np.zeros(4)), 100, RngStream(1), shards),
], ids=["estimator", "harmonicity_residual", "simulate_ensemble"])
def test_library_shard_count_refused_before_drawing(run, shards, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("a stream or thread started before the shard-count refusal")
    monkeypatch.setattr(parallel.threading, "Thread", started)
    monkeypatch.setattr(RngStream, "substream", started)
    with pytest.raises(DomainError, match=f"shards must be between 1 and {_MAX_SHARDS}"):
        run(shards)
