import threading

import pytest

from clanmc import EnvironmentSpec, RngStream, assoc_walk, estimators, parallel
from clanmc.estimators import _MAX_N, sweep_shards, sweep_workspace
from clanmc.parallel import _MAX_SHARDS, map_blocks, resolve_shards


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
        assert sweep_shards(None, 256) == 1

    def test_explicit_value_wins(self, cpus):
        cpus(1)
        assert resolve_shards(5) == 5
        cpus(64)
        assert sweep_shards(3, _MAX_N) == 3

    def test_default_is_the_usable_cpus_up_to_the_cap(self, cpus):
        cpus(2)
        assert resolve_shards(None) == 2
        cpus(8)
        assert resolve_shards(None, most=3) == 3
        assert sweep_shards(None, 4096) == 8
        cpus(10_000)
        assert resolve_shards(None) == _MAX_SHARDS

    def test_sweep_threads_hold_no_more_than_one_thread_at_largest_n(self, cpus):
        budget = sweep_workspace(_MAX_N)
        assert 380 * 2**20 < budget < 390 * 2**20  # about 6 KiB per unit of n
        for count in (1, 2, 3, 8, 64, 10_000):
            cpus(count)
            for n in (1, 256, 8192, 16384, 32768, _MAX_N):
                shards = sweep_shards(None, n)
                assert 1 <= shards <= min(count, _MAX_SHARDS)
                assert shards * sweep_workspace(n) <= budget
        cpus(64)
        assert sweep_shards(None, _MAX_N) == 1
        assert sweep_shards(None, 32768) == 1
        assert sweep_shards(None, 16384) == 3
        assert sweep_shards(None, 8192) == 7

    def test_walk_beyond_the_limit_gets_one_thread(self, cpus):
        cpus(64)
        assert sweep_shards(None, _MAX_N + 1) == 1
        assert sweep_shards(None, 10**300) == 1


class TestMapBlocks:
    def test_single_block_runs_on_a_worker_when_sharded(self):
        caller = threading.get_ident()
        assert map_blocks(lambda b: threading.get_ident(), 1, 1) == [caller]
        assert map_blocks(lambda b: threading.get_ident(), 1, 2) != [caller]

    def test_results_in_block_order(self):
        assert map_blocks(lambda b: b * b, 7, 3) == [0, 1, 4, 9, 16, 25, 36]
        assert map_blocks(lambda b: b, 0, 2) == []


def test_library_default_is_the_resolved_count(monkeypatch):
    seen = []
    for mod in (assoc_walk, estimators):
        def counting(fn, n_blocks, shards=None, _orig=mod.map_blocks):
            seen.append(shards)
            return _orig(fn, n_blocks, shards)
        monkeypatch.setattr(mod, "map_blocks", counting)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    spec, stream = EnvironmentSpec.gaussian(1.0), RngStream(5)
    assoc_walk.estimate_table(spec, "u", [0.0, 1.0], horizon=50, m_samples=5000, stream=stream)
    estimators._sweep(spec, 8, 600, stream, "test.default", lambda s: {"end": s[:, -1].copy()})
    assert seen == [3, 3]
