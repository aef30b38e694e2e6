"""The benchmark's per-layer tracer still finds every clanmc name it wraps.

perfbench/tracing.py patches module attributes of clanmc by name from
outside the package.  This test loads it from its path, traces one small
`lst` estimate and one scalar closed-form call, and checks that the layers
counted work and that uninstalling restores every attribute, so renaming a
traced name fails here and not only in a traced benchmark run.  The
wrappers rebind `_sweep` by position, so every sweep route also runs
traced and must give the untraced results: a parameter added to `_sweep`
would otherwise be taken as its shard count without any error.  The
oracle's simulator check runs traced too: the tracer counts replicates
where the check enters `clan_sim.final_clans_ensemble`, so a renamed or
bypassed entry point would read 0 replicates.
"""

import importlib.util
from pathlib import Path

import math

import numpy as np
import pytest

from clanmc import (EnvironmentPath, EnvironmentSpec, RegimeRule, RngStream, assoc_walk,
                    diagnostics, estimators, exact_fl)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_traced_names():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # inside the try: a half-done install is undone too
        patched = [(owner, attr, owner.__dict__[attr], original)
                   for owner, attr, original in tracer._saved]
        estimators.estimate_lambda(EnvironmentSpec.gaussian(1.0), RegimeRule.proportional(0.5),
                                   16, [1.0, float("inf")], 300, RngStream(1))
        walk = assoc_walk.build_walk(EnvironmentPath(np.array([0.3, -0.2, 0.5])))
        assert 0.0 < exact_fl.cond_event_prob(walk, 1, 3).value < 1.0
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    for key in ("estimators.lse_calls", "mcstats.exact_sum_values", "exact_fl.scalar_calls"):
        assert metrics[key] > 0, key
    assert patched
    for owner, attr, wrapper, original in patched:
        assert wrapper is not original, attr
        assert owner.__dict__[attr] is original, attr


GAUSS = EnvironmentSpec.gaussian(1.0)
ROUTES = {
    "prob-grid": lambda stream: estimators.estimate_event_prob_grid(
        GAUSS, RegimeRule.fixed_i(2), [32, 8, 16, 8], 700, stream, shards=2),
    "strata": lambda stream: estimators.strata_decomposition(
        GAUSS, 48, 64, 1.0, 3, 700, stream, shards=2),
    "duality": lambda stream: estimators.duality_check(
        GAUSS, 12, 16, [0.5, math.inf], 700, stream, shards=2),
    "pgf": lambda stream: estimators.estimate_theta(
        GAUSS, 3, 32, [0.0, 0.5, 1.0], 700, stream, shards=2),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_traced_routes_give_untraced_results(route):
    untraced = ROUTES[route](RngStream(8))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        traced = ROUTES[route](RngStream(8))
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert metrics["estimators.sweep_cells"] > 0 and metrics["mcstats.exact_sum_values"] > 0


def test_traced_simulator_check_counts_its_replicates():
    def run():  # two blocks at n = 8, three at n = 1
        return diagnostics.simulator_check(RngStream(3), 10_000, 20_000, shards=2)

    untraced = run()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        traced = run()
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert metrics["clan_sim.replicates"] == 10_000 + 20_000
    assert metrics["clan_sim.ensemble_s"] > 0
