"""Small-n oracle suite: every closed form checked against an independent route.

Four families of checks: brute-force generating-function composition versus
the closed survival form, the definitional product construction of the
only-surviving-clan functional, the individual-based simulator versus the
formulas, the one-step harmonicity of the estimated renewal-type function,
and the reversed-composition product identity.  The CLI `oracle` subcommand
runs all of them and reports one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assoc_walk, clan_sim, exact_fl
from .env_model import EnvironmentPath, EnvironmentSpec
from .streams import RngStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def mobius_equivalence_check(stream: RngStream) -> CheckResult:
    """Closed survival form against the brute-force composition fold."""
    tuples, max_n, tol = 1000, 20, 1e-10
    gen = stream.substream("diagnostics.mobius", 0)
    s_grid = (0.0, 0.25, 0.5, 0.9)
    worst = 0.0
    for _ in range(tuples):
        n = int(gen.integers(1, max_n + 1))
        i = int(gen.integers(0, n))
        path = EnvironmentPath(gen.normal(0.0, 1.0, n))
        w = assoc_walk.build_walk(path)
        s = s_grid[int(gen.integers(0, len(s_grid)))]
        direct = exact_fl.survival_bruteforce(path, i, n, s)
        closed = exact_fl.survival_closed(w, i, n, s).value
        worst = max(worst, abs(closed - direct) / max(abs(direct), 1e-300))
    return CheckResult(
        "mobius-equivalence", worst <= tol,
        f"max relative deviation {worst:.3e} over {tuples} tuples (tol {tol:.0e})")


def definitional_h_check(stream: RngStream) -> CheckResult:
    """h(s) against the literal product of composition factors, plus telescoping."""
    max_n, trials, tol, tol_telescope = 12, 60, 1e-9, 1e-10
    gen = stream.substream("diagnostics.h_definition", 0)
    s_grid = (0.0, 0.3, 0.5, 0.9)
    worst = 0.0
    worst_tel = 0.0
    for trial in range(trials):
        n = int(gen.integers(1, max_n + 1))
        i = int(gen.integers(0, n))
        if trial % 3 == 0:
            path = EnvironmentPath(np.zeros(n))  # flat environment
        else:
            path = EnvironmentPath(gen.normal(0.0, 1.0, n))
        w = assoc_walk.build_walk(path)
        for s in s_grid:
            direct = exact_fl.survival_bruteforce(path, i, n, s)
            for jj in range(n):
                if jj != i:
                    direct *= exact_fl.compose_pgf_bruteforce(path, jj, n, 0.0)
            closed = exact_fl.h_functional(w, i, n, s).value
            worst = max(worst, abs(closed - direct) / max(abs(direct), 1e-300))
        prod = math.fsum(exact_fl.extinction_step_log(w, jj, n) for jj in range(n))
        direct_log = -float(w[n]) - float(np.logaddexp.reduce(-w[:n + 1]))
        worst_tel = max(worst_tel, abs(prod - direct_log))
    passed = worst <= tol and worst_tel <= tol_telescope
    return CheckResult(
        "h-definitional", passed,
        f"max relative deviation {worst:.3e} (tol {tol:.0e}); "
        f"telescoping log deviation {worst_tel:.3e} (tol {tol_telescope:.0e})")


def simulator_check(stream: RngStream, m_reps: int, m_reps_single: int,
                    shards: int | None = None) -> CheckResult:
    """Individual-based simulator against the closed forms (three-sigma agreement)."""
    details = []
    ok = True

    # one generation: the only-survivor event is just a positive offspring draw
    path1 = EnvironmentPath(np.array([0.4]))
    w1 = assoc_walk.build_walk(path1)
    _, _, event = clan_sim.simulate_ensemble(path1, 0, m_reps_single, stream, shards)
    p_hat = event.mean()
    p_exact = exact_fl.cond_event_prob(w1, 0, 1).value
    se = math.sqrt(p_hat * (1.0 - p_hat) / m_reps_single)
    z = abs(p_hat - p_exact) / se
    ok &= z <= 3.0
    details.append(f"one-step event z={z:.2f}")

    # flat environment, n=8, designated clan 3, at s in {0, 0.5}
    path8 = EnvironmentPath(np.zeros(8))
    w8 = assoc_walk.build_walk(path8)
    z_in, _, event = clan_sim.simulate_ensemble(path8, 3, m_reps, stream, shards)
    for s in (0.0, 0.5):
        vals = np.where(event, 1.0 - s ** z_in, 0.0)
        target = exact_fl.h_functional(w8, 3, 8, s).value
        se = vals.std(ddof=1) / math.sqrt(m_reps)
        z = abs(vals.mean() - target) / se
        ok &= z <= 3.0
        details.append(f"h(s={s}) z={z:.2f}")

    return CheckResult("simulator-vs-formula", bool(ok), ", ".join(details) + " (all must be <= 3)")


def harmonicity_check(spec: EnvironmentSpec, stream: RngStream, m_samples: int,
                      shards: int | None = None) -> CheckResult:
    """One-step harmonicity of the estimated staying-negative renewal function."""
    pts = assoc_walk.harmonicity_residual(
        spec, [0.0, 1.0, 2.0], horizon=2000, m_samples=m_samples, stream=stream, side="u",
        shards=shards)
    ok = all(p.passed for p in pts)
    detail = ", ".join(f"x={p.x:g}: residual {p.residual:.4f} vs bound {p.bound:.4f}" for p in pts)
    return CheckResult("u-harmonicity", ok, detail)


def reversed_product_check(stream: RngStream) -> CheckResult:
    """Sign-flipped reversed composition product against its prefix-sum closed form."""
    max_i, trials, tol = 15, 40, 1e-10
    gen = stream.substream("diagnostics.reversed_product", 0)
    worst = 0.0
    for _ in range(trials):
        i = int(gen.integers(2, max_i + 1))
        path = EnvironmentPath(gen.normal(0.0, 1.0, i))
        for z in (0.0, 0.3, 0.7):
            lhs = exact_fl.reversed_product_bruteforce(path, i, z)
            rhs = exact_fl.reversed_product_closed(path, i, z)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return CheckResult(
        "reversed-product-identity", worst <= tol,
        f"max relative deviation {worst:.3e} over {trials} trials (tol {tol:.0e})")


def run_oracle_suite(spec: EnvironmentSpec, stream: RngStream, m_samples: int,
                     shards: int | None = None) -> list[CheckResult]:
    """The full small-n oracle suite in a fixed order.

    The harmonicity check runs first, so a config it refuses costs no other
    work; the streams are keyed by purpose, so the order changes no number.
    The persistence scan and the simulator run their blocks on `shards`
    threads.
    """
    harmonicity = harmonicity_check(spec, stream, m_samples, shards)
    return [
        mobius_equivalence_check(stream),
        definitional_h_check(stream),
        simulator_check(stream, m_reps=max(m_samples, 50_000),
                        m_reps_single=max(5 * m_samples, 200_000), shards=shards),
        harmonicity,
        reversed_product_check(stream),
    ]
