"""Small-n oracle suite: every closed form checked against an independent route.

Five families of checks: brute-force generating-function composition versus
the closed survival form, the definitional product construction of the
only-surviving-clan functional, the individual-based simulator versus the
formulas, the one-step harmonicity of the estimated renewal-type function,
and the reversed-composition product identity.  The CLI `oracle` subcommand
runs all of them and reports one line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import assoc_walk, clan_sim, exact_fl
from .env_model import EnvironmentPath, EnvironmentSpec
from .estimators import _ExpRows, _log1ms, _log_extinction_cols, _log_h_cols, _log_survival_cols
from .mcstats import MCEstimate
from .streams import RngStream


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(deviations) -> float:
    """The largest deviation, nan if any is nan: a nan closed form fails its check."""
    return float(np.max(deviations))


def _walk_groups(xs: list[np.ndarray], clans: list[int]):
    """(n, i, case indices, _ExpRows of the negated walks) per (length n, clan i) group."""
    groups: dict[tuple[int, int], list[int]] = {}
    for r, (x, i) in enumerate(zip(xs, clans)):
        groups.setdefault((x.size, i), []).append(r)
    for (n, i), rows in groups.items():
        walks = np.zeros((len(rows), n + 1))
        np.cumsum([xs[r] for r in rows], axis=1, out=walks[:, 1:])  # build_walk's bits
        yield n, i, rows, _ExpRows(np.negative(walks, out=walks))


def _values(log_cols: np.ndarray) -> list[float]:
    return [math.exp(v) for v in log_cols.tolist()]  # as LogValue.value


def _survival_closed_rows(xs: list[np.ndarray], clans: list[int],
                          s_values: list[float]) -> np.ndarray:
    """exact_fl.survival_closed(w, i, n, s).value per case, w the walk of the n increments x.

    Each row is the scalar call's arithmetic, so each value has its bits.
    """
    out = np.empty(len(xs))
    for n, i, rows, neg in _walk_groups(xs, clans):
        log1ms = np.array([_log1ms(s_values[r]) for r in rows])
        out[rows] = _values(_log_survival_cols(neg, i, n, log1ms))
    return out


def _h_closed_rows(xs: list[np.ndarray], clans: list[int], s_grid) -> tuple:
    """exact_fl.h_functional(w, i, n, s).value per case and s, and the fsum of
    exact_fl.extinction_step_log(w, j, n) over j < n per case, with the scalar calls' bits."""
    h, telescoped = np.empty((len(xs), len(s_grid))), np.empty(len(xs))
    for n, i, rows, neg in _walk_groups(xs, clans):
        for c, s in enumerate(s_grid):
            h[rows, c] = _values(_log_h_cols(neg, i, n, s))
        steps = np.array([_log_extinction_cols(neg, j, n) for j in range(n)])
        telescoped[rows] = [math.fsum(col) for col in steps.T.tolist()]
    return h, telescoped


def mobius_equivalence_check(stream: RngStream) -> CheckResult:
    """Closed survival form against the brute-force composition fold."""
    tuples, max_n, tol = 1000, 20, 1e-10
    gen = stream.substream("diagnostics.mobius", 0)
    s_grid = (0.0, 0.25, 0.5, 0.9)
    xs, clans, s_values = [], [], []
    for _ in range(tuples):
        n = int(gen.integers(1, max_n + 1))
        clans.append(int(gen.integers(0, n)))
        xs.append(gen.normal(0.0, 1.0, n))
        s_values.append(s_grid[int(gen.integers(0, len(s_grid)))])
    direct = np.array([exact_fl.survival_bruteforce(x, i, x.size, s)
                       for x, i, s in zip(xs, clans, s_values)])
    closed = _survival_closed_rows(xs, clans, s_values)
    worst = _worst(np.abs(closed - direct) / np.maximum(np.abs(direct), 1e-300))
    return CheckResult(
        "mobius-equivalence", worst <= tol,
        f"max relative deviation {worst:.3e} over {tuples} tuples (tol {tol:.0e})")


def definitional_h_check(stream: RngStream) -> CheckResult:
    """h(s) against the literal product of composition factors, plus telescoping."""
    max_n, trials, tol, tol_telescope = 12, 60, 1e-9, 1e-10
    gen = stream.substream("diagnostics.h_definition", 0)
    s_grid = (0.0, 0.3, 0.5, 0.9)
    paths, clans = [], []
    for trial in range(trials):
        n = int(gen.integers(1, max_n + 1))
        clans.append(int(gen.integers(0, n)))
        paths.append(EnvironmentPath(np.zeros(n) if trial % 3 == 0 else gen.normal(0.0, 1.0, n)))
    closed, telescoped = _h_closed_rows([path.x for path in paths], clans, s_grid)
    direct = np.empty_like(closed)
    direct_log = np.empty(trials)
    for r, (path, i) in enumerate(zip(paths, clans)):
        n = path.n
        extinct = [exact_fl.compose_pgf_bruteforce(path, jj, n, 0.0) for jj in range(n) if jj != i]
        for c, s in enumerate(s_grid):
            direct[r, c] = exact_fl.survival_bruteforce(path.x, i, n, s)
            for f in extinct:
                direct[r, c] *= f
        w = assoc_walk.build_walk(path)
        direct_log[r] = -float(w[n]) - float(np.logaddexp.reduce(-w[:n + 1]))
    worst = _worst(np.abs(closed - direct) / np.maximum(np.abs(direct), 1e-300))
    worst_tel = _worst(np.abs(telescoped - direct_log))
    passed = worst <= tol and worst_tel <= tol_telescope
    return CheckResult(
        "h-definitional", passed,
        f"max relative deviation {worst:.3e} (tol {tol:.0e}); "
        f"telescoping log deviation {worst_tel:.3e} (tol {tol_telescope:.0e})")


def simulator_check(stream: RngStream, m_reps: int, m_reps_single: int,
                    shards: int | None = None) -> CheckResult:
    """Individual-based simulator against the closed forms (three-sigma agreement),
    by exact sums over the counts of sole surviving clans and sizes, each rounded once."""
    # one generation: the only-survivor event is just a positive offspring draw
    path1 = EnvironmentPath(np.array([0.4]))
    clan, _, count = clan_sim.final_clans_ensemble(path1, m_reps_single, stream, shards)
    p_hat = int(count[clan == 0].sum()) / m_reps_single
    p_exact = exact_fl.cond_event_prob(assoc_walk.build_walk(path1), 0, 1).value
    zs = {"one-step event": abs(p_hat - p_exact) / math.sqrt(p_hat * (1 - p_hat) / m_reps_single)}

    # flat environment, n=8, designated clan 3, at s in {0, 0.5}
    path8 = EnvironmentPath(np.zeros(8))
    w8 = assoc_walk.build_walk(path8)
    clan, size, count = clan_sim.final_clans_ensemble(path8, m_reps, stream, shards)
    size, count = size[clan == 3], count[clan == 3].tolist()
    for s in (0.0, 0.5):
        vals = [(c, Fraction(v)) for c, v in zip(count, (1.0 - s ** size).tolist())]
        est = MCEstimate(sum(c * v for c, v in vals), sum(c * v * v for c, v in vals), m_reps)
        zs[f"h(s={s})"] = abs(est.mean - exact_fl.h_functional(w8, 3, 8, s).value) / est.stderr

    detail = ", ".join(f"{name} z={z:.2f}" for name, z in zs.items())
    return CheckResult("simulator-vs-formula", all(z <= 3.0 for z in zs.values()),
                       detail + " (all must be <= 3)")


def harmonicity_check(spec: EnvironmentSpec, stream: RngStream, m_samples: int,
                      shards: int | None = None) -> CheckResult:
    """One-step harmonicity of the estimated staying-negative renewal function."""
    pts = assoc_walk.harmonicity_residual(
        spec, [0.0, 1.0, 2.0], horizon=2000, m_samples=m_samples, stream=stream, shards=shards)
    ok = all(p.passed for p in pts)
    detail = ", ".join(f"x={p.x:g}: residual {p.residual:.4f} vs bound {p.bound:.4f}" for p in pts)
    return CheckResult("u-harmonicity", ok, detail)


def reversed_product_check(stream: RngStream) -> CheckResult:
    """Sign-flipped reversed composition product against its prefix-sum closed form."""
    max_i, trials, tol = 15, 40, 1e-10
    gen = stream.substream("diagnostics.reversed_product", 0)
    deviations = []
    for _ in range(trials):
        i = int(gen.integers(2, max_i + 1))
        path = EnvironmentPath(gen.normal(0.0, 1.0, i))
        for z in (0.0, 0.3, 0.7):
            lhs = exact_fl.reversed_product_bruteforce(path, i, z)
            rhs = exact_fl.reversed_product_closed(path, i, z)
            deviations.append(abs(lhs - rhs) / max(abs(rhs), 1e-300))
    worst = _worst(deviations)
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
