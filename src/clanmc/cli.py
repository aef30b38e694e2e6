"""Configuration, orchestration and bit-stable result emission.

Configuration is a flat key=value text file with command-line overrides.
Results are newline-delimited JSON records, one per (quantity, n, grid
point), or a CSV mirror of the same columns.  The seed is mandatory; a
rerun of an identical config byte-reproduces every numeric result field,
and the shard count never changes the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

from . import __version__, diagnostics, estimators
from .env_model import EnvironmentSpec, validate_spec
from .errors import (AssumptionViolationError, ClanMCError, ConfigurationError,
                     DomainError, NumericalFailureError)
from .estimators import RegimeRule
from .streams import RngStream

_RESULT_KEYS = ("quantity", "n", "i", "param", "mean", "stderr", "count", "tag")

SUBCOMMANDS = ("validate", "prob", "pgf", "lst", "scaling", "duality", "strata", "oracle")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"expected a number, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [p for p in (piece.strip() for piece in text.split(",")) if p]
    if not items:
        raise ConfigurationError("grid must not be empty")
    return tuple(_parse_float(p) for p in items)


def _parse_int_list(text: str) -> tuple[int, ...]:
    vals = _parse_float_list(text)
    for v in vals:
        if not (math.isfinite(v) and v == int(v)):
            raise ConfigurationError(f"expected integers, got {v}")
    return tuple(int(v) for v in vals)


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected an integer, got {text!r}") from exc


def _word(text: str) -> str:
    return text.strip().lower()


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


# Every config key once, in echo order: (key, default, parser, formatter).
# The default None marks the mandatory seed; each key is also the flag
# "--" + key with "_" turned into "-".
_KEYS = (
    ("family", "gaussian", _word, str),
    ("sigma", "1.0", _parse_float, repr),
    ("halfwidth", "1.0", _parse_float, repr),
    ("step", "0.7", _parse_float, repr),
    ("regime", "end_window", _word, str),
    ("regime_param", "3", _parse_float, repr),
    ("n", "", lambda t: _parse_int(t) if t.strip() else None, lambda v: "" if v is None else str(v)),
    ("n_grid", "256,512,1024,2048,4096,8192", _parse_int_list, _join),
    ("m_samples", "100000", _parse_int, str),
    ("s_grid", "0,0.25,0.5,0.75,1", _parse_float_list, _join),
    ("beta_grid", "1e-4,1e-2,1,1e2,inf", _parse_float_list, _join),
    ("strata_N", "20", _parse_int, str),
    ("seed", None, _parse_int, str),
    ("shards", "1", _parse_int, str),
    ("out", "", lambda t: t.strip() or None, lambda v: v or ""),
    ("format", "json", _word, str),
    ("allow_assumption_violations", "false", _parse_bool, lambda v: "true" if v else "false"),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; the echo re-parses to an equal config."""

    family: str
    sigma: float
    halfwidth: float
    step: float
    regime: str
    regime_param: float
    n: int | None
    n_grid: tuple[int, ...]
    m_samples: int
    s_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    strata_N: int
    seed: int
    shards: int
    out: str | None
    format: str
    allow_assumption_violations: bool

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ConfigurationError(f"format must be json or csv, got {self.format!r}")
        if self.m_samples < 2:  # one sample has no standard error
            raise ConfigurationError(f"m_samples must be at least 2, got {self.m_samples}")
        if self.shards < 1:
            raise ConfigurationError("shards must be positive")
        if not self.n_grid or not self.s_grid or not self.beta_grid:
            raise ConfigurationError("grids must be nonempty")

    @staticmethod
    def from_strings(values: dict[str, str]) -> "RunConfig":
        merged = {key: default for key, default, _, _ in _KEYS}
        unknown = set(values) - set(merged)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        merged.update({k: v for k, v in values.items() if v is not None})
        if merged["seed"] is None or str(merged["seed"]).strip() == "":
            raise ConfigurationError("seed is mandatory (no wall-clock default)")
        fields = {}
        for key, _, parse, _ in _KEYS:
            try:
                fields[key] = parse(str(merged[key]))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{key}: {exc}") from exc
        return RunConfig(**fields)

    def env_spec(self) -> EnvironmentSpec:
        if self.family == "gaussian":
            return EnvironmentSpec.gaussian(self.sigma)
        if self.family == "uniform":
            return EnvironmentSpec.uniform_symmetric(self.halfwidth)
        if self.family == "twopoint":
            return EnvironmentSpec.two_point(self.step)
        raise ConfigurationError(f"unknown family {self.family!r}")

    def rule(self) -> RegimeRule:
        try:
            return RegimeRule(self.regime, self.regime_param)
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from exc

    def single_n(self) -> int:
        return self.n if self.n is not None else max(self.n_grid)

    def echo_dict(self) -> dict:
        return {key: fmt(getattr(self, key)) for key, _, _, fmt in _KEYS}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; keys must be known."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigurationError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return out


def _record(quantity, n=None, i=None, param=None, mean=None, stderr=None, count=None, tag=""):
    if param is not None and isinstance(param, float) and math.isinf(param):
        param = "inf"
    return {
        "quantity": quantity, "n": n, "i": i, "param": param,
        "mean": mean, "stderr": stderr, "count": count, "tag": tag,
    }


@dataclass(frozen=True)
class RunOutcome:
    records: list
    report_lines: list
    exit_code: int


def _run_validate(config: RunConfig, stream: RngStream) -> RunOutcome:
    report = validate_spec(config.env_spec())
    records = [_record("validate", mean=1.0 if report.conforms else 0.0,
                       tag="conforms" if report.conforms else "non-conforming")]
    lines = [f"{k}: {v}" for k, v in report.as_dict().items()]
    return RunOutcome(records, lines, 0)


def _run_prob(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    records = []
    for n in config.n_grid:
        res = estimators.estimate_event_prob(
            spec, rule, n, config.m_samples, stream, config.shards,
            config.allow_assumption_violations)
        e = res.estimate
        records.append(_record("prob", n=res.n, i=res.i, mean=e.mean,
                               stderr=e.stderr, count=e.count, tag=res.tag))
    return RunOutcome(records, [], 0)


def _transform_outcome(quantity: str, n: int, i: int, results) -> RunOutcome:
    return RunOutcome([_record(quantity, n=n, i=i, param=r.param, mean=r.value,
                               stderr=r.stderr, count=r.count, tag=r.tag)
                       for r in results], [], 0)


def _run_pgf(config: RunConfig, stream: RngStream) -> RunOutcome:
    if config.regime != estimators.END_WINDOW:
        raise ConfigurationError("the pgf subcommand is defined for the end_window regime")
    n, end_window = config.single_n(), int(config.rule().param)
    return _transform_outcome("pgf", n, n - end_window, estimators.estimate_theta(
        config.env_spec(), end_window, n, config.s_grid,
        config.m_samples, stream, config.shards, config.allow_assumption_violations))


def _run_lst(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    n = config.single_n()
    return _transform_outcome("lst", n, rule.clan_index(n), estimators.estimate_lambda(
        spec, rule, n, config.beta_grid, config.m_samples, stream, config.shards,
        config.allow_assumption_violations))


def _run_scaling(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    fit = estimators.scaling_study(
        spec, rule, config.n_grid, config.m_samples, stream, config.shards,
        config.allow_assumption_violations)
    records = []
    for quantity, points in (("scaling-point", fit.points), ("scaling-dropped", fit.dropped)):
        for p in points:
            e = p.estimate
            records.append(_record(quantity, n=p.n, i=p.i, mean=e.mean,
                                   stderr=e.stderr, count=e.count, tag=fit.tag))
    records.append(_record("scaling-slope", mean=fit.slope, stderr=fit.slope_stderr, tag=fit.tag))
    records.append(_record("scaling-intercept", mean=fit.intercept, tag=fit.tag))
    records.append(_record("scaling-plateau", mean=fit.plateau, tag=fit.tag))
    for k, r in enumerate(fit.ratios):
        records.append(_record("scaling-ratio", n=fit.points[k + 1].n, mean=r, tag=fit.tag))
    lines = [f"regime {fit.regime}: slope {fit.slope:.4f} +- {fit.slope_stderr:.4f}, "
             f"plateau {fit.plateau:.6g}"]
    return RunOutcome(records, lines, 0)


def _run_duality(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    n = config.single_n()
    i = rule.clan_index(n)
    records = []
    for beta in config.beta_grid:
        res = estimators.duality_check(spec, i, n, beta, config.m_samples, stream, config.shards)
        records.append(_record("duality-h", n=n, i=i, param=beta, mean=res.h_form.mean,
                               stderr=res.h_form.stderr, count=res.h_form.count, tag=res.tag))
        records.append(_record("duality-v", n=n, i=i, param=beta, mean=res.v_form.mean,
                               stderr=res.v_form.stderr, count=res.v_form.count, tag=res.tag))
        records.append(_record("duality-z", n=n, i=i, param=beta, mean=res.z_score, tag=res.tag))
    return RunOutcome(records, [], 0)


def _run_strata(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    n = config.single_n()
    i = rule.clan_index(n)
    records = []
    for beta in config.beta_grid:
        rep = estimators.strata_decomposition(
            spec, i, n, beta, config.strata_N, config.m_samples, stream, config.shards)
        for name, est in (("total", rep.total), ("early", rep.early), ("middle", rep.middle),
                          ("before_j", rep.before_j), ("after_j", rep.after_j)):
            records.append(_record(f"strata-{name}", n=n, i=i, param=beta, mean=est.mean,
                                   stderr=est.stderr, count=est.count, tag=rep.tag))
    return RunOutcome(records, [], 0)


def _run_oracle(config: RunConfig, stream: RngStream) -> RunOutcome:
    checks = diagnostics.run_oracle_suite(config.env_spec(), stream,
                                          m_samples=min(config.m_samples, 50_000))
    records, lines = [], []
    for c in checks:
        records.append(_record(f"oracle:{c.name}", mean=1.0 if c.passed else 0.0,
                               tag="pass" if c.passed else "fail"))
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    all_ok = all(c.passed for c in checks)
    lines.append("oracle suite: all checks passed" if all_ok else "oracle suite: FAILURES present")
    return RunOutcome(records, lines, 0 if all_ok else 3)


_RUNNERS = {
    "validate": _run_validate,
    "prob": _run_prob,
    "pgf": _run_pgf,
    "lst": _run_lst,
    "scaling": _run_scaling,
    "duality": _run_duality,
    "strata": _run_strata,
    "oracle": _run_oracle,
}


def run(subcommand: str, config: RunConfig) -> tuple[RunOutcome, dict]:
    """Execute one subcommand; returns the outcome and the final run record."""
    if subcommand not in _RUNNERS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    stream = RngStream(config.seed)
    started = time.perf_counter()
    outcome = _RUNNERS[subcommand](config, stream)
    elapsed = time.perf_counter() - started
    conformity = validate_spec(config.env_spec()).conforms
    run_record = {
        "kind": "run_record",
        "subcommand": subcommand,
        "config": config.echo_dict(),
        "version": __version__,
        "timing_s": elapsed,
        "tags": [] if conformity else ["assumptions-violated"],
    }
    return outcome, run_record


def _emit(config: RunConfig, outcome: RunOutcome, run_record: dict) -> None:
    if config.format == "json":
        lines = [json.dumps({"kind": "config", **config.echo_dict()}, separators=(",", ":"))]
        lines += [json.dumps({"kind": "result", **r}, separators=(",", ":"))
                  for r in outcome.records]
        lines.append(json.dumps(run_record, separators=(",", ":")))
    else:
        lines = [",".join(_RESULT_KEYS)]
        for r in outcome.records:
            cells = []
            for key in _RESULT_KEYS:
                v = r[key]
                cells.append("" if v is None else (repr(v) if isinstance(v, float) else str(v)))
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clanmc",
        description="Exact-formula Monte Carlo for only-surviving-clan statistics "
                    "of a critical branching process with immigration in a random environment.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="flat key = value config file")
    for key, *_ in _KEYS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = parse_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("subcommand", "config") and v is not None}
        values.update(overrides)
        config = RunConfig.from_strings(values)
        outcome, run_record = run(args.subcommand, config)
        _emit(config, outcome, run_record)
        for line in outcome.report_lines:
            print(line)
        return outcome.exit_code
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AssumptionViolationError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 4
    except ClanMCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
