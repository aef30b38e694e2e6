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
import os
import sys
import time
from dataclasses import dataclass, field, fields

from . import __version__, diagnostics, estimators
from .env_model import _PARAM_NAME, EnvironmentSpec, validate_spec
from .errors import (AssumptionViolationError, ClanMCError, ConfigurationError,
                     DomainError, NumericalFailureError)
from .estimators import RegimeRule
from .parallel import resolve_shards
from .streams import RngStream

_RESULT_KEYS = ("quantity", "n", "i", "param", "mean", "stderr", "count", "tag")
# Most samples a run accepts: 2^53, the largest count a double holds exactly.
_MAX_SAMPLES = 2**53
# Most samples the oracle suite draws; a larger m_samples is cut to this.
_ORACLE_MAX_SAMPLES = 50_000


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


def _grid_items(text: str) -> list[str]:
    items = [p for p in (piece.strip() for piece in text.split(",")) if p]
    if not items:
        raise ConfigurationError("grid must not be empty")
    return items


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(p) for p in _grid_items(text))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(p) for p in _grid_items(text))


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigurationError(f"expected an integer, got {text!r}") from exc


def _parse_optional_int(text: str) -> int | None:
    return _parse_int(text) if text.strip() else None


def _word(text: str) -> str:
    return text.strip().lower()


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def _key(default: str | None, parse, fmt=str):
    """One config key: its default text (None marks the mandatory seed), parser and formatter."""
    return field(metadata={"default": default, "parse": parse, "format": fmt})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; the echo re-parses to an equal config.

    Each field is one config key, in echo order, declared with its default
    text, parser and echo formatter.  Each key is also the flag "--" + key
    with "_" turned into "-".  The shards key goes through
    parallel.resolve_shards once, for every subcommand: an empty one
    resolves to the usable CPUs, at most 64, and a given one must lie in
    [1, 64].
    """

    family: str = _key("gaussian", _word)
    sigma: float = _key("1.0", _parse_float, repr)
    halfwidth: float = _key("1.0", _parse_float, repr)
    step: float = _key("0.7", _parse_float, repr)
    regime: str = _key("end_window", _word)
    regime_param: float = _key("3", _parse_float, repr)
    n: int | None = _key("", _parse_optional_int, lambda v: "" if v is None else str(v))
    n_grid: tuple[int, ...] = _key("256,512,1024,2048,4096,8192", _parse_int_list, _join)
    m_samples: int = _key("100000", _parse_int)
    s_grid: tuple[float, ...] = _key("0,0.25,0.5,0.75,1", _parse_float_list, _join)
    beta_grid: tuple[float, ...] = _key("1e-4,1e-2,1,1e2,inf", _parse_float_list, _join)
    strata_N: int = _key("20", _parse_int)
    seed: int = _key(None, _parse_int)
    shards: int = _key("", _parse_optional_int)
    out: str | None = _key("", lambda t: t.strip() or None, lambda v: v or "")
    format: str = _key("json", _word)
    allow_assumption_violations: bool = _key("false", _parse_bool,
                                             lambda v: "true" if v else "false")

    def __post_init__(self):
        if self.format not in ("json", "csv"):
            raise ConfigurationError(f"format must be json or csv, got {self.format!r}")
        # one sample has no standard error; every record echoes the count, which
        # JSON readers holding numbers as doubles keep exact only up to 2^53
        if not 2 <= self.m_samples <= _MAX_SAMPLES:
            raise ConfigurationError(f"m_samples must be between 2 and 2^53 = {_MAX_SAMPLES}, "
                                     f"got {self.m_samples}")
        if not self.n_grid or not self.s_grid or not self.beta_grid:
            raise ConfigurationError("grids must be nonempty")
        object.__setattr__(self, "shards", resolve_shards(self.shards))

    @staticmethod
    def from_strings(values: dict[str, str]) -> "RunConfig":
        keys = fields(RunConfig)
        merged = {f.name: f.metadata["default"] for f in keys}
        unknown = set(values) - set(merged)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        merged.update({k: v for k, v in values.items() if v is not None})
        if merged["seed"] is None or str(merged["seed"]).strip() == "":
            raise ConfigurationError("seed is mandatory (no wall-clock default)")
        parsed = {}
        for f in keys:
            try:
                parsed[f.name] = f.metadata["parse"](str(merged[f.name]))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{f.name}: {exc}") from exc
        return RunConfig(**parsed)

    def env_spec(self) -> EnvironmentSpec:
        """The environment law: the family and the config key env_model names as its parameter."""
        if self.family not in _PARAM_NAME:
            raise ConfigurationError(f"unknown family {self.family!r}")
        return EnvironmentSpec(self.family, float(getattr(self, _PARAM_NAME[self.family])))

    def rule(self) -> RegimeRule:
        """The regime; a proportional one needs a continuous law unless violations are allowed."""
        rule = RegimeRule(self.regime, self.regime_param)
        # the intermediate regime's limit needs a continuous increment law
        if (rule.kind == estimators.PROPORTIONAL and not self.allow_assumption_violations
                and not validate_spec(self.env_spec()).continuous):
            raise AssumptionViolationError(
                "proportional regime requires a continuous environment law; "
                "pass allow_assumption_violations to override")
        return rule

    def tag(self) -> str:
        """The tag of every estimate: whether the environment law meets the paper's assumptions."""
        return "ok" if validate_spec(self.env_spec()).conforms else "assumptions-violated"

    def single_n(self) -> int:
        return self.n if self.n is not None else max(self.n_grid)

    def echo_dict(self) -> dict:
        return {f.name: f.metadata["format"](getattr(self, f.name)) for f in fields(self)}


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return out


def _record(quantity, n=None, i=None, param=None, mean=None, stderr=None, count=None,
            tag=None, est=None):
    """One result record.  est, an MCEstimate, supplies mean, stderr and count;
    run() gives a record still tagged None the run's tag."""
    if est is not None:
        mean, stderr, count = est.mean, est.stderr, est.count
    if param is not None and isinstance(param, float) and math.isinf(param):
        param = "inf"
    return {
        "quantity": quantity, "n": n, "i": i, "param": param,
        "mean": mean, "stderr": stderr, "count": count, "tag": tag,
    }


@dataclass(frozen=True)
class RunOutcome:
    records: list
    report_lines: list = field(default_factory=list)
    exit_code: int = 0
    run_info: dict = field(default_factory=dict)  # extra keys of the closing run record


def _run_validate(config: RunConfig, stream: RngStream) -> RunOutcome:
    report = validate_spec(config.env_spec())
    records = [_record("validate", mean=1.0 if report.conforms else 0.0,
                       tag="conforms" if report.conforms else "non-conforming")]
    return RunOutcome(records, [f"{k}: {v}" for k, v in report.as_dict().items()])


def _run_prob(config: RunConfig, stream: RngStream) -> RunOutcome:
    results = estimators.estimate_event_prob_grid(
        config.env_spec(), config.rule(), config.n_grid, config.m_samples, stream,
        config.shards)
    return RunOutcome([_record("prob", n=res.n, i=res.i, est=res.estimate) for res in results])


def _transform_runner(quantity: str, estimate, grid: str):
    """The runner of pgf or lst: one record per point of the config's named grid."""
    def run_transform(config: RunConfig, stream: RngStream) -> RunOutcome:
        results = estimate(config.env_spec(), config.rule(), config.single_n(),
                           getattr(config, grid), config.m_samples, stream, config.shards)
        return RunOutcome([_record(quantity, n=r.n, i=r.i, param=r.param, mean=r.value,
                                   stderr=r.stderr, count=r.count) for r in results])
    return run_transform


def _run_scaling(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    fit = estimators.scaling_study(spec, rule, config.n_grid, config.m_samples, stream,
                                   config.shards)
    records = [_record(quantity, n=p.n, i=p.i, est=p.estimate)
               for quantity, points in (("scaling-point", fit.points),
                                        ("scaling-dropped", fit.dropped))
               for p in points]
    records.append(_record("scaling-slope", mean=fit.slope, stderr=fit.slope_stderr))
    records.append(_record("scaling-intercept", mean=fit.intercept))
    records.append(_record("scaling-plateau", mean=fit.plateau))
    for k, r in enumerate(fit.ratios):
        records.append(_record("scaling-ratio", n=fit.points[k + 1].n, mean=r))
    lines = [f"regime {fit.regime}: slope {fit.slope:.4f} +- {fit.slope_stderr:.4f}, "
             f"plateau {fit.plateau:.6g}"]
    return RunOutcome(records, lines)


def _run_duality(config: RunConfig, stream: RngStream) -> RunOutcome:
    records = []
    for res in estimators.duality_check(config.env_spec(), config.rule(), config.single_n(),
                                        config.beta_grid, config.m_samples, stream,
                                        config.shards):
        key = {"n": res.n, "i": res.i, "param": res.beta}
        records.append(_record("duality-h", est=res.h_form, **key))
        records.append(_record("duality-v", est=res.v_form, **key))
        records.append(_record("duality-z", mean=res.z_score, **key))
    return RunOutcome(records)


def _run_strata(config: RunConfig, stream: RngStream) -> RunOutcome:
    spec, rule = config.env_spec(), config.rule()
    records = []
    for beta in config.beta_grid:
        rep = estimators.strata_decomposition(
            spec, rule, config.single_n(), beta, config.strata_N, config.m_samples, stream,
            config.shards)
        for name in ("total", "early", "middle", "before_j", "after_j"):
            records.append(_record(f"strata-{name}", n=rep.n, i=rep.i, param=beta,
                                   est=getattr(rep, name)))
    return RunOutcome(records)


def _run_oracle(config: RunConfig, stream: RngStream) -> RunOutcome:
    m_samples = min(config.m_samples, _ORACLE_MAX_SAMPLES)
    checks = diagnostics.run_oracle_suite(config.env_spec(), stream, m_samples=m_samples,
                                          shards=config.shards)
    records, lines = [], []
    for c in checks:
        records.append(_record(f"oracle:{c.name}", mean=1.0 if c.passed else 0.0,
                               tag="pass" if c.passed else "fail"))
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    all_ok = all(c.passed for c in checks)
    lines.append("oracle suite: all checks passed" if all_ok else "oracle suite: FAILURES present")
    return RunOutcome(records, lines, 0 if all_ok else 3, {"m_samples_used": m_samples})


_RUNNERS = {
    "validate": _run_validate,
    "prob": _run_prob,
    "pgf": _transform_runner("pgf", estimators.estimate_theta, "s_grid"),
    "lst": _transform_runner("lst", estimators.estimate_lambda, "beta_grid"),
    "scaling": _run_scaling,
    "duality": _run_duality,
    "strata": _run_strata,
    "oracle": _run_oracle,
}

SUBCOMMANDS = tuple(_RUNNERS)


def run(subcommand: str, config: RunConfig) -> tuple[RunOutcome, dict]:
    """Execute one subcommand; returns the outcome and the final run record."""
    if subcommand not in _RUNNERS:
        raise ConfigurationError(f"unknown subcommand {subcommand!r}")
    stream = RngStream(config.seed)
    started = time.perf_counter()
    outcome = _RUNNERS[subcommand](config, stream)
    elapsed = time.perf_counter() - started
    tag = config.tag()
    for r in outcome.records:
        if r["tag"] is None:
            r["tag"] = tag
    run_record = {
        "kind": "run_record",
        "subcommand": subcommand,
        "config": config.echo_dict(),
        "version": __version__,
        "timing_s": elapsed,
        **outcome.run_info,
        "tags": [] if tag == "ok" else [tag],
    }
    return outcome, run_record


def _check_out(path: str) -> None:
    """Open the output file for writing, which empties it, before any sampling."""
    try:
        open(path, "w", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigurationError(f"out {path!r}: {exc.strerror}") from exc


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
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        values = parse_config_file(args.config) if args.config else {}
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("subcommand", "config") and v is not None}
        values.update(overrides)
        config = RunConfig.from_strings(values)
        if config.out:
            _check_out(config.out)
        outcome, run_record = run(args.subcommand, config)
        try:
            _emit(config, outcome, run_record)
            for line in outcome.report_lines:
                print(line)
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        except OSError as exc:
            # a closed or full output: send what stdout still buffers to devnull,
            # so that the flush at interpreter exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            reason = ("standard output closed before the run finished writing"
                      if isinstance(exc, BrokenPipeError)
                      else f"cannot write the results: {exc.strerror or exc}")
            print(f"error: {reason}", file=sys.stderr)
            return 1
        return outcome.exit_code
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a run whose arrays cannot be allocated
        print("configuration error: the run needs more memory than it could allocate; "
              "lower m_samples", file=sys.stderr)
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
