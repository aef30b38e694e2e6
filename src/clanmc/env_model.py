"""Environment laws for the log mean-offspring variable.

Offspring numbers are geometric with mean m, so a generation is fully
described by X = log m.  Three X-laws are provided: a centered Gaussian,
a symmetric uniform, and a symmetric two-point law.  The two-point law is
lattice and is included deliberately as a negative control for the
continuity and nonlattice assumptions; with step 0 it degenerates to the
constant (zero-variance) environment used in exactness tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, DomainError

GAUSSIAN = "gaussian"
UNIFORM = "uniform"
TWOPOINT = "twopoint"

_FAMILIES = (GAUSSIAN, UNIFORM, TWOPOINT)
_PARAM_NAME = {GAUSSIAN: "sigma", UNIFORM: "halfwidth", TWOPOINT: "step"}


@dataclass(frozen=True)
class EnvironmentSpec:
    """Law of X = log(mean offspring number), one draw per generation.

    family: "gaussian" (X ~ N(0, sigma^2)), "uniform" (X ~ U[-c, c]) or
    "twopoint" (X = +-c with equal probability; c = 0 is the degenerate
    constant environment).
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(f"unknown environment family {self.family!r}")
        p = self.param
        if not math.isfinite(p):
            raise ConfigurationError(f"{_PARAM_NAME[self.family]} must be finite, got {p}")
        if self.family in (GAUSSIAN, UNIFORM) and p <= 0:
            raise ConfigurationError(f"{_PARAM_NAME[self.family]} must be positive, got {p}")
        if self.family == UNIFORM and not math.isfinite(2.0 * p):
            raise ConfigurationError(f"halfwidth must leave the width 2c a finite double, got {p}")
        if self.family == TWOPOINT and p < 0:
            raise ConfigurationError(f"step must be nonnegative, got {p}")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "EnvironmentSpec":
        return EnvironmentSpec(GAUSSIAN, float(sigma))

    @staticmethod
    def uniform_symmetric(halfwidth: float) -> "EnvironmentSpec":
        return EnvironmentSpec(UNIFORM, float(halfwidth))

    @staticmethod
    def two_point(step: float) -> "EnvironmentSpec":
        return EnvironmentSpec(TWOPOINT, float(step))


@dataclass(frozen=True)
class EnvironmentPath:
    """A realized environment: x[k] is the log mean offspring of generation k+1."""

    x: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("environment path must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("environment path entries must be finite")
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ValidationReport:
    """Analytic conformity of an environment law to the model assumptions."""

    family: str
    param: float
    geometric_offspring: bool
    nonlattice: bool
    mean_zero: bool
    exp_moment_finite: bool
    continuous: bool
    exp_moment_value: float
    notes: tuple[str, ...]

    @property
    def conforms(self) -> bool:
        return (
            self.geometric_offspring
            and self.nonlattice
            and self.mean_zero
            and self.exp_moment_finite
            and self.continuous
        )

    def as_dict(self) -> dict:
        """The fields in declaration order, with conforms just before the notes."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        notes = out.pop("notes")
        return {**out, "conforms": self.conforms, "notes": list(notes)}


def _or_inf(fn, x: float) -> float:
    """fn(x), or inf where the value is too large for a double."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def validate_spec(spec: EnvironmentSpec) -> ValidationReport:
    """Check the criticality, moment, continuity and nonlattice assumptions.

    Uses closed-form facts per family; no sampling.  All supported families
    are symmetric around 0, so criticality (E[X] = 0) always holds; the
    two-point family fails the nonlattice and continuity clauses.  The
    moment is E[e^X] + E[e^-X].
    """
    c = spec.param
    if spec.family == GAUSSIAN:
        moment = 2.0 * _or_inf(math.exp, 0.5 * c * c)
    elif spec.family == UNIFORM:
        moment = 2.0 * _or_inf(math.sinh, c) / c
    else:
        moment = 2.0 * _or_inf(math.cosh, c)
    lattice = spec.family == TWOPOINT
    notes = ["two-point support is a lattice and carries atoms"] if lattice else []
    if lattice and c == 0:
        notes.append("step 0: degenerate constant environment")
    return ValidationReport(spec.family, c, True, not lattice, True, True, not lattice,
                            exp_moment_value=moment, notes=tuple(notes))


def _increment_bound(spec: EnvironmentSpec) -> float:
    """A generous upper quantile of one increment X: six sigma, or the support's edge c."""
    return 6.0 * spec.param if spec.family == GAUSSIAN else spec.param


def draw_increments(spec: EnvironmentSpec, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float array `out` with i.i.d. X values and return it.

    Each family draws the same bits as gen.normal(0, sigma, shape),
    gen.uniform(-c, c, shape) or (2 * gen.integers(0, 2, shape) - 1.0) * c
    would, in the same operation order, without a fresh float array.
    """
    c = spec.param
    if spec.family == GAUSSIAN:
        gen.standard_normal(out=out)
        out *= c
    elif spec.family == UNIFORM:
        gen.random(out=out)
        out *= c - (-c)
        out += -c
    else:
        signs = gen.integers(0, 2, out.shape)
        signs *= 2
        signs -= 1
        np.multiply(signs, c, out=out)
    return out


def pgf_eval(m: float, s: float) -> float:
    """Generating function of the geometric offspring law with mean m: 1 / (1 + m(1-s))."""
    if not m > 0:
        raise DomainError(f"mean offspring must be positive, got {m}")
    if not 0.0 <= s <= 1.0:
        raise DomainError(f"generating-function argument must lie in [0, 1], got {s}")
    return 1.0 / (1.0 + m * (1.0 - s))


def offspring_params(m: float) -> tuple[float, float]:
    """(p, q) of the geometric law P(k) = q p^k with mean m = p/q; p + q = 1."""
    if not m > 0:
        raise DomainError(f"mean offspring must be positive, got {m}")
    return m / (1.0 + m), 1.0 / (1.0 + m)
