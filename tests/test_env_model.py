import math

import numpy as np
import pytest

from clanmc import (ConfigurationError, DomainError, EnvironmentPath, EnvironmentSpec,
                    RngStream, offspring_params, pgf_eval, validate_spec)
from clanmc.env_model import draw_increments


def sample_path(spec, n, stream):
    """An n-generation environment drawn from one keyed substream."""
    return EnvironmentPath(draw_increments(spec, stream.substream("test.path", 0), np.empty(n)))


@pytest.fixture
def stream():
    return RngStream(20240811)


class TestValidateSpec:
    def test_gaussian_conforms(self):
        rep = validate_spec(EnvironmentSpec.gaussian(1.0))
        assert rep.conforms
        assert rep.exp_moment_value == pytest.approx(2.0 * math.exp(0.5))

    def test_two_point_is_lattice(self):
        rep = validate_spec(EnvironmentSpec.two_point(0.7))
        assert not rep.nonlattice and not rep.continuous
        assert rep.mean_zero and rep.exp_moment_finite and rep.geometric_offspring
        assert not rep.conforms

    def test_uniform_conforms(self):
        rep = validate_spec(EnvironmentSpec.uniform_symmetric(2.0))
        assert rep.conforms
        assert rep.exp_moment_value == pytest.approx(2.0 * math.sinh(2.0) / 2.0)

    def test_parameter_ranges(self):
        with pytest.raises(ConfigurationError):
            EnvironmentSpec.gaussian(0.0)
        with pytest.raises(ConfigurationError):
            EnvironmentSpec.uniform_symmetric(-1.0)
        with pytest.raises(ConfigurationError):
            EnvironmentSpec.two_point(-0.1)
        # step 0 is the documented degenerate constant environment
        assert not validate_spec(EnvironmentSpec.two_point(0.0)).conforms


class TestSamplePath:
    def test_bitwise_reproducible(self, stream):
        spec = EnvironmentSpec.gaussian(1.0)
        a = sample_path(spec, 5, stream)
        b = sample_path(spec, 5, stream)
        assert np.array_equal(a.x, b.x)

    def test_uniform_support(self, stream):
        path = sample_path(EnvironmentSpec.uniform_symmetric(0.75), 4000, stream)
        assert np.all(np.abs(path.x) <= 0.75)

    def test_two_point_support(self, stream):
        path = sample_path(EnvironmentSpec.two_point(0.3), 1000, stream)
        assert set(np.round(path.x, 12)) <= {-0.3, 0.3}

    def test_gaussian_empirical_mean(self, stream):
        path = sample_path(EnvironmentSpec.gaussian(1.0), 10**6, stream)
        # three-sigma CLT band for the mean of 1e6 standard normals
        assert abs(path.x.mean()) <= 0.004

    def test_length_validation(self, stream):
        with pytest.raises(DomainError):
            sample_path(EnvironmentSpec.gaussian(1.0), 0, stream)
        with pytest.raises(DomainError):
            EnvironmentPath(np.array([0.0, np.inf]))


class TestOffspringLaw:
    def test_pgf_trivial_values(self):
        assert pgf_eval(1.0, 0.0) == pytest.approx(0.5)
        assert pgf_eval(2.0, 0.5) == pytest.approx(0.5)
        for m in (0.3, 1.0, 4.2):
            assert pgf_eval(m, 1.0) == pytest.approx(1.0)

    def test_pgf_domain(self):
        with pytest.raises(DomainError):
            pgf_eval(1.0, -0.1)
        with pytest.raises(DomainError):
            pgf_eval(1.0, 1.1)
        with pytest.raises(DomainError):
            pgf_eval(0.0, 0.5)

    def test_offspring_params_values(self):
        assert offspring_params(1.0) == (pytest.approx(0.5), pytest.approx(0.5))
        p, q = offspring_params(math.e)
        assert p == pytest.approx(math.e / (1 + math.e))
        assert q == pytest.approx(1 / (1 + math.e))
        assert p + q == pytest.approx(1.0)

    def test_sampled_geometric_mean(self, stream):
        m = 2.0
        p, q = offspring_params(m)
        gen = stream.substream("test.geom", 0)
        draws = gen.negative_binomial(1, q, size=10**6)  # single-individual offspring
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - m) <= 3 * se

    def test_pgf_monotone_and_convex(self):
        grid = np.linspace(0.0, 1.0, 101)
        for m in (0.2, 1.0, 3.0, 10.0):
            vals = np.array([pgf_eval(m, s) for s in grid])
            assert np.all(np.diff(vals) >= 0)
            assert np.all(np.diff(vals, 2) >= -1e-12)

    def test_truncated_series_matches_pgf(self):
        # sum_{j<=J} q p^j s^j converges to the closed form once (ps)^J is negligible
        for m, s in ((1.0, 0.9), (2.0, 0.5), (8.0, 0.9), (0.5, 1.0)):
            p, q = offspring_params(m)
            if p * s > 0.9:
                continue
            j = np.arange(201)
            series = float(np.sum(q * p**j * s**j))
            assert series == pytest.approx(pgf_eval(m, s), abs=1e-9)


def test_draw_increments_families(stream):
    gen = stream.substream("test.draw", 0)
    x = draw_increments(EnvironmentSpec.two_point(0.0), gen, np.empty((3, 4)))
    assert np.all(x == 0.0)


def _allocating_draw(spec, gen, shape):
    """The fresh-array draw each family's in-place draw must reproduce bit for bit."""
    c = spec.param
    if spec.family == "gaussian":
        return gen.normal(0.0, c, shape)
    if spec.family == "uniform":
        return gen.uniform(-c, c, shape)
    return (2.0 * gen.integers(0, 2, shape).astype(float) - 1.0) * c


@pytest.mark.parametrize("spec", [
    *(EnvironmentSpec.gaussian(v) for v in (0.37, 1.0, 30.0, 1e-300)),
    *(EnvironmentSpec.uniform_symmetric(v) for v in (0.37, 1.0, 30.0, 1e300)),
    *(EnvironmentSpec.two_point(v) for v in (0.0, 0.5, 3.0)),
], ids=lambda spec: f"{spec.family}-{spec.param:g}")
def test_draw_into_buffer_matches_allocating_draw(spec, stream):
    # a full sweep block, a short block as a row slice of a full buffer, and 1-d
    full = np.empty((256, 512))
    for k, out in enumerate((full, full[:37], np.empty(5))):
        expected = _allocating_draw(spec, stream.substream("test.draw", k), out.shape)
        got = draw_increments(spec, stream.substream("test.draw", k), out)
        assert got is out
        assert got.tobytes() == expected.tobytes()
