import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from yyfilter.models import (
    ONE,
    AssumptionProfile,
    FilterModel,
    RegistryError,
    TimeSchedule,
    builtin_model,
    coordinate,
    coordinate_product,
    parse_test_function,
    squared_coordinate,
)
from yyfilter.models import _std_normal_density
from yyfilter.diagnostics import validate_assumptions


def test_registry_linear1d():
    m = builtin_model("linear1d")
    pts = np.array([[2.0]])
    assert m.drift(pts)[0, 0] == -2.0
    assert m.observation(pts)[0, 0] == 2.0
    assert m.diffusion_sq(pts)[0, 0, 0] == 1.0
    assert m.linear is not None


def test_registry_benes():
    m = builtin_model("benes")
    assert m.drift(np.array([[0.0]]))[0, 0] == 0.0
    # tanh saturates at 1 and its slope is bounded by the declared constant
    assert m.drift(np.array([[50.0]]))[0, 0] == pytest.approx(1.0)
    assert m.assumptions.lipschitz == 1.0


def test_registry_cubic_sensor():
    m = builtin_model("cubic_sensor")
    assert m.observation(np.array([[2.0]]))[0, 0] == 8.0
    # the cubic readout is the observation; test-function growth stays low
    assert m.assumptions.growth_order == 2


def test_cubic_observation_matches_pow_within_rounding():
    # x*x*x rounds twice where pow rounds once, so the two may differ in the last bits.
    x = np.random.default_rng(0).uniform(-8.0, 8.0, size=(1000, 1))
    x[:4, 0] = [-8.0, -1e-3, 0.0, 8.0]
    y = builtin_model("cubic_sensor").observation(x)
    assert y.shape == x.shape
    assert_allclose(y, x**3, rtol=4 * np.finfo(float).eps, atol=0)


def test_registry_linearNd_dims():
    m = builtin_model("linearNd")
    assert m.dim == 2
    m3 = builtin_model("linearNd", dim=3)
    assert m3.dim == 3
    with pytest.raises(ValueError):
        builtin_model("linearNd", dim=4)


def test_registry_unknown_name_lists_valid():
    with pytest.raises(RegistryError, match="linear1d"):
        builtin_model("nope")


def test_diffusion_sq_matches_g_g_transpose():
    m = builtin_model("linearNd", dim=3)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(100, 3))
    g = np.broadcast_to(m.diffusion_matrix, (100, 3, 3))
    expected = np.einsum("nij,nkj->nik", g, g)
    assert_allclose(m.diffusion_sq(pts), expected, atol=1e-12)
    # symmetry at every queried point
    a = m.diffusion_sq(pts)
    assert np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) < 1e-12


def test_initial_density_normalized(linear1d):
    xs = np.linspace(-10, 10, 4001)[:, None]
    mass = np.trapezoid(linear1d.initial_density(xs), xs[:, 0])
    assert abs(mass - 1.0) < 1e-6


def test_coefficients_finite_at_extreme_points():
    for name in ("linear1d", "benes", "cubic_sensor"):
        m = builtin_model(name)
        pts = np.array([[1e8], [-1e8], [0.0]])
        assert np.all(np.isfinite(m.drift(pts)))
        assert np.all(np.isfinite(m.observation(pts)))
        assert np.all(np.isfinite(m.initial_density(pts)))


@pytest.mark.parametrize("name", ["linear1d", "linearNd", "benes", "cubic_sensor"])
@pytest.mark.parametrize("radius", [4.0, 6.0, 8.0])
def test_registry_models_validate(name, radius):
    m = builtin_model(name)
    report = validate_assumptions(
        m, radius, samples=800, seed=7, test_functions=[coordinate(0), squared_coordinate(0)]
    )
    assert report.passed, str(report)


def test_a4_line_per_readout():
    phis = [coordinate(0), squared_coordinate(0), coordinate(1), coordinate_product(0, 1)]
    report = validate_assumptions(builtin_model("linearNd"), 6.0, samples=400, test_functions=phis)
    a4 = [c.label for c in report.checks if c.label.startswith("A4")]
    assert a4 == [f"A4 growth of {phi.label}" for phi in phis]


def test_a4_reads_the_declared_growth_envelope():
    # |phi| <= 0.5 (1 + |x|^2) holds for x1 (with equality at |x1| = 1) and fails for x1^2
    m = dataclasses.replace(builtin_model("linear1d"), assumptions=AssumptionProfile(
        lipschitz=1.0, ellipticity=1.0, moment_order=4, growth_order=1, growth_bound=0.5))
    report = validate_assumptions(
        m, 6.0, samples=800, seed=7, test_functions=[coordinate(0), squared_coordinate(0)]
    )
    a4 = {c.label: c.passed for c in report.checks if c.label.startswith("A4")}
    assert a4 == {"A4 growth of x1": True, "A4 growth of x1^2": False}
    assert not report.passed


def test_benes_sampled_lipschitz_at_most_one():
    # densely sampled difference quotients of tanh never exceed sup|tanh'| = 1
    m = builtin_model("benes")
    report = validate_assumptions(m, 6.0, samples=4000, seed=3)
    assert report.sampled_lipschitz <= 1.0 + 1e-9


def _zero_matrix(points):
    n, d = points.shape
    return np.zeros((n, d, d))


def test_degenerate_diffusion_fails_a2_without_raising():
    m = FilterModel(
        name="flat",
        dim=1,
        drift=lambda p: -p,
        diffusion=_zero_matrix,
        observation=lambda p: p,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    )
    report = validate_assumptions(m, 6.0, samples=200, seed=0)
    a2 = [c for c in report.checks if c.label.startswith("A2")][0]
    assert not a2.passed
    assert not report.passed


def test_assumption_profile_rejects_nonpositive():
    with pytest.raises(ValueError):
        AssumptionProfile(0.0, 1.0, 2, 1, 1.0)
    with pytest.raises(ValueError):
        AssumptionProfile(1.0, -1.0, 2, 1, 1.0)


def test_schedule_knots_uniform_and_exact():
    s = TimeSchedule(1.0, 1000)
    knots = s.knots
    assert knots[0] == 0.0
    assert knots[-1] == 1.0
    diffs = np.diff(knots)
    assert np.max(np.abs(diffs - s.dt)) <= 1e-15 * s.terminal


@given(steps=st.integers(1, 5000), terminal=st.floats(0.01, 100.0))
def test_schedule_endpoints_exact(steps, terminal):
    s = TimeSchedule(terminal, steps)
    assert s.knots[0] == 0.0
    assert s.knots[-1] == terminal


def test_schedule_validation():
    for terminal, steps, named in [
        (1.0, 0, "steps must be an integer >= 1, not 0"),
        (1.0, 2.5, "steps must be an integer >= 1, not 2.5"),
        (1.0, 10.0, "steps must be an integer >= 1, not 10.0"),
        (-1.0, 10, "terminal time must be positive and finite, not -1.0"),
        (float("nan"), 10, "terminal time must be positive and finite, not nan"),
        (float("inf"), 10, "terminal time must be positive and finite, not inf"),
    ]:
        with pytest.raises(ValueError, match=re.escape(named)):
            TimeSchedule(terminal, steps)


def test_sampler_matches_density_moments(linear1d):
    rng = np.random.default_rng(11)
    draws = linear1d.sample_initial(rng, 200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.02


def test_rejection_sampler_fallback():
    m = FilterModel(
        name="noname",
        dim=1,
        drift=lambda p: -p,
        diffusion=None,
        observation=lambda p: p,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        sample_radius=6.0,
        diffusion_matrix=np.eye(1),
    )
    rng = np.random.default_rng(5)
    draws = m.sample_initial(rng, 50_000)
    assert draws.shape == (50_000, 1)
    assert abs(draws.var() - 1.0) < 0.05


def test_test_function_labels():
    assert parse_test_function("x1").label == "x1"
    assert parse_test_function("x2^2").label == "x2^2"
    assert parse_test_function("x1*x2").label == "x1*x2"
    with pytest.raises(ValueError, match="'banana'"):
        parse_test_function("banana")
    # coordinates count from x1; x0 once read the last one
    with pytest.raises(ValueError, match="'x0'"):
        parse_test_function("x0")
    for bad in ("x1*x1*x1", "x1**2", "x1*x2^2", "1"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_test_function(bad)


readouts = st.one_of(st.builds(coordinate, st.integers(0, 2)),
                     st.builds(coordinate_product, st.integers(0, 2), st.integers(0, 2)))


@given(readouts, readouts)
def test_labels_round_trip_one_label_per_readout(phi, psi):
    assert parse_test_function(phi.label) == phi
    assert (phi.label == psi.label) == (phi == psi)


@given(st.integers(0, 2), st.integers(0, 2))
def test_other_spellings_parse_to_the_canonical_readout(i, j):
    xi, xj = f"x{i + 1}", f"x{j + 1}"
    product = parse_test_function(f"{xi}*{xj}")
    assert product == parse_test_function(f"{xj}*{xi}") == coordinate_product(i, j)
    assert product == parse_test_function(f" x0{i + 1} * {xj} ")
    square = squared_coordinate(i)
    assert parse_test_function(f"{xi}*{xi}") == parse_test_function(f"{xi} ^2") == square
    assert parse_test_function(f"x0{i + 1}") == coordinate(i)


def test_readout_multiplies_its_coordinates():
    x = np.random.default_rng(0).standard_normal((50, 3))
    assert_array_equal(squared_coordinate(1)(x), x[:, 1] ** 2)
    assert_array_equal(coordinate_product(2, 0)(x), x[:, 0] * x[:, 2])
    assert_array_equal(coordinate(2)(x), x[:, 2])
    assert_array_equal(ONE(x), np.ones(50))
    assert ONE.label == "1"
