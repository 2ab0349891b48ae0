import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    RegistryError,
    TimeSchedule,
    builtin_model,
    coordinate,
    squared_coordinate,
    validate_assumptions,
)
from yyfilter.models import _std_normal_density


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
    with pytest.raises(ValueError):
        TimeSchedule(1.0, 0)
    with pytest.raises(ValueError):
        TimeSchedule(-1.0, 10)


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

