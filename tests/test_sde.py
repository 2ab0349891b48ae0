import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    TimeSchedule,
    builtin_model,
    _std_normal_density,
)
from yyfilter.sde import (
    ObservationPath,
    StatePath,
    observation_increments,
    simulate,
    subsample,
)


def _zero_vec(points):
    return np.zeros_like(points)


def _zero_matrix(points):
    n, d = points.shape
    return np.zeros((n, d, d))


def _point_mass_sampler(rng, n):
    return np.ones((n, 1))


FROZEN = FilterModel(
    name="frozen",
    dim=1,
    drift=_zero_vec,
    diffusion=_zero_matrix,
    observation=_zero_vec,
    initial_density=_std_normal_density,
    assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    initial_sampler=_point_mass_sampler,
)

PURE_NOISE = FilterModel(
    name="pure_noise",
    dim=1,
    drift=_zero_vec,
    diffusion=None,
    observation=_zero_vec,
    initial_density=_std_normal_density,
    assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    initial_sampler=_point_mass_sampler,
    diffusion_matrix=np.eye(1),
)


def test_no_dynamics_constant_path():
    sched = TimeSchedule(1.0, 10)
    xs, ys = simulate(FROZEN, sched, substeps=2, seed=0)
    assert_allclose(xs.values, 1.0)  # Y still carries its own Brownian noise


def test_observation_starts_at_zero(linear1d):
    _, ys = simulate(linear1d, TimeSchedule(1.0, 20), seed=3)
    assert ys.values[0, 0] == 0.0


def test_h_zero_observation_is_brownian():
    # with h == 0, Y = W exactly: first-knot increments over many seeds are
    # N(0, dt); the sample variance must sit within 3 standard errors
    sched = TimeSchedule(0.4, 4)
    n = 10_000
    incs = np.array([ys.values[1, 0] for _, ys in simulate(PURE_NOISE, sched, substeps=1, seed=range(n))])
    dt = sched.dt
    var_se = dt * np.sqrt(2.0 / (n - 1))
    assert abs(incs.var(ddof=1) - dt) <= 3 * var_se
    assert scipy.stats.normaltest(incs).pvalue > 1e-3


def test_linear1d_ensemble_mean_decay(linear1d):
    # OU mean decays as E[X_0] e^{-T} = 0 for the symmetric prior
    sched = TimeSchedule(1.0, 10)
    n = 4000
    paths = simulate(linear1d, sched, substeps=2, seed=range(n))
    finals = np.array([xs.values[-1, 0] for xs, _ in paths])
    se = finals.std(ddof=1) / np.sqrt(n)
    assert abs(finals.mean()) <= 3 * se


def test_weak_order_one_in_substeps(linear1d):
    # The Euler-Maruyama second moment obeys the exact chain recursion
    # v <- (1-dt)^2 v + dt; its gap to the SDE variance shrinks like dt.
    sched = TimeSchedule(1.0, 5)
    n = 4000
    exact_var = np.exp(-2.0) * 1.0 + (1 - np.exp(-2.0)) / 2
    gaps = []
    for substeps in (1, 2, 4, 8):
        dt = sched.dt / substeps
        v = 1.0
        for _ in range(sched.steps * substeps):
            v = (1 - dt) ** 2 * v + dt
        gaps.append(abs(v - exact_var))
        paths = simulate(linear1d, sched, substeps=substeps, seed=range(n))
        finals = np.array([xs.values[-1, 0] for xs, _ in paths])
        sample_var = finals.var(ddof=1)
        se = sample_var * np.sqrt(2.0 / (n - 1))
        assert abs(sample_var - v) <= 4 * se
    slope = np.polyfit(np.log([1, 2, 4, 8]), np.log(gaps), 1)[0]
    assert -1.3 < slope < -0.7


def test_determinism_bit_identical(linear1d):
    sched = TimeSchedule(1.0, 50)
    a = simulate(linear1d, sched, substeps=3, seed=42)
    b = simulate(linear1d, sched, substeps=3, seed=42)
    assert_array_equal(a[0].values, b[0].values)
    assert_array_equal(a[1].values, b[1].values)
    c = simulate(linear1d, sched, substeps=3, seed=43)
    assert not np.array_equal(a[0].values, c[0].values)


@pytest.mark.parametrize(
    "name, dim", [("linear1d", None), ("cubic_sensor", None), ("linearNd", 3)]
)
def test_seed_batch_matches_one_seed_at_a_time(name, dim):
    model = builtin_model(name, dim)
    sched = TimeSchedule(0.3, 30)
    batch = simulate(model, sched, substeps=3, seed=[5, 0, 11])
    assert len(batch) == 3
    for seed, (xs, ys) in zip([5, 0, 11], batch):
        xs1, ys1 = simulate(model, sched, substeps=3, seed=seed)
        assert_array_equal(xs.values, xs1.values)
        assert_array_equal(ys.values, ys1.values)


def test_increments_difference_and_roundtrip():
    sched = TimeSchedule(1.0, 2)
    path = ObservationPath(sched, np.array([[0.0], [0.3], [0.1]]))
    incs = observation_increments(path, sched)
    assert_allclose(incs, [[0.3], [-0.2]])
    rebuilt = np.vstack([[0.0], np.cumsum(incs, axis=0)])
    assert np.max(np.abs(rebuilt - path.values)) < 1e-14


def test_constant_path_zero_increments():
    sched = TimeSchedule(1.0, 3)
    path = ObservationPath(sched, np.zeros((4, 1)))
    assert_allclose(observation_increments(path, sched), 0.0)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=30))
def test_prefix_sum_inverts_increments(values):
    vals = np.array([[0.0]] + [[v] for v in values])
    sched = TimeSchedule(1.0, len(values))
    path = ObservationPath(sched, vals)
    rebuilt = np.vstack([[0.0], np.cumsum(observation_increments(path, sched), axis=0)])
    assert np.max(np.abs(rebuilt - vals)) < 1e-14


@pytest.mark.parametrize("cls", [StatePath, ObservationPath])
@pytest.mark.parametrize("rows", [51, 201])
def test_path_rows_must_match_its_schedule(cls, rows):
    # 51 rows on 100 steps once died with an IndexError at knot 51 inside the
    # filters; 201 rows ran silently on the first 100 increments
    with pytest.raises(ValueError, match=rf"{rows} rows.*steps \+ 1 = 101"):
        cls(TimeSchedule(1.0, 100), np.zeros((rows, 1)))


def test_nonfinite_state_raises():
    def exploding(points):
        with np.errstate(over="ignore"):
            return points**3 * 1e150

    m = FilterModel(
        name="boom",
        dim=1,
        drift=exploding,
        diffusion=None,
        observation=_zero_vec,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        initial_sampler=_point_mass_sampler,
        diffusion_matrix=np.eye(1),
    )
    from yyfilter.sde import SimulationError

    with pytest.raises(SimulationError, match="knot"):
        simulate(m, TimeSchedule(1.0, 5), seed=0)


def test_subsample_stride(linear1d):
    xs, ys = simulate(linear1d, TimeSchedule(1.0, 8), seed=1)
    coarse = subsample(ys, 4)
    assert coarse.schedule.steps == 2
    assert_array_equal(coarse.values, ys.values[::4])
    with pytest.raises(ValueError):
        subsample(ys, 3)
