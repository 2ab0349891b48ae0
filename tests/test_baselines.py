import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from yyfilter.baselines import (
    _discrete_transition,
    _ess,
    _normalized_weights,
    bootstrap_pf,
    fine_oracle,
    kalman_filter,
    ks_monte_carlo,
)
from yyfilter.filtering import run_filter
from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    LinearSystem,
    TimeSchedule,
    builtin_model,
    coordinate,
    _std_normal_density,
    _unit_diffusion,
)
from yyfilter.pde import build_grid
from yyfilter.sde import ObservationPath, simulate


def _zero_vec(points):
    return np.zeros_like(points)


def _zero_matrix(points):
    n, d = points.shape
    return np.zeros((n, d, d))


def test_discrete_transition_matches_scalar_ou():
    Ad, Qd = _discrete_transition(np.array([[-1.0]]), np.array([[1.0]]), 0.3)
    assert Ad[0, 0] == pytest.approx(math.exp(-0.3), rel=1e-12)
    assert Qd[0, 0] == pytest.approx((1 - math.exp(-0.6)) / 2, rel=1e-10)


def test_kalman_requires_linear_model():
    m = builtin_model("benes")
    sched = TimeSchedule(1.0, 10)
    obs = ObservationPath(sched, np.zeros((11, 1)))
    with pytest.raises(ValueError, match="linear"):
        kalman_filter(m, sched, obs)


def test_kalman_no_information_reaches_lyapunov_variance():
    # H = 0: the covariance follows the Lyapunov flow toward 1/2
    base = builtin_model("linear1d")
    lin = dataclasses.replace(base.linear, observation_matrix=np.zeros((1, 1)))
    m = dataclasses.replace(base, linear=lin)
    sched = TimeSchedule(6.0, 600)
    obs = ObservationPath(sched, np.zeros((601, 1)))
    res = kalman_filter(m, sched, obs)
    assert res.covs[-1, 0, 0] == pytest.approx(0.5, abs=1e-4)
    assert np.max(np.abs(res.means)) == 0.0


def test_kalman_zero_path_symmetric_prior_mean_zero(linear1d):
    sched = TimeSchedule(1.0, 100)
    obs = ObservationPath(sched, np.zeros((101, 1)))
    res = kalman_filter(linear1d, sched, obs)
    assert np.max(np.abs(res.means)) == 0.0


def test_kalman_one_step_static_toy_matches_quadrature():
    # F = 0, Gamma = 0, H = 1: a single update of N(0,1) with dY = 0.1
    m = FilterModel(
        name="static",
        dim=1,
        drift=_zero_vec,
        diffusion=_zero_matrix,
        observation=lambda p: np.array(p),
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        linear=LinearSystem(
            drift_matrix=np.zeros((1, 1)),
            diffusion_matrix=np.zeros((1, 1)),
            observation_matrix=np.eye(1),
            prior_mean=np.zeros(1),
            prior_cov=np.eye(1),
        ),
    )
    sched = TimeSchedule(0.1, 1)
    obs = ObservationPath(sched, np.array([[0.0], [0.1]]))
    res = kalman_filter(m, sched, obs)
    # brute-force quadrature of the conjugate Gaussian update
    dt, dy = 0.1, 0.1
    xs = np.linspace(-10, 10, 200_001)
    prior = np.exp(-0.5 * xs**2)
    lik = np.exp(-0.5 * (dy - xs * dt) ** 2 / dt)
    post_mean = np.trapezoid(xs * prior * lik, xs) / np.trapezoid(prior * lik, xs)
    assert post_mean == pytest.approx(1.0 / 11.0, abs=1e-8)
    assert res.means[1, 0] == pytest.approx(post_mean, abs=1e-10)


def test_kalman_covariance_spd_every_knot(linear1d):
    sched = TimeSchedule(1.0, 200)
    _, obs = simulate(linear1d, sched, substeps=2, seed=8)
    res = kalman_filter(linear1d, sched, obs)
    assert np.all(res.covs[:, 0, 0] > 0)
    assert_allclose(res.covs, np.transpose(res.covs, (0, 2, 1)), atol=1e-15)


def test_kalman_2d_runs():
    m = builtin_model("linearNd")
    sched = TimeSchedule(0.5, 50)
    _, obs = simulate(m, sched, seed=4)
    res = kalman_filter(m, sched, obs)
    eigs = np.linalg.eigvalsh(res.covs)
    assert np.all(eigs > 0)


def test_kalman_path_batch_matches_one_path_at_a_time():
    # The means of a batch advance as one (S, d) matrix: bit-identical in 1D,
    # within 1e-12 relative in 2D, where a matrix product may sum in another order.
    coupled = LinearSystem(
        drift_matrix=np.array([[-1.0, 0.4], [-0.3, -0.8]]),
        diffusion_matrix=np.array([[1.0, 0.0], [0.5, 1.0]]),
        observation_matrix=np.array([[1.0, 0.3], [0.0, 1.0]]),
        prior_mean=np.zeros(2),
        prior_cov=np.eye(2),
    )
    sched = TimeSchedule(0.5, 50)
    models = (builtin_model("linear1d"),
              dataclasses.replace(builtin_model("linearNd"), linear=coupled))
    for m in models:
        obs = [ys for _, ys in simulate(m, sched, seed=[4, 5, 6])]
        for path, res in zip(obs, kalman_filter(m, sched, obs)):
            one = kalman_filter(m, sched, path)
            assert_array_equal(res.covs, one.covs)
            if m.dim == 1:
                assert_array_equal(res.means, one.means)
            assert_allclose(res.means, one.means, rtol=1e-12, atol=1e-15)


def test_ks_equal_weights_without_observation_terms():
    m = dataclasses.replace(builtin_model("linear1d"), observation=_zero_vec, linear=None)
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=1)
    res = ks_monte_carlo(m, sched, obs, [coordinate(0)], 500, substeps=2, seed=9)
    assert_allclose(res.ess, 500.0, rtol=1e-12)


def test_ks_single_particle_returns_its_trajectory():
    m = builtin_model("linear1d")
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=1)
    res = ks_monte_carlo(m, sched, obs, [coordinate(0)], 1, substeps=2, seed=9)
    assert np.all(np.isfinite(res.estimates))
    assert_allclose(res.stderr, 0.0, atol=1e-300)
    assert_allclose(res.ess, 1.0)


def test_ks_matches_kalman_within_three_se(linear1d):
    sched = TimeSchedule(0.5, 50)
    _, obs = simulate(linear1d, sched, substeps=2, seed=21)
    kal = kalman_filter(linear1d, sched, obs)
    res = ks_monte_carlo(linear1d, sched, obs, [coordinate(0)], 30_000, substeps=2, seed=5)
    diff = np.abs(res.estimates[1:, 0] - kal.means[1:, 0])
    ok = diff <= 3 * np.maximum(res.stderr[1:, 0], 1e-12)
    assert ok.mean() > 0.9


def test_pf_deterministic_dynamics_point_mass():
    def point_sampler(rng, n):
        return np.full((n, 1), 0.5)

    m = FilterModel(
        name="det",
        dim=1,
        drift=lambda p: -p,
        diffusion=_zero_matrix,
        observation=lambda p: np.array(p),
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        initial_sampler=point_sampler,
    )
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=2)
    res = bootstrap_pf(m, sched, obs, [coordinate(0)], 200, seed=3)
    # all particles identical: estimate is the deterministic trajectory
    x = 0.5
    for k in range(1, 11):
        x = x - x * sched.dt
        assert res.estimates[k, 0] == pytest.approx(x, rel=1e-12)
    assert_allclose(res.stderr, 0.0, atol=1e-12)


def test_pf_uninformative_matches_plain_monte_carlo():
    m = dataclasses.replace(builtin_model("linear1d"), observation=_zero_vec, linear=None)
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=1)
    res = bootstrap_pf(m, sched, obs, [coordinate(0)], 30_000, seed=7)
    assert_allclose(res.ess, 30_000.0, rtol=1e-12)
    # prior mean decays to zero; the PF must agree within Monte-Carlo error
    assert np.max(np.abs(res.estimates[:, 0])) < 4 * 1.0 / math.sqrt(30_000) + 0.02


def test_pf_matches_kalman_within_three_se(linear1d):
    sched = TimeSchedule(0.5, 50)
    _, obs = simulate(linear1d, sched, substeps=2, seed=31)
    kal = kalman_filter(linear1d, sched, obs)
    res = bootstrap_pf(linear1d, sched, obs, [coordinate(0)], 30_000, seed=6)
    diff = np.abs(res.estimates[1:, 0] - kal.means[1:, 0])
    ok = diff <= 3 * np.maximum(res.stderr[1:, 0], 1e-12)
    assert ok.mean() > 0.85


def test_ks_and_pf_agree(linear1d):
    sched = TimeSchedule(0.5, 25)
    _, obs = simulate(linear1d, sched, substeps=2, seed=41)
    ks = ks_monte_carlo(linear1d, sched, obs, [coordinate(0)], 20_000, substeps=2, seed=1)
    pf = bootstrap_pf(linear1d, sched, obs, [coordinate(0)], 20_000, seed=2)
    diff = np.abs(ks.estimates[1:, 0] - pf.estimates[1:, 0])
    comb = np.sqrt(ks.stderr[1:, 0] ** 2 + pf.stderr[1:, 0] ** 2)
    assert (diff <= 3 * np.maximum(comb, 1e-12)).mean() > 0.85


def test_baselines_deterministic_given_seed(linear1d):
    sched = TimeSchedule(0.5, 20)
    _, obs = simulate(linear1d, sched, seed=2)
    a = bootstrap_pf(linear1d, sched, obs, [coordinate(0)], 5000, seed=11)
    b = bootstrap_pf(linear1d, sched, obs, [coordinate(0)], 5000, seed=11)
    assert_array_equal(a.estimates, b.estimates)
    c = ks_monte_carlo(linear1d, sched, obs, [coordinate(0)], 5000, seed=11)
    d = ks_monte_carlo(linear1d, sched, obs, [coordinate(0)], 5000, seed=11)
    assert_array_equal(c.estimates, d.estimates)
    cubic = builtin_model("cubic_sensor")
    _, obs = simulate(cubic, sched, seed=2)
    e = bootstrap_pf(cubic, sched, obs, [coordinate(0)], 5000, seed=11)
    f = bootstrap_pf(cubic, sched, obs, [coordinate(0)], 5000, seed=11)
    assert_array_equal(e.estimates, f.estimates)


def test_weighted_ensemble_invariants():
    w = _normalized_weights(np.array([0.0, -1.0, -2.0, -3.0]))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= _ess(w) <= 4.0
    # shifting every log-weight leaves the weights unchanged, far past exp's range
    assert_allclose(_normalized_weights(np.array([0.0, -1.0, -2.0, -3.0]) + 1e4), w)


def test_fine_oracle_factor_one_identity(linear1d):
    grid = build_grid(1, 6.0, 61)
    sched = TimeSchedule(0.2, 10)
    _, obs = simulate(linear1d, sched, seed=13)
    direct = run_filter(linear1d, grid, sched, obs, [coordinate(0)], substeps=2)
    oracle = fine_oracle(
        linear1d, grid, sched, obs, [coordinate(0)],
        coarse_steps=10, space_refine=1, substeps=2,
    )
    assert_array_equal(oracle, direct.estimates)


def test_fine_oracle_near_kalman(linear1d):
    grid = build_grid(1, 6.0, 121)
    coarse = TimeSchedule(0.25, 25)
    fine = TimeSchedule(0.25, 100)
    _, obs_fine = simulate(linear1d, fine, substeps=2, seed=19)
    kal = kalman_filter(linear1d, fine, obs_fine)
    est = fine_oracle(linear1d, grid, fine, obs_fine, [coordinate(0)], coarse_steps=25)
    err = np.mean(np.abs(est[1:, 0] - kal.means[::4][1:, 0]))
    assert err < 3e-3


def test_pf_csv_schema(linear1d):
    sched = TimeSchedule(0.2, 4)
    _, obs = simulate(linear1d, sched, seed=2)
    res = bootstrap_pf(linear1d, sched, obs, [coordinate(0)], 100, seed=0)
    lines = res.to_csv().splitlines()
    assert lines[0] == "t,x1,x1_stderr,ess"
    assert len(lines) == 6


_CONSUMERS = {
    "run_filter": lambda m, s, obs: run_filter(m, build_grid(1, 4.0, 41), s, obs, [coordinate(0)]),
    "kalman_filter": lambda m, s, obs: kalman_filter(m, s, obs),
    "bootstrap_pf": lambda m, s, obs: bootstrap_pf(m, s, obs, [coordinate(0)], 50, seed=1),
    "ks_monte_carlo": lambda m, s, obs: ks_monte_carlo(m, s, obs, [coordinate(0)], 50, seed=1),
}


@pytest.mark.parametrize("consumer", list(_CONSUMERS))
@pytest.mark.parametrize(
    "recorded, expected",
    [
        # same step count, other dt: would filter at the wrong dt without an error
        (TimeSchedule(2.0, 100), r"terminal=2\.0, steps=100.*terminal=1\.0, steps=100"),
        # other step count: would die with an IndexError at knot 51
        (TimeSchedule(0.5, 50), r"terminal=0\.5, steps=50.*terminal=1\.0, steps=100"),
    ],
    ids=["other_dt", "other_steps"],
)
def test_path_on_another_schedule_is_refused(consumer, recorded, expected):
    m = builtin_model("linear1d")
    _, obs = simulate(m, recorded, seed=2)
    with pytest.raises(ValueError, match=expected):
        _CONSUMERS[consumer](m, TimeSchedule(1.0, 100), obs)
