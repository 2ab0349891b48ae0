import ast
import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from yyfilter.baselines import (
    ORACLES,
    PARTICLE_SEED_OFFSET,
    _discrete_transition,
    _ess,
    _gain_pass,
    _normalized_weights,
    agreement,
    bootstrap_pf,
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
    coordinate_product,
    squared_coordinate,
    _std_normal_density,
)
from yyfilter.pde import build_grid
from yyfilter.sde import PATH_SUBSTEPS, ObservationPath, _rng_for, observation_increments, simulate


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


def test_kalman_column_reads_the_moments():
    m = builtin_model("linearNd")
    sched = TimeSchedule(0.5, 50)
    res = kalman_filter(m, sched, simulate(m, sched, seed=4)[1])
    mu, cov = res.means, res.covs
    assert_array_equal(res.column("x1"), mu[:, 0])
    assert_array_equal(res.column("x2^2"), mu[:, 1] ** 2 + cov[:, 1, 1])
    assert_array_equal(res.column("x1*x2"), mu[:, 0] * mu[:, 1] + cov[:, 0, 1])
    assert_array_equal(res.column("x2*x1"), res.column("x1*x2"))


def test_agreement_skips_knot_zero_and_floors_the_stderr():
    est = np.array([9.0, 1e-13, 1e-11, 0.5])
    ref = np.zeros(4)
    gap, share = agreement(est, ref)
    assert gap == np.mean([1e-13, 1e-11, 0.5])  # knot 0's gap of 9 is left out
    assert share is None
    # zero standard errors count as 1e-12: a gap of 1e-13 is within 3 of them, 1e-11 is not
    _, share = agreement(est, ref, np.array([0.0, 0.0, 0.0, 0.2]))
    assert share == pytest.approx(2 / 3)


def test_grid_variance_matches_kalman_on_c1_paths():
    # The paper's covariance claim in 1D, on C1's setting: 50 paths, K = 1000,
    # 241 nodes, 4 substeps.  Measured: a mean gap of 8.57e-5 over paths
    # (2.21e-4 on the worst path, 4.89e-5 on 481 nodes); the bound is 2e-4.
    model = builtin_model("linear1d")
    sched = TimeSchedule(1.0, 1000)
    obs = [ys for _, ys in simulate(model, sched, substeps=PATH_SUBSTEPS, seed=list(range(50)))]
    outs = run_filter(model, build_grid(1, 6.0, 241), sched, obs,
                      [coordinate(0), squared_coordinate(0)], substeps=4)
    gaps = [
        agreement(out.column("x1^2") - out.column("x1") ** 2,
                  kal.column("x1^2") - kal.column("x1") ** 2)[0]
        for out, kal in zip(outs, kalman_filter(model, sched, obs))
    ]
    assert np.mean(gaps) <= 2e-4


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_oracle_reads_a_label_in_any_spelling(name):
    m = builtin_model("linearNd")
    sched = TimeSchedule(0.1, 5)
    _, obs = simulate(m, sched, seed=4)
    phis = [coordinate(0), coordinate_product(0, 1)]
    (res,) = ORACLES[name](m, sched, [obs], phis, [4], 50)
    readers = [res.column] + ([res.stderr_column] if hasattr(res, "stderr_column") else [])
    for read in readers:
        assert read("x1*x2").shape == (sched.steps + 1,)
        assert_array_equal(read("x2*x1"), read("x1*x2"))
        assert_array_equal(read(" x1 * x02 "), read("x1*x2"))
        if name != "kalman":  # the Kalman moments cover every readout
            with pytest.raises(ValueError, match=r"'x2\^2' was not recorded"):
                read("x2^2")


# A 2D system whose F, Q = g g^T and H are all non-diagonal.
_COUPLED = LinearSystem(
    drift_matrix=np.array([[-1.0, 0.4], [-0.3, -0.8]]),
    diffusion_matrix=np.array([[1.0, 0.0], [0.5, 1.0]]),
    observation_matrix=np.array([[1.0, 0.3], [0.0, 1.0]]),
    prior_mean=np.zeros(2),
    prior_cov=np.eye(2),
)


def _coupled_model():
    return dataclasses.replace(builtin_model("linearNd"), linear=_COUPLED)


def test_kalman_path_batch_matches_one_path_at_a_time():
    # The means of a batch advance as one (S, d) matrix: bit-identical in 1D,
    # within 1e-12 relative in 2D, where a matrix product may sum in another order.
    sched = TimeSchedule(0.5, 50)
    models = (builtin_model("linear1d"), _coupled_model())
    for m in models:
        obs = [ys for _, ys in simulate(m, sched, seed=[4, 5, 6])]
        for path, res in zip(obs, kalman_filter(m, sched, obs)):
            one = kalman_filter(m, sched, path)
            assert_array_equal(res.covs, one.covs)
            if m.dim == 1:
                assert_array_equal(res.means, one.means)
            assert_allclose(res.means, one.means, rtol=1e-12, atol=1e-15)


def _ref_kalman(model, schedule, paths):
    """kalman_filter as it stood when every call ran the covariance and gain
    recursion itself, copied verbatim: (S, K+1, d) means, (K+1, d, d) covariances."""
    lin = model.linear
    d = model.dim
    F, H = lin.drift_matrix, lin.observation_matrix
    Q = lin.diffusion_matrix @ lin.diffusion_matrix.T
    dt = schedule.dt
    Ad, Qd = _discrete_transition(F, Q, dt)
    C = H * dt
    Rn = dt * np.eye(d)

    K = schedule.steps
    means = np.empty((len(paths), K + 1, d))
    covs = np.empty((K + 1, d, d))
    m, P = np.tile(lin.prior_mean, (len(paths), 1)), lin.prior_cov.copy()
    means[:, 0], covs[0] = m, P
    dys = np.stack([observation_increments(p, schedule) for p in paths], axis=1)  # (K, S, d)
    eye = np.eye(d)
    for k in range(1, K + 1):
        m = m @ Ad.T
        P = Ad @ P @ Ad.T + Qd
        S = C @ P @ C.T + Rn
        gain = np.linalg.solve(S.T, (P @ C.T).T).T
        m = m + (dys[k - 1] - m @ C.T) @ gain.T
        P = (eye - gain @ C) @ P
        P = 0.5 * (P + P.T)
        means[:, k], covs[k] = m, P
    return means, covs


def _assert_matches_ref_kalman(model, schedule, paths):
    means, covs = _ref_kalman(model, schedule, paths)
    results = kalman_filter(model, schedule, paths)
    for res, mv in zip(results, means):
        assert_array_equal(res.means, mv)
        assert_array_equal(res.covs, covs)
    return results


@pytest.mark.parametrize("make", [
    lambda: builtin_model("linear1d"),
    lambda: builtin_model("linearNd", dim=2),
    lambda: builtin_model("linearNd", dim=3),
    _coupled_model,
], ids=["linear1d", "linearNd2", "linearNd3", "coupled2"])
def test_kalman_gain_pass_matches_the_per_call_recursion(make):
    m, sched = make(), TimeSchedule(0.5, 100)
    obs = [ys for _, ys in simulate(m, sched, seed=[4, 5, 6, 7])]
    one = kalman_filter(m, sched, obs[0])
    means, covs = _ref_kalman(m, sched, obs[:1])
    assert_array_equal(one.means, means[0])
    assert_array_equal(one.covs, covs)
    _assert_matches_ref_kalman(m, sched, obs)


def test_kalman_gain_pass_is_kept_across_calls(linear1d):
    sched = TimeSchedule(0.5, 100)
    obs = [ys for _, ys in simulate(linear1d, sched, seed=[1, 2])]
    first = kalman_filter(linear1d, sched, obs[0])
    before = _gain_pass.cache_info()
    again = kalman_filter(linear1d, sched, obs[1])
    batch = kalman_filter(linear1d, sched, obs)
    rebuilt = kalman_filter(builtin_model("linear1d"), sched, obs[0])  # equal values, new object
    after = _gain_pass.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)
    assert again.covs is first.covs and batch[1].covs is first.covs and rebuilt.covs is first.covs


@pytest.mark.parametrize("fields, sched", [
    ({"drift_matrix": _COUPLED.drift_matrix * 1.25}, TimeSchedule(0.5, 100)),
    ({"diffusion_matrix": _COUPLED.diffusion_matrix * 1.25}, TimeSchedule(0.5, 100)),
    ({"observation_matrix": _COUPLED.observation_matrix * 1.25}, TimeSchedule(0.5, 100)),
    ({"prior_cov": np.array([[0.8, 0.3], [0.3, 0.5]])}, TimeSchedule(0.5, 100)),
    ({}, TimeSchedule(0.6, 100)),  # dt alone
    ({}, TimeSchedule(1.0, 200)),  # K alone
], ids=["F", "Q", "H", "prior_cov", "dt", "K"])
def test_kalman_gain_pass_is_fresh_for_each_changed_input(fields, sched):
    m, base_sched = _coupled_model(), TimeSchedule(0.5, 100)
    _gain_pass.cache_clear()
    base = kalman_filter(m, base_sched, simulate(m, base_sched, seed=3)[1])
    m = dataclasses.replace(m, linear=dataclasses.replace(_COUPLED, **fields))
    obs = [ys for _, ys in simulate(m, sched, seed=[3, 4])]
    results = _assert_matches_ref_kalman(m, sched, obs)
    assert _gain_pass.cache_info()[:2] == (0, 2)  # (hits, misses)
    assert results[0].covs is not base.covs


def test_kalman_covs_are_shared_and_read_only(linear1d):
    sched = TimeSchedule(0.5, 50)
    results = kalman_filter(linear1d, sched, [ys for _, ys in simulate(linear1d, sched, seed=[1, 2])])
    assert results[0].covs is results[1].covs
    with pytest.raises(ValueError, match="read-only"):
        results[0].covs[1, 0, 0] = 1.0


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


def test_fine_oracle_near_kalman(linear1d):
    fine = TimeSchedule(0.25, 100)
    _, obs_fine = simulate(linear1d, fine, substeps=2, seed=19)
    kal = kalman_filter(linear1d, fine, obs_fine)
    # the dt sweep's fine_oracle reference for a 121-node mesh: the grid filter on the
    # mesh refined twice per axis at the simulation schedule, read at the coarse knots
    res = run_filter(linear1d, build_grid(1, 6.0, 241), fine, obs_fine, [coordinate(0)], 4)
    est = res.column("x1")[::4]
    err = np.mean(np.abs(est[1:] - kal.means[::4][1:, 0]))
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
    **{
        f"ORACLES[{name}]": lambda m, s, obs, fn=fn: fn(m, s, [obs], [coordinate(0)], [2], 50)
        for name, fn in ORACLES.items()
    },
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


# Reference: the particle loops as they stood before the normals were drawn on a
# worker thread and the weight arithmetic moved into preallocated buffers, copied
# verbatim (helpers included).  The oracles must consume the Philox stream in the
# same order, normals(k), [uniform(k)], normals(k + 1), and sum in the same order.


def _ref_normalized_weights(logw):
    lw = logw - logw.max()
    w = np.exp(lw)
    return w / w.sum()


def _ref_ess(w):
    return 1.0 / float(np.sum(w**2))


def _ref_weighted_readout(w, phi_vals):
    est = float(np.dot(w, phi_vals))
    se = float(np.sqrt(np.sum((w * (phi_vals - est)) ** 2)))
    return est, se


def _ref_systematic_resample(weights, rng):
    n = weights.size
    positions = (np.arange(n) + rng.random()) / n
    return np.searchsorted(np.cumsum(weights), positions)


def _g_at(model, x):
    """g at each particle: the callback's (n, d, d) stack, or the declared matrix repeated."""
    if model.diffusion_matrix is None:
        return model.diffusion(x)
    return np.broadcast_to(model.diffusion_matrix, (len(x), model.dim, model.dim))


def _ref_bootstrap_pf(model, schedule, obs, test_functions, n_particles, seed=0):
    d = model.dim
    K = schedule.steps
    dt = schedule.dt
    rng = _rng_for(seed)
    x = model.sample_initial(rng, n_particles)
    logw = np.zeros(n_particles)
    dys = observation_increments(obs, schedule)

    n_phi = len(test_functions)
    est = np.empty((K + 1, n_phi))
    serr = np.empty((K + 1, n_phi))
    ess_arr = np.empty(K + 1)

    sq = np.sqrt(dt)
    for k in range(K + 1):
        if k > 0:
            g = _g_at(model, x)
            x = x + model.drift(x) * dt + np.einsum(
                "nij,nj->ni", g, rng.standard_normal((n_particles, d))
            ) * sq
            h = model.observation(x)
            logw = logw + h @ dys[k - 1] - 0.5 * np.sum(h**2, axis=1) * dt
        w = _ref_normalized_weights(logw)
        for j, phi in enumerate(test_functions):
            est[k, j], serr[k, j] = _ref_weighted_readout(w, phi(x))
        ess_arr[k] = _ref_ess(w)
        if k > 0 and ess_arr[k] < n_particles / 2:
            idx = _ref_systematic_resample(w, rng)
            x = x[idx]
            logw = np.zeros(n_particles)
    return est, serr, ess_arr


def _ref_ks_monte_carlo(model, schedule, obs, test_functions, n_particles, substeps=4, seed=0):
    d = model.dim
    K = schedule.steps
    dt = schedule.dt / substeps
    rng = _rng_for(seed)
    x = model.sample_initial(rng, n_particles)
    logw = np.zeros(n_particles)
    dys = observation_increments(obs, schedule)

    n_phi = len(test_functions)
    est = np.empty((K + 1, n_phi))
    serr = np.empty((K + 1, n_phi))
    ess_arr = np.empty(K + 1)

    def record(k):
        w = _ref_normalized_weights(logw)
        for j, phi in enumerate(test_functions):
            est[k, j], serr[k, j] = _ref_weighted_readout(w, phi(x))
        ess_arr[k] = _ref_ess(w)

    record(0)
    sq = np.sqrt(dt)
    for k in range(1, K + 1):
        dy_sub = dys[k - 1] / substeps
        for _ in range(substeps):
            h = model.observation(x)
            logw += h @ dy_sub - 0.5 * np.sum(h**2, axis=1) * dt
            g = _g_at(model, x)
            x = x + model.drift(x) * dt + np.einsum(
                "nij,nj->ni", g, rng.standard_normal((n_particles, d))
            ) * sq
        record(k)
    return est, serr, ess_arr


def _loud_path(model, sched, scale, seed):
    """A simulated path with its increments scaled, so the weights collapse often."""
    _, obs = simulate(model, sched, seed=seed)
    return ObservationPath(sched, obs.values * scale)


def _resampled(ess, n):
    return np.flatnonzero(ess < n / 2)


@pytest.mark.parametrize(
    "name, dim, steps, scale, n, seed",
    [
        ("linear1d", None, 12, 40.0, 400, 3),  # loud paths: consecutive resamples, and at K
        ("cubic_sensor", None, 30, 2.0, 3000, 5),
        ("linearNd", 2, 12, 25.0, 300, 4),
        ("linearNd", 2, 20, 2.0, 2000, 8),
        # two particles: ks_monte_carlo only, since bootstrap_pf refuses fewer than 3
        ("benes", None, 10, 1.0, 2, 1),
        ("linearNd", 2, 10, 1.0, 2, 6),
    ],
)
def test_particle_oracles_match_the_sequential_stream(name, dim, steps, scale, n, seed):
    m = builtin_model(name, dim)
    sched = TimeSchedule(0.5, steps)
    obs = _loud_path(m, sched, scale, seed)
    phis = [coordinate(i) for i in range(m.dim)]
    seed += PARTICLE_SEED_OFFSET
    if n >= 3:
        res = bootstrap_pf(m, sched, obs, phis, n, seed=seed)
        for got, want in zip((res.estimates, res.stderr, res.ess),
                             _ref_bootstrap_pf(m, sched, obs, phis, n, seed=seed)):
            assert_array_equal(got, want)
    res = ks_monte_carlo(m, sched, obs, phis, n, substeps=3, seed=seed)
    for got, want in zip((res.estimates, res.stderr, res.ess),
                         _ref_ks_monte_carlo(m, sched, obs, phis, n, substeps=3, seed=seed)):
        assert_array_equal(got, want)


def test_bootstrap_pf_refuses_two_particles():
    # With N = 2 the ESS is at least 1 = N/2, so the rule ess < N/2 never resamples.
    m = builtin_model("benes")
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=1)
    with pytest.raises(ValueError, match="never falls below"):
        bootstrap_pf(m, sched, obs, [coordinate(0)], 2, seed=1)


_SHORT = TimeSchedule(0.1, 5)


@pytest.mark.parametrize("call, match", [
    (lambda m, obs: simulate(m, _SHORT, substeps=2.5), r"substeps must be an integer >= 1, not 2\.5"),
    (lambda m, obs: run_filter(m, build_grid(1, 4.0, 41), _SHORT, obs, [coordinate(0)], 2.5),
     r"substeps must be an integer >= 1, not 2\.5"),
    (lambda m, obs: ks_monte_carlo(m, _SHORT, obs, [coordinate(0)], 50, substeps=2.5),
     r"substeps must be an integer >= 1, not 2\.5"),
    (lambda m, obs: ks_monte_carlo(m, _SHORT, obs, [coordinate(0)], 50, substeps=0),
     "substeps must be an integer >= 1, not 0"),
    (lambda m, obs: ks_monte_carlo(m, _SHORT, obs, [coordinate(0)], 50, substeps=-1),
     "substeps must be an integer >= 1, not -1"),
    (lambda m, obs: ks_monte_carlo(m, _SHORT, obs, [coordinate(0)], 1e3),
     r"n_particles must be an integer >= 1, not 1000\.0"),
    (lambda m, obs: bootstrap_pf(m, _SHORT, obs, [coordinate(0)], 1e3),
     r"n_particles must be an integer >= 1, not 1000\.0"),
], ids=["simulate", "run_filter", "ks_substeps_2.5", "ks_substeps_0", "ks_substeps_-1",
        "ks_particles", "pf_particles"])
def test_counts_are_refused_by_name(linear1d, call, match, monkeypatch):
    _, obs = simulate(linear1d, _SHORT, seed=1)
    import yyfilter.filtering

    set_up = []  # run_filter refuses its count before any set-up
    for name in ("assemble_generator", "discretize_initial"):
        monkeypatch.setattr(yyfilter.filtering, name,
                            lambda *args, name=name: set_up.append(name))
    with pytest.raises(ValueError, match=match):
        call(linear1d, obs)
    assert set_up == []


@pytest.mark.parametrize("call, what", [
    (lambda m: simulate(m, _SHORT, seed=[]), "seeds"),
    (lambda m: run_filter(m, build_grid(1, 4.0, 41), _SHORT, [], [coordinate(0)]),
     "observation paths"),
    (lambda m: kalman_filter(m, _SHORT, []), "observation paths"),
], ids=["simulate", "run_filter", "kalman_filter"])
def test_an_empty_batch_is_refused_by_name(linear1d, call, what):
    with pytest.raises(ValueError, match=f"the batch of {what} is empty"):
        call(linear1d)


def test_stream_cases_cover_every_resampling_pattern():
    # The cases above must keep exercising the rollback: consecutive resamples,
    # a resample at the last knot, and runs that resample only now and then.
    def pattern(name, dim, steps, scale, n, seed):
        m = builtin_model(name, dim)
        sched = TimeSchedule(0.5, steps)
        obs = _loud_path(m, sched, scale, seed)
        ess = bootstrap_pf(m, sched, obs, [coordinate(0)], n, seed=seed + PARTICLE_SEED_OFFSET).ess
        return _resampled(ess[1:], n) + 1

    for loud in (pattern("linear1d", None, 12, 40.0, 400, 3),
                 pattern("linearNd", 2, 12, 25.0, 300, 4)):
        assert np.any(np.diff(loud) == 1)  # consecutive knots
        assert loud[-1] == 12  # knot K
    assert_array_equal(pattern("cubic_sensor", None, 30, 2.0, 3000, 5), [3, 7, 17])
    assert_array_equal(pattern("linearNd", 2, 20, 2.0, 2000, 8), [1, 12, 17])


def test_particle_oracles_leave_no_thread_behind():
    m = builtin_model("cubic_sensor")
    sched = TimeSchedule(0.5, 10)
    _, obs = simulate(m, sched, seed=3)
    before = threading.active_count()
    callers = set()

    def observation(points):
        callers.add(threading.get_ident())
        return m.observation(points)

    bootstrap_pf(dataclasses.replace(m, observation=observation), sched, obs,
                 [coordinate(0)], 1000, seed=1)
    assert threading.active_count() == before
    assert callers == {threading.get_ident()}  # callbacks run on the calling thread

    boom = RuntimeError("observation failed at knot 3")
    calls = []

    def failing(points):
        calls.append(1)
        if len(calls) == 3:
            raise boom
        return m.observation(points)

    with pytest.raises(RuntimeError) as info:
        bootstrap_pf(dataclasses.replace(m, observation=failing), sched, obs,
                     [coordinate(0)], 1000, seed=1)
    assert info.value is boom
    assert len(calls) == 3
    assert threading.active_count() == before


def test_concurrent_particle_filters_keep_their_own_streams():
    # Each call owns its generator, buffers and worker; four calls at once on a
    # short switch interval must each still match the sequential reference.
    m = builtin_model("linearNd", 2)
    sched = TimeSchedule(0.5, 12)
    obs = _loud_path(m, sched, 25.0, 4)
    phis = [coordinate(0), coordinate(1)]
    want = [_ref_bootstrap_pf(m, sched, obs, phis, 300, seed=s) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda s: bootstrap_pf(m, sched, obs, phis, 300, seed=s),
                                range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for res, (est, serr, ess) in zip(got, want):
        assert_array_equal(res.estimates, est)
        assert_array_equal(res.stderr, serr)
        assert_array_equal(res.ess, ess)


def test_ks_oracle_ignores_the_filter_substeps(linear1d):
    # the table takes no grid-filter stage count; its KS entry runs at PATH_SUBSTEPS
    sched, seeds, phis = TimeSchedule(0.1, 5), [2, 3], [coordinate(0)]
    obs = [ys for _, ys in simulate(linear1d, sched, substeps=PATH_SUBSTEPS, seed=seeds)]
    got = ORACLES["ks_monte_carlo"](linear1d, sched, obs, phis, seeds, 200)
    for seed, ys, res in zip(seeds, obs, got):
        one = ks_monte_carlo(linear1d, sched, ys, phis, 200, substeps=PATH_SUBSTEPS,
                             seed=seed + PARTICLE_SEED_OFFSET)
        assert_array_equal(res.estimates, one.estimates)
        assert_array_equal(res.stderr, one.stderr)
        assert_array_equal(res.ess, one.ess)


def test_bench_copies_of_package_constants_match():
    # bench/workloads.py spells its particle seed offset and path resolution
    # itself; read them without importing it, and hold them to the package's
    source = (Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text()
    copies = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("PF_SEED_OFFSET", "SIM_SUBSTEPS")
    }
    assert copies == {"PF_SEED_OFFSET": PARTICLE_SEED_OFFSET, "SIM_SUBSTEPS": PATH_SUBSTEPS}
