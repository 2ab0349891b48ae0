import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yyfilter.filtering import CLAMP_TOLERANCE, MassCollapseError, estimate, run_filter
from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    LinearSystem,
    ONE,
    TimeSchedule,
    builtin_model,
    coordinate,
    squared_coordinate,
    _std_normal_density,
)
from yyfilter.pde import (
    DensityField,
    SolverError,
    _cn_system,
    assemble_generator,
    build_grid,
    discretize_initial,
    exp_update,
    integrate,
    propagate,
)
from yyfilter.sde import ObservationPath, observation_increments, simulate
from yyfilter.baselines import agreement, kalman_filter


def _zero_vec(points):
    return np.zeros_like(points)


@pytest.fixture(scope="module")
def small_setup():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 121)
    schedule = TimeSchedule(0.5, 50)
    _, obs = simulate(model, schedule, substeps=2, seed=17)
    return model, grid, schedule, obs


def test_constant_test_function_reads_one(small_setup):
    model, grid, schedule, obs = small_setup
    out = run_filter(model, grid, schedule, obs, [ONE, coordinate(0)])
    assert np.max(np.abs(out.estimates[:, 0] - 1.0)) < 1e-12


def test_uninformative_observations_keep_symmetry():
    # h == 0 makes the update an identity; a symmetric prior stays symmetric
    model = dataclasses.replace(
        builtin_model("linear1d"), observation=_zero_vec, linear=None
    )
    grid = build_grid(1, 6.0, 121)
    schedule = TimeSchedule(0.5, 25)
    _, obs = simulate(model, schedule, seed=3)
    out = run_filter(model, grid, schedule, obs, [coordinate(0)])
    assert np.max(np.abs(out.estimates[:, 0])) < 1e-9


def test_scale_invariance_of_estimates(small_setup):
    model, grid, schedule, obs = small_setup

    def scaled_density(points):
        return 7.3 * _std_normal_density(points)

    scaled = dataclasses.replace(model, initial_density=scaled_density)
    a = run_filter(model, grid, schedule, obs, [coordinate(0)])
    b = run_filter(scaled, grid, schedule, obs, [coordinate(0)])
    assert np.max(np.abs(a.estimates - b.estimates)) < 1e-12


def test_renormalization_neutrality(small_setup):
    # run_filter renormalizes after every update; a reference loop that
    # never does must read the same estimates
    model, grid, schedule, obs = small_setup
    sched = TimeSchedule(schedule.terminal * 20 / schedule.steps, 20)
    _, obs20 = simulate(model, sched, substeps=2, seed=5)
    a = run_filter(model, grid, sched, obs20, [coordinate(0)])
    gen = assemble_generator(model, grid)
    field = discretize_initial(model, grid)
    ref = [estimate(field, coordinate(0))]
    for dy in observation_increments(obs20, sched):
        field = exp_update(propagate(gen, field, sched.dt, 4), gen.observation, dy)
        ref.append(estimate(field, coordinate(0)))
    assert np.max(np.abs(a.estimates[:, 0] - np.array(ref))) < 1e-10


def test_knot_shift_consistency():
    # K steps of size dt and 2K steps of size dt/2 against the same refined
    # observation path agree at shared knots to well under sqrt(dt)
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 121)
    fine = TimeSchedule(0.5, 100)
    diffs = []
    for seed in range(8):
        _, obs_fine = simulate(model, fine, substeps=2, seed=seed)
        from yyfilter.sde import subsample

        obs_coarse = subsample(obs_fine, 2)
        a = run_filter(model, grid, obs_coarse.schedule, obs_coarse, [coordinate(0)])
        b = run_filter(model, grid, fine, obs_fine, [coordinate(0)])
        diffs.append(np.mean(np.abs(a.estimates[1:, 0] - b.estimates[::2][1:, 0])))
    assert np.mean(diffs) <= 0.5 * math.sqrt(obs_coarse.schedule.dt)


def test_estimates_recorded_after_update_match_kalman(small_setup):
    model, grid, schedule, obs = small_setup
    out = run_filter(model, grid, schedule, obs, [coordinate(0)], substeps=4)
    kal = kalman_filter(model, schedule, obs)
    err = np.mean(np.abs(out.estimates[1:, 0] - kal.means[1:, 0]))
    assert err < 2e-3


def test_estimate_narrow_gaussian_second_moment():
    grid = build_grid(1, 6.0, 2401)
    xs = grid.coords[:, 0]
    vals = np.exp(-0.5 * (xs - 1.5) ** 2 / 0.05**2)
    vals[grid.boundary_mask] = 0.0
    field = DensityField(grid, vals)
    got = estimate(field, squared_coordinate(0))
    assert got == pytest.approx(1.5**2 + 0.05**2, abs=1e-3)


def test_estimate_of_one_is_one(small_setup):
    model, grid, _, _ = small_setup
    field = discretize_initial(model, grid)
    assert estimate(field, ONE) == pytest.approx(1.0, abs=1e-12)


def test_estimate_odd_function_on_symmetric_field(small_setup):
    model, grid, _, _ = small_setup
    field = discretize_initial(model, grid)
    assert abs(estimate(field, coordinate(0))) < 1e-12


def test_estimate_zero_mass_raises(small_setup):
    model, grid, _, _ = small_setup
    field = DensityField(grid, np.zeros(grid.n_nodes))
    with pytest.raises(MassCollapseError):
        estimate(field, ONE)


def test_mismatched_schedule_rejected(small_setup):
    model, grid, schedule, obs = small_setup
    other = TimeSchedule(schedule.terminal, schedule.steps * 2)
    with pytest.raises(ValueError, match="schedule"):
        run_filter(model, grid, other, obs, [ONE])


@pytest.mark.parametrize(
    "gen_grid, expected",
    [
        # same node count, other spacing: would return plausible wrong estimates
        ((1, 6.0, 241), r"grid\(dim=1, radius=6\.0, points=241\).*radius=4\.0, points=241"),
        # other node count: would die in a sparse matmul
        ((1, 4.0, 121), r"grid\(dim=1, radius=4\.0, points=121\).*radius=4\.0, points=241"),
    ],
)
def test_generator_from_another_grid_rejected(gen_grid, expected):
    model = builtin_model("linear1d")
    grid = build_grid(1, 4.0, 241)
    schedule = TimeSchedule(1.0, 100)
    _, obs = simulate(model, schedule, seed=5)
    gen = assemble_generator(model, build_grid(*gen_grid))
    with pytest.raises(ValueError, match=expected):
        run_filter(model, grid, schedule, obs, [ONE], generator=gen)
    # an equal grid built separately (radius given as an int) is accepted
    out = run_filter(model, grid, schedule, obs, [ONE],
                     generator=assemble_generator(model, build_grid(1, 4, 241)))
    assert out.estimates.shape == (101, 1)


def test_clamp_guard_trips_on_violent_potential():
    def big_obs(points):
        return 10.0 * points

    model = FilterModel(
        name="stiff",
        dim=1,
        drift=_zero_vec,
        diffusion=None,
        observation=big_obs,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        diffusion_matrix=np.eye(1),
    )
    grid = build_grid(1, 6.0, 121)
    schedule = TimeSchedule(0.5, 5)
    _, obs = simulate(model, schedule, seed=0)
    with pytest.raises(MassCollapseError, match=r"clamped.*knot 1 \(t=0\.1, dt=0\.1, substeps=1\)"):
        run_filter(model, grid, schedule, obs, [ONE], substeps=1)


def test_coarse_3d_clamp_names_mesh_spacing():
    # Crank-Nicolson undershoots the initial density on a 21^3 mesh at this dt;
    # the error must name the mesh spacing as well as the step size.
    model = builtin_model("linearNd", dim=3)
    grid = build_grid(3, 4.0, 21)
    schedule = TimeSchedule(0.05, 5)
    _, obs = simulate(model, schedule, seed=0)
    with pytest.raises(MassCollapseError, match=r"knot 1 \(t=0\.01, dt=0\.01, substeps=4\).*dx=0\.4"):
        run_filter(model, grid, schedule, obs, [ONE], substeps=4)


def test_field_hook_sees_both_stages(small_setup):
    model, grid, schedule, obs = small_setup
    sched = TimeSchedule(0.1, 5)
    _, obs5 = simulate(model, sched, seed=2)
    seen = []
    run_filter(
        model, grid, sched, obs5, [ONE], field_hook=lambda k, stage, f: seen.append((k, stage))
    )
    assert seen == [
        (k, stage) for k in range(1, 6) for stage in ("propagated", "updated")
    ]


@pytest.mark.parametrize("paths", [1, 2])
def test_fields_handed_to_the_hook_keep_their_values(small_setup, paths):
    # The L4 check and radius_sweep read fields inside hooks; renormalizing
    # or propagating in place would rewrite what they were handed.
    model, grid, _, _ = small_setup
    sched = TimeSchedule(0.1, 5)
    obs = [ys for _, ys in simulate(model, sched, seed=list(range(paths)))]
    seen = []
    run_filter(model, grid, sched, obs[0] if paths == 1 else obs, [ONE],
               field_hook=lambda k, stage, f: seen.append((f, f.values.copy())))
    assert len(seen) == 10
    for f, values in seen:
        np.testing.assert_array_equal(f.values, values)


def test_output_csv_schema(small_setup):
    model, grid, schedule, obs = small_setup
    out = run_filter(model, grid, schedule, obs, [coordinate(0), squared_coordinate(0)])
    text = out.to_csv()
    lines = text.splitlines()
    assert lines[0] == "t,x1,x1^2,mass_log_scale,clamped_mass"
    assert len(lines) == schedule.steps + 2
    assert out.column("x1").shape == (schedule.steps + 1,)


def test_diagnostics_recorded(small_setup):
    model, grid, schedule, obs = small_setup
    out = run_filter(model, grid, schedule, obs, [ONE])
    assert np.all(np.isfinite(out.mass_mantissa))
    assert np.all(out.mass_mantissa > 0)
    assert np.all(out.clamped_mass >= 0.0)


def test_2d_filter_tracks_kalman():
    model = builtin_model("linearNd")
    grid = build_grid(2, 4.0, 41)
    schedule = TimeSchedule(0.2, 20)
    _, obs = simulate(model, schedule, substeps=2, seed=23)
    out = run_filter(model, grid, schedule, obs, [coordinate(0), coordinate(1)])
    kal = kalman_filter(model, schedule, obs)
    err = np.mean(np.abs(out.estimates[1:] - kal.means[1:]))
    assert err < 5e-3


def test_long_horizon_keeps_mass_representable():
    # K = 1e5 knots (T = 100 at dt = 1e-3): the renormalized mass must neither
    # overflow nor underflow, and the estimate must still track Kalman within C1's bound.
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 241)
    schedule = TimeSchedule(100.0, 100_000)
    _, obs = simulate(model, schedule, substeps=1, seed=7)
    out = run_filter(model, grid, schedule, obs, [coordinate(0)])
    assert np.all(np.isfinite(out.mass_log_scale))
    assert np.all((out.mass_mantissa > 0) & (out.mass_mantissa <= 1))
    kal = kalman_filter(model, schedule, obs)
    assert np.mean(np.abs(out.estimates[1:, 0] - kal.means[1:, 0])) <= 0.05 * math.sqrt(0.5)


def test_3d_filter_batch_tracks_kalman():
    # Two paths as one batch, so the per-column BiCGSTAB route runs in 3D.
    model = builtin_model("linearNd", dim=3)
    grid = build_grid(3, 6.0, 21)
    schedule = TimeSchedule(0.02, 20)
    obs = [ys for _, ys in simulate(model, schedule, substeps=2, seed=[23, 24])]
    phis = [coordinate(i) for i in range(3)]
    outs = run_filter(model, grid, schedule, obs, phis)
    for out, kal in zip(outs, kalman_filter(model, schedule, obs)):
        assert np.mean(np.abs(out.estimates[1:] - kal.means[1:])) < 5e-3


def _scalar_linear_model(F, H, g, m0, P0):
    """dX = F X dt + g dV, dY = H X dt + dW, X_0 ~ N(m0, P0)."""
    def density(p):
        return np.exp(-0.5 * (p[:, 0] - m0) ** 2 / P0) / math.sqrt(2 * math.pi * P0)

    return FilterModel(
        name="scalar_linear",
        dim=1,
        drift=lambda p: F * p,
        diffusion=None,
        observation=lambda p: H * p,
        initial_density=density,
        assumptions=AssumptionProfile(abs(F), g * g, 2, 1, 1.0),
        initial_sampler=lambda rng, n: m0 + math.sqrt(P0) * rng.standard_normal((n, 1)),
        linear=LinearSystem(np.array([[F]]), np.array([[g]]), np.array([[H]]),
                            np.array([m0]), np.array([[P0]])),
        diffusion_matrix=np.array([[g]]),
    )


@settings(max_examples=12)
@given(
    F=st.floats(-2.0, -0.2),
    H=st.floats(0.3, 2.0),
    h_sign=st.sampled_from([-1.0, 1.0]),
    g=st.floats(0.5, 1.5),
    m0=st.floats(-1.0, 1.0),
    P0=st.floats(0.25, 2.0),
)
def test_grid_mean_tracks_kalman_on_stable_scalar_systems(F, H, h_sign, g, m0, P0):
    # The radius spans 8 standard deviations of the wider of the prior and the
    # stationary law g^2 / (2 |F|), at 16 nodes per standard deviation.  Over
    # 300 random draws and the corners of these ranges, the mean gap to Kalman
    # (T = 0.5, dt = 2e-3) was at most 1.6e-3 of that deviation; the bound is 5e-3.
    sd = math.sqrt(max(P0, g * g / (-2.0 * F)))
    radius = abs(m0) + 8.0 * sd
    model = _scalar_linear_model(F, h_sign * H, g, m0, P0)
    schedule = TimeSchedule(0.5, 250)
    obs = [ys for _, ys in simulate(model, schedule, seed=[1, 2, 3])]
    grid = build_grid(1, radius, 2 * math.ceil(16.0 * radius / sd) + 1)
    outs = run_filter(model, grid, schedule, obs, [coordinate(0)])
    for out, kal in zip(outs, kalman_filter(model, schedule, obs)):
        assert agreement(out.column("x1"), kal.column("x1"))[0] <= 5e-3 * sd


@pytest.mark.parametrize("dim, radius, points, dt, steps, seeds", [
    pytest.param(1, 4.0, 121, 0.02, 40, [1, 2, 3], id="1-121-40"),
    pytest.param(1, 4.0, 121, 0.02, 40, [1], id="1-121-40-one-path"),
    pytest.param(2, 4.0, 31, 0.02, 10, [1, 2, 3], id="2-31-10"),
    # Coarser or wider-stepped 3D runs trip the clamp guard at knot 1.
    pytest.param(3, 6.0, 21, 0.001, 4, [1, 2, 3], id="3-21-4"),
])
def test_path_batch_matches_one_path_at_a_time(dim, radius, points, dt, steps, seeds):
    model = builtin_model("linear1d") if dim == 1 else builtin_model("linearNd", dim=dim)
    grid = build_grid(dim, radius, points)
    gen = assemble_generator(model, grid)
    schedule = TimeSchedule(dt * steps, steps)
    obs = [ys for _, ys in simulate(model, schedule, substeps=2, seed=seeds)]
    phis = [coordinate(0), squared_coordinate(dim - 1)]
    seen = []
    batch = run_filter(model, grid, schedule, obs, phis, substeps=2, generator=gen,
                       field_hook=lambda k, stage, f: seen.append(f.values.shape))
    assert set(seen) == {(grid.n_nodes, len(seeds))}
    for path, out in zip(obs, batch):
        one = run_filter(model, grid, schedule, path, phis, substeps=2, generator=gen)
        for name in ("estimates", "mass_mantissa", "mass_log_scale", "clamped_mass"):
            assert np.array_equal(getattr(out, name), getattr(one, name)), name


@given(scale=st.floats(0.1, 10.0))
def test_estimate_invariant_under_field_scaling(scale):
    grid = build_grid(1, 4.0, 81)
    xs = grid.coords[:, 0]
    vals = np.exp(-0.5 * (xs - 0.7) ** 2)
    vals[grid.boundary_mask] = 0.0
    a = estimate(DensityField(grid, vals), squared_coordinate(0))
    b = estimate(DensityField(grid, vals * scale), squared_coordinate(0))
    assert a == pytest.approx(b, rel=1e-12)


def test_online_loop_makes_no_observation_callback():
    model = builtin_model("linear1d")
    grid = build_grid(1, 4.0, 81)
    schedule = TimeSchedule(0.2, 20)
    _, obs = simulate(model, schedule, seed=9)
    gen = assemble_generator(model, grid)
    calls = []

    def counted(points):
        calls.append(len(points))
        return model.observation(points)

    counting = dataclasses.replace(model, observation=counted)
    out = run_filter(counting, grid, schedule, obs, [coordinate(0)], generator=gen)
    assert calls == []
    ref = run_filter(model, grid, schedule, obs, [coordinate(0)], generator=gen)
    np.testing.assert_array_equal(out.estimates, ref.estimates)


def test_run_filter_calls_the_filtering_module_primitives(monkeypatch):
    # The benchmark's tracer wraps these by attribute assignment on
    # yyfilter.filtering and reads the substep count from propagate's args[3]; a
    # loop that bound them elsewhere, skipped one, or passed substeps by keyword
    # would read 0 or a wrong count.
    import yyfilter.filtering

    model = builtin_model("linear1d")
    grid = build_grid(1, 4.0, 81)
    schedule = TimeSchedule(0.2, 20)
    _, obs = simulate(model, schedule, seed=9)
    calls = {"propagate": [], "exp_update": []}
    for name in calls:
        def counted(*args, _fn=getattr(yyfilter.filtering, name), _name=name, **kwargs):
            calls[_name].append((args, kwargs))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(yyfilter.filtering, name, counted)
    run_filter(model, grid, schedule, obs, [coordinate(0)], substeps=3)
    assert {name: len(c) for name, c in calls.items()} == {
        "propagate": schedule.steps, "exp_update": schedule.steps}
    assert all(len(args) > 3 and args[3] == 3 and not kwargs
               for args, kwargs in calls["propagate"])


def _cubic_loud_path(y2):
    # Y = (0, 0, y2) on a 25-node cubic_sensor grid: at knot 2 with y2 = 20 the
    # shifted exponent x^3 dY - shift overflows at the boundary nodes, where the
    # field is 0; y2 = 10 stays in range.
    model = builtin_model("cubic_sensor")
    grid = build_grid(1, 6.0, 25)
    schedule = TimeSchedule(0.002, 2)
    return model, grid, schedule, ObservationPath(schedule, np.array([[0.0], [0.0], [y2]]))


@pytest.mark.parametrize("y2", [10.0, 20.0])
def test_update_overflowing_off_the_support_stays_finite(y2):
    model, grid, schedule, obs = _cubic_loud_path(y2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning either
        out = run_filter(model, grid, schedule, obs, [coordinate(0)])
    assert np.isfinite(out.mass_mantissa).all() and np.isfinite(out.mass_log_scale).all()
    assert out.column("x1")[2] == pytest.approx(5.5, abs=1e-12)  # the node nearest the peak


def test_a_nan_mass_is_refused(monkeypatch):
    import yyfilter.filtering

    def poisoned(field, h, dy):
        out = exp_update(field, h, dy)
        out.values[len(out.values) // 2] = np.nan
        return out

    monkeypatch.setattr(yyfilter.filtering, "exp_update", poisoned)
    model, grid, schedule, obs = _cubic_loud_path(1.0)
    with pytest.raises(MassCollapseError, match=r"field mass collapsed at knot 1 "):
        run_filter(model, grid, schedule, obs, [coordinate(0)])


# ---------------------------------------------------------------------------
# Reference online loop: run_filter, propagate and exp_update as they stood
# before the loop's per-knot bookkeeping was cut (a dataclass field, a boolean
# boundary mask, isfinite plus min, per-knot lists reshaped after the loop,
# and a one-column batch exponent).  The package must match it bit for bit.
# ---------------------------------------------------------------------------


def _ref_propagate(gen, field, dt, substeps):
    cn = _cn_system(gen, dt / (2 * substeps))
    v = np.asarray(field.values, dtype=float)
    for _ in range(substeps):
        y = cn.solve(v)
        y -= v
        v = y
    if not np.isfinite(v).all():
        raise SolverError("propagation produced non-finite values")
    clamped = np.zeros(v.shape[1:])
    if v.min() < 0:
        w = field.grid.trap_weights
        cols = v.reshape(len(v), -1)
        neg = cols < 0
        for s in np.flatnonzero(neg.any(axis=0)):
            clamped.flat[s] = -np.sum(cols[neg[:, s], s] * w[neg[:, s]])
            cols[neg[:, s], s] = 0.0
    v[field.grid.boundary_mask] = 0.0
    return DensityField(field.grid, v, field.log_scale, clamped if v.ndim == 2 else float(clamped))


def _ref_exp_update(field, h, dy):
    vals = field.values
    d = h.shape[1]
    ys = np.asarray(dy, dtype=float).reshape(-1, d)
    expo = h * ys.T if d == 1 else np.column_stack([h @ y for y in ys])
    expo = expo.reshape(vals.shape)
    shift = expo.max(axis=0, where=vals > 0, initial=-np.inf, keepdims=True)
    shift[shift == -np.inf] = 0.0
    expo -= shift
    vals = np.multiply(np.exp(expo, out=expo), vals, out=expo)
    return DensityField(field.grid, vals, field.log_scale + shift[0], field.clamped_mass)


def _ref_run_filter(model, grid, schedule, obs, test_functions, substeps, gen, field_hook=None):
    """Per path: estimates, mass mantissa, mass log-scale and clamped mass."""
    single = isinstance(obs, ObservationPath)
    paths = [obs] if single else list(obs)
    increments = np.stack([observation_increments(p, schedule) for p in paths], axis=1)
    field = discretize_initial(model, grid)
    S = len(paths)
    if not single:
        field = DensityField(
            grid, np.repeat(field.values[:, None], S, axis=1), np.zeros(S), np.zeros(S)
        )
    phi_nodes = [np.asarray(phi(grid.coords), dtype=float) for phi in test_functions]
    K = schedule.steps
    dt = schedule.dt
    est, mass_m, mass_ls, clamped = [], [], [], []

    def record(fld):
        m = integrate(fld)
        assert np.all(m >= 1e-300)
        mass_m.append(m)
        est.append([integrate(fld, pv) / m for pv in phi_nodes])
        mass_ls.append(fld.log_scale)
        clamped.append(fld.clamped_mass)
        return m

    mass = record(field)
    for k in range(1, K + 1):
        field = _ref_propagate(gen, field, dt, substeps)
        assert np.all(field.clamped_mass <= CLAMP_TOLERANCE * mass)
        if field_hook is not None:
            field_hook(k, "propagated", field)
        field = _ref_exp_update(field, gen.observation, increments[k - 1])
        if field_hook is not None:
            field_hook(k, "updated", field)
        mass = record(field)
        field = DensityField(
            grid, field.values / mass, field.log_scale + np.log(mass), field.clamped_mass
        )
        mass = 1.0

    est = np.reshape(est, (K + 1, len(test_functions), S)).transpose(2, 0, 1).copy()
    mass_m, mass_ls, clamped = (
        np.reshape(a, (K + 1, S)).T.copy() for a in (mass_m, mass_ls, clamped)
    )
    return [(est[s], mass_m[s], mass_ls[s], clamped[s]) for s in range(S)]


_REFERENCE_CASES = {
    # model, dim, radius, points, dt, steps, seeds, substeps, field hook
    "one-path-1d": ("linear1d", 1, 6.0, 241, 0.001, 300, [4], 4, False),
    "batch-1d": ("linear1d", 1, 6.0, 241, 0.001, 300, [4, 5, 6], 4, False),
    "batch-2d": ("linearNd", 2, 4.0, 31, 0.02, 10, [1, 2, 3], 2, False),
    "cubic-clamped-8-substeps": ("cubic_sensor", 1, 6.0, 241, 0.001, 40, [2], 8, False),
    "batch-1d-hooked": ("linear1d", 1, 6.0, 241, 0.001, 50, [4, 5], 4, True),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_online_loop_matches_the_reference_loop_bit_for_bit(case):
    name, dim, radius, points, dt, steps, seeds, substeps, hooked = _REFERENCE_CASES[case]
    model = builtin_model(name, dim if name == "linearNd" else None)
    grid = build_grid(dim, radius, points)
    gen = assemble_generator(model, grid)
    schedule = TimeSchedule(dt * steps, steps)
    obs = [ys for _, ys in simulate(model, schedule, substeps=4, seed=seeds)]
    obs = obs[0] if len(seeds) == 1 else obs
    phis = [coordinate(0), squared_coordinate(dim - 1)]
    seen = {"package": [], "reference": []}

    def hook(side):
        def record(k, stage, f):
            seen[side].append((k, stage, f.values.copy(), np.copy(f.log_scale),
                               np.copy(f.clamped_mass)))
        return record if hooked else None

    got = run_filter(model, grid, schedule, obs, phis, substeps=substeps, generator=gen,
                     field_hook=hook("package"))
    want = _ref_run_filter(model, grid, schedule, obs, phis, substeps, gen, hook("reference"))
    got = [got] if len(seeds) == 1 else got
    for out, (est, mass_m, mass_ls, clamped) in zip(got, want, strict=True):
        np.testing.assert_array_equal(out.estimates, est)
        np.testing.assert_array_equal(out.mass_mantissa, mass_m)
        np.testing.assert_array_equal(out.mass_log_scale, mass_ls)
        np.testing.assert_array_equal(out.clamped_mass, clamped)
    if name == "cubic_sensor":
        assert np.count_nonzero(got[0].clamped_mass) > 0  # the clamp branch ran
    assert len(seen["package"]) == len(seen["reference"]) == (2 * steps if hooked else 0)
    for a, b in zip(seen["package"], seen["reference"]):
        assert a[:2] == b[:2]
        for x, y in zip(a[2:], b[2:]):
            np.testing.assert_array_equal(x, y)
