import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from yyfilter.filtering import FilterOutput, MassCollapseError, estimate, run_filter
from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    ONE,
    TimeSchedule,
    builtin_model,
    coordinate,
    squared_coordinate,
    _std_normal_density,
    _unit_diffusion,
)
from yyfilter.pde import (
    DensityField,
    assemble_generator,
    build_grid,
    discretize_initial,
    exp_update,
    propagate,
)
from yyfilter.sde import observation_increments, simulate
from yyfilter.baselines import kalman_filter


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
        diffusion=_unit_diffusion,
        observation=big_obs,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
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
    assert np.all(out.min_value >= 0.0)
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


@pytest.mark.parametrize("dim, points, steps", [(1, 121, 40), (2, 31, 10)])
def test_path_batch_matches_one_path_at_a_time(dim, points, steps):
    model = builtin_model("linear1d") if dim == 1 else builtin_model("linearNd", dim=dim)
    grid = build_grid(dim, 4.0, points)
    gen = assemble_generator(model, grid)
    schedule = TimeSchedule(0.02 * steps, steps)
    obs = [ys for _, ys in simulate(model, schedule, substeps=2, seed=[1, 2, 3])]
    phis = [coordinate(0), squared_coordinate(dim - 1)]
    seen = []
    batch = run_filter(model, grid, schedule, obs, phis, substeps=2, generator=gen,
                       field_hook=lambda k, stage, f: seen.append(f.values.shape))
    assert set(seen) == {(grid.n_nodes, 3)}
    for path, out in zip(obs, batch):
        one = run_filter(model, grid, schedule, path, phis, substeps=2, generator=gen)
        for name in ("estimates", "mass_mantissa", "mass_log_scale", "clamped_mass",
                     "min_value"):
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
    # yyfilter.filtering; a loop that bound them elsewhere would read 0.
    import yyfilter.filtering

    model = builtin_model("linear1d")
    grid = build_grid(1, 4.0, 81)
    schedule = TimeSchedule(0.2, 20)
    _, obs = simulate(model, schedule, seed=9)
    calls = {"propagate": 0, "exp_update": 0}
    for name in calls:
        def counted(*args, _fn=getattr(yyfilter.filtering, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(yyfilter.filtering, name, counted)
    run_filter(model, grid, schedule, obs, [coordinate(0)])
    assert calls == {"propagate": schedule.steps, "exp_update": schedule.steps}
