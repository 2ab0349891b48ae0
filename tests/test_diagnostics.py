import dataclasses
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp
from scipy.stats import norm

from yyfilter import diagnostics
from yyfilter.baselines import kalman_filter
from yyfilter.diagnostics import (
    _ORACLE_REFINE,
    _PATH_SUBSTEPS,
    SweepResult,
    convergence_sweep,
    exp_moment_step_check,
    l4_stability_check,
    quartic_growth_profile,
    radius_sweep,
    tail_mass,
)
from yyfilter.filtering import MassCollapseError, run_filter
from yyfilter.models import TimeSchedule, builtin_model, coordinate
from yyfilter.pde import DensityField, build_grid, discretize_initial
from yyfilter.sde import simulate, subsample


def _zero_vec(points):
    return np.zeros_like(points)


def _const_half_obs(points):
    return np.full_like(points, 0.5)


# ---------------------------------------------------------------------------
# tail_mass
# ---------------------------------------------------------------------------


def test_tail_mass_field_inside_probe(grid_1d_fine):
    xs = grid_1d_fine.coords[:, 0]
    vals = np.where(np.abs(xs) < 0.5, 1.0, 0.0)
    assert tail_mass(DensityField(grid_1d_fine, vals), 1.0) == 0.0


def test_tail_mass_uniform_half():
    g = build_grid(1, 6.0, 241)
    field = DensityField(g, np.ones(g.n_nodes))
    assert tail_mass(field, 3.0) == pytest.approx(0.5, abs=g.spacing)


def test_tail_mass_standard_normal(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    expected = 2 * norm.cdf(-1.0)
    assert tail_mass(field, 1.0) == pytest.approx(expected, abs=1e-3)


@pytest.mark.parametrize("dim, points", [(1, 241), (2, 41)])
def test_tail_mass_batch_is_each_column_bit_for_bit(dim, points):
    g = build_grid(dim, 6.0, points)
    r2 = np.sum(g.coords**2, axis=1)
    cols = [np.exp(-0.5 * r2 / s) * 10.0**e for s, e in [(1.0, 0), (0.3, -9), (4.0, 7)]]
    batch = DensityField(g, np.column_stack(cols), np.zeros(3), np.zeros(3))
    one = DensityField(g, cols[2][:, None], np.zeros(1), np.zeros(1))
    for r in (0.5, 1.0, 2.5, 6.0):
        singles = [tail_mass(DensityField(g, c), r) for c in cols]
        assert_array_equal(tail_mass(batch, r), singles)
        assert_array_equal(tail_mass(one, r), [singles[2]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fill", [0.0, np.nan], ids=["zero", "nan"])
def test_tail_mass_refuses_a_collapsed_mass(fill):
    # refused as estimate refuses it, not read out as NaN; a batch names the column
    g = build_grid(1, 4.0, 41)
    with pytest.raises(MassCollapseError, match=r"mass collapsed; tail"):
        tail_mass(DensityField(g, np.full(41, fill)), 2.0)
    cols = np.column_stack([np.ones(41), np.full(41, fill), np.ones(41)])
    with pytest.raises(MassCollapseError, match=r"mass collapsed in column 1;"):
        tail_mass(DensityField(g, cols, np.zeros(3), np.zeros(3)), 2.0)


def test_tail_mass_probe_validation(grid_1d_fine):
    field = DensityField(grid_1d_fine, np.ones(grid_1d_fine.n_nodes))
    with pytest.raises(ValueError):
        tail_mass(field, 7.0)
    with pytest.raises(ValueError):
        tail_mass(field, 0.0)


# ---------------------------------------------------------------------------
# L4 stability
# ---------------------------------------------------------------------------


def test_l4_stability_linear1d():
    m = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 121)
    schedules = [TimeSchedule(0.25, 10), TimeSchedule(0.25, 20)]
    report = l4_stability_check(m, grid, schedules, list(range(10)))
    assert report.passed, report
    assert all(v > 0 for v in report.sup_l4)


def test_l4_stability_validates_halving():
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError):
        l4_stability_check(
            builtin_model("linear1d"),
            grid,
            [TimeSchedule(0.25, 10), TimeSchedule(0.25, 15)],
            list(range(10)),
        )


def test_l4_stability_refuses_schedules_with_other_terminal_times(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the schedules were checked")

    monkeypatch.setattr(diagnostics, "simulate", no_simulation)
    with pytest.raises(ValueError, match=re.escape("one terminal time, not [0.25, 0.5]")):
        l4_stability_check(
            builtin_model("linear1d"),
            build_grid(1, 6.0, 61),
            [TimeSchedule(0.25, 10), TimeSchedule(0.5, 20)],
            list(range(10)),
        )


def test_l4_report_bits_match_a_per_path_reference(linear1d):
    grid, seeds = build_grid(1, 6.0, 61), list(range(10))
    schedules = [TimeSchedule(0.25, 10), TimeSchedule(0.25, 20)]
    report = l4_stability_check(linear1d, grid, schedules, seeds)

    h, w = linear1d.observation(grid.coords), grid.trap_weights
    paths = [ys for _, ys in simulate(linear1d, schedules[-1], substeps=_PATH_SUBSTEPS,
                                      seed=seeds)]
    sups = []
    for sched in schedules:
        stride = schedules[-1].steps // sched.steps
        norms = np.empty((sched.steps, len(seeds), 2))
        for s, ys in enumerate(paths):
            coarse = subsample(ys, stride)

            def hook(k, stage, fld):  # the shifted sums, one path's field at a time
                if stage == "propagated":
                    with np.errstate(divide="ignore"):
                        logs = np.log(fld.values) - h @ coarse.values[k - 1]
                    for i, p in enumerate((2, 4)):
                        shift = np.max(p * logs)
                        acc = np.dot(w, np.exp(p * logs - shift))
                        norms[k - 1, s, i] = np.log(acc) + shift + p * fld.log_scale

            run_filter(linear1d, grid, coarse.schedule, coarse, [], field_hook=hook)
        sups.append(np.max(logsumexp(norms, axis=1), axis=0) - math.log(len(seeds)))
    sup_l2, sup_l4 = np.exp(sups).T
    assert_array_equal(report.sup_l2, sup_l2)
    assert_array_equal(report.sup_l4, sup_l4)


def test_l4_check_reads_a_tiny_field_and_fails_by_report():
    # On the cubic sensor the pre-update field's largest exp(-h^T Y) can sit on a
    # node whose v^4 underflows to 0: the shifted sum must still be positive, and
    # norms that disagree across the dt levels fail the report, not the call.
    report = l4_stability_check(
        builtin_model("cubic_sensor"), build_grid(1, 6.0, 241),
        [TimeSchedule(0.1, 100), TimeSchedule(0.1, 200)], range(10), substeps=8,
    )
    assert all(math.isfinite(v) and v > 0 for v in report.sup_l2 + report.sup_l4)
    assert report.l4_spread > 0.2
    assert not report.passed


def test_l4_check_reads_a_norm_beyond_float_range_as_inf():
    report = l4_stability_check(
        builtin_model("cubic_sensor"), build_grid(1, 6.0, 241),
        [TimeSchedule(0.2, 200), TimeSchedule(0.2, 400)], range(10), substeps=8,
    )
    assert report.sup_l4 == (math.inf, math.inf)
    assert all(math.isfinite(v) for v in report.sup_l2)
    assert not report.passed


def test_single_knot_schedule_trivially_bounded():
    m = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 121)
    report = l4_stability_check(
        m, grid, [TimeSchedule(0.02, 1), TimeSchedule(0.02, 2)], list(range(10))
    )
    assert all(math.isfinite(v) for v in report.sup_l4)


# ---------------------------------------------------------------------------
# one-step exponential moment law
# ---------------------------------------------------------------------------


def test_exp_moment_uninformative_is_exactly_one():
    m = dataclasses.replace(builtin_model("linear1d"), observation=_zero_vec, linear=None)
    grid = build_grid(1, 6.0, 121)
    report = exp_moment_step_check(m, grid, [0.01, 0.001], n_samples=200, seed=0)
    assert_allclose(report.amplification, 1.0, atol=1e-14)
    assert report.passed


def test_exp_moment_constant_observation_closed_form():
    # constant h = c: amplification is exactly exp(8 c^2 dt)
    m = dataclasses.replace(
        builtin_model("linear1d"), observation=_const_half_obs, linear=None
    )
    grid = build_grid(1, 6.0, 121)
    dts = [0.01, 0.001]
    report = exp_moment_step_check(m, grid, dts, n_samples=10_000, seed=3)
    for dt, amp, se in zip(report.dts, report.amplification, report.stderr):
        assert abs(amp - math.exp(8 * 0.25 * dt)) <= 3 * se
    assert report.passed


def test_exp_moment_halving_dt_halves_excess():
    m = dataclasses.replace(
        builtin_model("linear1d"), observation=_const_half_obs, linear=None
    )
    grid = build_grid(1, 6.0, 121)
    report = exp_moment_step_check(m, grid, [0.02, 0.01], n_samples=40_000, seed=5)
    excess = np.array(report.amplification) - 1.0
    se = np.array(report.stderr)
    ratio = excess[0] / excess[1]
    exact = math.expm1(8 * 0.25 * 0.02) / math.expm1(8 * 0.25 * 0.01)
    se_ratio = ratio * math.hypot(se[0] / excess[0], se[1] / excess[1])
    assert abs(ratio - exact) <= 3 * se_ratio


def test_exp_moment_needs_samples():
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError):
        exp_moment_step_check(builtin_model("linear1d"), grid, [0.01], n_samples=10)


# ---------------------------------------------------------------------------
# quartic growth profile
# ---------------------------------------------------------------------------


def test_quartic_growth_profile_contracting_drift():
    m = dataclasses.replace(builtin_model("linear1d"), observation=_zero_vec, linear=None)
    grid = build_grid(1, 6.0, 241)
    times, vals = quartic_growth_profile(m, grid, 0.5, 50)
    assert vals[0] > 0
    assert np.all(np.isfinite(vals))
    # contraction toward the stationary law raises the L4 norm monotonically
    assert vals[-1] > vals[0]


@pytest.mark.parametrize("total_time, steps, match", [
    (0.5, 0, "steps must be an integer >= 1, not 0"),
    (0.0, 50, "terminal time must be positive and finite, not 0.0"),
    (-0.5, 50, "terminal time must be positive and finite, not -0.5"),
], ids=["no_steps", "zero_time", "negative_time"])
def test_quartic_growth_profile_refuses_a_bad_schedule(total_time, steps, match):
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError, match=re.escape(match)):
        quartic_growth_profile(builtin_model("linear1d"), grid, total_time, steps)


def test_quartic_growth_profile_runs_under_the_clamp_check():
    # the coarse 3D mesh whose Crank-Nicolson undershoot run_filter refuses
    grid = build_grid(3, 4.0, 21)
    with pytest.raises(MassCollapseError, match=r"clamped.*knot 1 \(t=0\.01"):
        quartic_growth_profile(builtin_model("linearNd", dim=3), grid, 0.05, 5, substeps=4)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_convergence_sweep_single_value_flagged(linear1d):
    grid = build_grid(1, 6.0, 61)
    res = convergence_sweep(
        linear1d, grid, 0.2, [0.02], seeds=[0, 1, 2], oracle="kalman"
    )
    assert math.isnan(res.slope)
    payload = json.loads(res.summary_json())
    assert payload["slope_defined"] is False
    assert payload["slope"] is None


def test_convergence_sweep_linear_decreasing(linear1d):
    grid = build_grid(1, 6.0, 121)
    res = convergence_sweep(
        linear1d, grid, 0.4, [0.04, 0.02, 0.01], seeds=list(range(6)), oracle="kalman"
    )
    assert res.values[0] > res.values[-1]
    assert np.all(res.mean_err > 0)
    # errors shrink with dt within one standard error
    assert np.all(np.diff(res.mean_err) <= res.stderr[:-1] + res.stderr[1:])
    assert not math.isnan(res.slope)


def test_convergence_sweep_reproducible(linear1d):
    grid = build_grid(1, 6.0, 61)
    kw = dict(oracle="kalman")
    a = convergence_sweep(linear1d, grid, 0.2, [0.04, 0.02], seeds=[3, 4], **kw)
    b = convergence_sweep(linear1d, grid, 0.2, [0.04, 0.02], seeds=[3, 4], **kw)
    assert_array_equal(a.mean_err, b.mean_err)
    assert_array_equal(a.stderr, b.stderr)


def test_convergence_sweep_rejects_bad_grid_of_dts(linear1d):
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError, match="every dt must divide"):
        convergence_sweep(linear1d, grid, 0.2, [0.02, 0.015], seeds=[0], oracle="kalman")


@pytest.mark.parametrize(
    "deltas, message",
    [
        ([0.02, 0.0], "dt 0.0 is not a positive finite number"),
        ([0.02, -0.01], "dt -0.01 is not a positive finite number"),
        ([0.02, math.nan], "dt nan is not a positive finite number"),
        ([], "need at least 1 dt"),
    ],
    ids=["zero", "negative", "nan", "empty"],
)
def test_convergence_sweep_names_a_bad_dt(linear1d, deltas, message):
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError, match=re.escape(message)):
        convergence_sweep(linear1d, grid, 0.2, deltas, seeds=[0, 1])


@pytest.mark.parametrize(
    "radii, dx, message",
    [
        ([3.0, 4.5], 0.0, "grid spacing 0.0 is not a positive finite number"),
        ([3.0, 4.5], -0.3, "grid spacing -0.3 is not a positive finite number"),
        ([3.0, math.nan], 0.3, "radius nan is not a positive finite number"),
    ],
    ids=["zero-spacing", "negative-spacing", "nan-radius"],
)
def test_radius_sweep_names_a_bad_radius_or_spacing(linear1d, radii, dx, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        radius_sweep(linear1d, TimeSchedule(0.1, 5), radii, dx=dx, seeds=[0, 1])


def test_sweeps_refuse_a_repeated_level(linear1d):
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError, match="repeats"):
        convergence_sweep(linear1d, grid, 0.2, [0.04, 0.02, 0.02], seeds=[0, 1])
    with pytest.raises(ValueError, match="repeats"):
        radius_sweep(linear1d, TimeSchedule(0.1, 5), [3.0, 4.5, 4.5], dx=0.3, seeds=[0, 1])


def test_sweeps_need_two_seeds(linear1d):
    # the standard error over seeds takes ddof=1, so one seed would give NaN
    with pytest.raises(ValueError, match="at least 2 seeds"):
        convergence_sweep(linear1d, build_grid(1, 6.0, 61), 0.2, [0.04, 0.02], seeds=[0])
    with pytest.raises(ValueError, match="at least 2 seeds"):
        radius_sweep(linear1d, TimeSchedule(0.1, 5), [3.0, 4.5], dx=0.3, seeds=[0])


def test_convergence_sweep_oracle_validation():
    m = builtin_model("benes")
    grid = build_grid(1, 6.0, 61)
    with pytest.raises(ValueError, match="linear"):
        convergence_sweep(m, grid, 0.2, [0.02], seeds=[0], oracle="kalman")
    with pytest.raises(ValueError, match="oracle"):
        convergence_sweep(m, grid, 0.2, [0.02], seeds=[0], oracle="bogus")


def test_convergence_sweep_fine_oracle_runs():
    m = builtin_model("benes")
    grid = build_grid(1, 6.0, 61)
    res = convergence_sweep(
        m, grid, 0.1, [0.02, 0.01], seeds=[0, 1], oracle="fine_oracle"
    )
    assert np.all(np.isfinite(res.mean_err))


def test_radius_sweep_shapes_and_reference_row(linear1d):
    sched = TimeSchedule(0.25, 25)
    res = radius_sweep(linear1d, sched, [3.0, 4.5, 6.0], dx=0.1, seeds=[0, 1, 2, 3])
    assert res.mean_err[-1] == 0.0  # largest radius vs itself
    assert np.all(np.diff(res.mean_err) <= 1e-15)  # error shrinks toward reference
    tails = res.extras["tail_mass"]
    assert np.all(np.diff(tails) < 0)  # tail mass decays in the probe radius
    assert len(tails) == 3


# The two tests below pin every bit of a sweep's curve to the per-seed gaps of
# one-path filter runs, reduced as each sweep reduces them.  At 16 seeds the
# pairwise and the sequential summation over seeds give different last bits
# on both cases, so a sweep that changed its reduction order would fail here.


def test_convergence_sweep_bits_match_a_per_seed_reduction(linear1d):
    seeds, deltas, terminal = list(range(16)), [0.04, 0.02, 0.01], 0.2
    grid = build_grid(1, 6.0, 61)
    res = convergence_sweep(linear1d, grid, terminal, deltas, seeds=seeds)

    sim = TimeSchedule(terminal, round(terminal / deltas[-1]) * _ORACLE_REFINE)
    paths = [ys for _, ys in simulate(linear1d, sim, substeps=_PATH_SUBSTEPS, seed=seeds)]
    kalman = kalman_filter(linear1d, sim, paths)
    for j, dt in enumerate(deltas):
        stride = sim.steps // round(terminal / dt)
        gaps = []
        for ys, kal in zip(paths, kalman):
            coarse = subsample(ys, stride)
            out = run_filter(linear1d, grid, coarse.schedule, coarse, [coordinate(0)])
            gaps.append(np.mean(np.abs(out.estimates[1:, 0] - kal.means[::stride, 0][1:])))
        # one level's 1-D vector over seeds: numpy sums it pairwise
        assert res.mean_err[j] == np.mean(gaps)
        assert res.stderr[j] == np.std(gaps, ddof=1) / math.sqrt(len(seeds))


@pytest.mark.parametrize("name", ["linear1d", "benes"])
def test_fine_oracle_reference_is_run_filter_on_the_refined_mesh(name):
    # fine_oracle is the grid filter on the mesh refined twice per axis (61 -> 121
    # nodes) at the simulation schedule, bit for bit, read at every level's knots
    model, seeds, deltas, terminal = builtin_model(name), [0, 1, 2], [0.04, 0.02, 0.01], 0.2
    grid = build_grid(1, 6.0, 61)
    res = convergence_sweep(model, grid, terminal, deltas, seeds=seeds, oracle="fine_oracle")

    sim = TimeSchedule(terminal, round(terminal / deltas[-1]) * _ORACLE_REFINE)
    paths = [ys for _, ys in simulate(model, sim, substeps=_PATH_SUBSTEPS, seed=seeds)]
    refs = run_filter(model, build_grid(1, 6.0, 121), sim, paths, [coordinate(0)])
    for j, dt in enumerate(deltas):
        stride = sim.steps // round(terminal / dt)
        coarse = [subsample(ys, stride) for ys in paths]
        outs = run_filter(model, grid, coarse[0].schedule, coarse, [coordinate(0)])
        gaps = [np.mean(np.abs(out.estimates[1:, 0] - ref.estimates[::stride, 0][1:]))
                for out, ref in zip(outs, refs)]
        assert res.mean_err[j] == np.mean(gaps)
        assert res.stderr[j] == np.std(gaps, ddof=1) / math.sqrt(len(seeds))


def _tail_fraction(values, grid, r):
    """tail_mass's formula, written out for one path's field."""
    tol = 1e-9 * grid.radius
    region = np.where(grid.node_radii > r + tol, 1.0,
                      np.where(grid.node_radii >= r - tol, 0.5, 0.0))
    w = grid.trap_weights
    return float(np.dot(w, region * values)) / float(np.dot(w, values))


def _assert_radius_sweep_bits(model, sched, radii, dx, seeds):
    res = radius_sweep(model, sched, radii, dx=dx, seeds=seeds)

    paths = [ys for _, ys in simulate(model, sched, substeps=_PATH_SUBSTEPS, seed=seeds)]
    grids = [build_grid(model.dim, R, 2 * round(R / dx) + 1) for R in radii]
    gaps = []  # (seeds, radii), C-ordered: a mean over axis 0 sums seed by seed
    probe = np.empty((len(seeds), sched.steps, len(radii)))  # as the sweep lays it out
    for s, ys in enumerate(paths):
        def hook(k, stage, fld):
            if stage == "updated":
                probe[s, k - 1] = [_tail_fraction(fld.values, grids[-1], r) for r in radii]

        est = [run_filter(model, g, sched, ys, [coordinate(0)],
                          field_hook=hook if g is grids[-1] else None).estimates[1:, 0]
               for g in grids]
        gaps.append([np.mean(np.abs(e - est[-1])) for e in est])
    gaps = np.array(gaps)
    assert_array_equal(res.mean_err, gaps.mean(axis=0))
    assert_array_equal(res.stderr, gaps.std(axis=0, ddof=1) / math.sqrt(len(seeds)))
    tails = probe.mean(axis=1)
    assert_array_equal(res.extras["tail_mass"], tails.mean(axis=0))
    assert_array_equal(res.extras["tail_stderr"], tails.std(axis=0, ddof=1) / math.sqrt(len(seeds)))


def test_radius_sweep_bits_match_a_per_seed_reduction(linear1d):
    _assert_radius_sweep_bits(linear1d, TimeSchedule(0.25, 25), [3.0, 4.5, 6.0], 0.1,
                              list(range(16)))


def test_radius_sweep_bits_match_a_per_seed_reduction_2d():
    _assert_radius_sweep_bits(builtin_model("linearNd", dim=2), TimeSchedule(0.1, 10),
                              [2.0, 3.0, 4.0], 0.25, list(range(16)))


def test_radius_sweep_validates_spacing(linear1d):
    with pytest.raises(ValueError):
        radius_sweep(linear1d, TimeSchedule(0.1, 5), [3.0, 4.4], dx=0.3, seeds=[0, 1])


def test_sweep_csv_and_json_schema():
    res = SweepResult(
        axis="dt",
        values=np.array([0.02, 0.01]),
        mean_err=np.array([0.2, 0.1]),
        stderr=np.array([0.01, 0.005]),
        n=5,
        slope=1.0,
        slope_halfwidth=0.2,
    )
    lines = res.to_csv().splitlines()
    assert lines[0] == "axis,value,mean_err,stderr,n"
    assert lines[1].startswith("dt,0.02,")
    payload = json.loads(res.summary_json(check_ok=True))
    assert payload["pass"] is True
    assert payload["slope"] == 1.0
