"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Settings and tolerances are pinned here, not configurable.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
The heavier criteria (1, 2, 5, 6) take a few minutes combined.
"""

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from yyfilter.baselines import bootstrap_pf, kalman_filter
from yyfilter.diagnostics import (
    convergence_sweep,
    exp_moment_step_check,
    l4_stability_check,
    quartic_growth_profile,
    radius_sweep,
    tail_mass,
)
from yyfilter.filtering import estimate, run_filter
from yyfilter.models import (
    ONE,
    TimeSchedule,
    builtin_model,
    coordinate,
    _std_normal_density,
)
from yyfilter.pde import (
    DensityField,
    assemble_generator,
    build_grid,
    discretize_initial,
    exp_update,
    mollifier,
    propagate,
)
from yyfilter.sde import simulate

SEEDS_50 = list(range(50))
SEEDS_20 = list(range(20))


def _report(criterion, passed, details):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {details}"
    print(line, flush=True)
    return line


def _zero_obs(points):
    return np.zeros_like(points)


def _const_half_obs(points):
    return np.full_like(points, 0.5)


# ---------------------------------------------------------------------------
# Criterion 1: Kalman equivalence on linear1d at dt = 1e-3.
# ---------------------------------------------------------------------------


def test_c1_kalman_equivalence():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 241)
    gen = assemble_generator(model, grid)
    schedule = TimeSchedule(1.0, 1000)
    phi = [coordinate(0)]
    started = time.time()
    obs = [ys for _, ys in simulate(model, schedule, substeps=4, seed=SEEDS_50)]
    outs = run_filter(model, grid, schedule, obs, phi, substeps=4, generator=gen)
    errs = [
        np.mean(np.abs(out.estimates[1:, 0] - kal.means[1:, 0]))
        for out, kal in zip(outs, kalman_filter(model, schedule, obs))
    ]
    elapsed = time.time() - started
    mean_err = float(np.mean(errs))
    tolerance = 0.05 * math.sqrt(0.5)  # 5% of the stationary state std
    ok = mean_err <= tolerance and elapsed < 300.0
    _report(
        "1 (Kalman equivalence)",
        ok,
        f"mean |grid-filter mean - Kalman mean| = {mean_err:.2e} "
        f"(tolerance {tolerance:.3f}), runtime {elapsed:.1f}s (target < 300s)",
    )
    assert mean_err <= tolerance
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# Criterion 2: convergence rate in dt against the Kalman oracle.
# ---------------------------------------------------------------------------


def test_c2_convergence_rate():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 241)
    deltas = [0.02, 0.01, 0.005, 0.0025]
    res = convergence_sweep(
        model, grid, 1.0, deltas, SEEDS_50, oracle="kalman", phi=coordinate(0),
        substeps=4, sim_substeps=2,
    )
    halving = res.mean_err[-1] <= 0.5 * res.mean_err[0]
    meets_rate = res.slope >= 0.35
    _report(
        "2 (convergence rate)",
        meets_rate and halving,
        f"slope {res.slope:.3f} (need slope >= 0.35, the O(sqrt(dt)) guarantee), "
        f"err({deltas[-1]}) / err({deltas[0]}) = {res.mean_err[-1] / res.mean_err[0]:.3f} "
        f"(need <= 0.5); errors: "
        + ", ".join(f"{d}:{e:.2e}" for d, e in zip(res.values, res.mean_err)),
    )
    assert halving, "error at the smallest dt must be at most half the largest"
    # The paper proves err <= C*sqrt(dt): a floor under the log-log slope (about 1/2),
    # no ceiling. A scheme that converges faster than the guarantee still meets it.
    assert meets_rate, (
        f"measured log-log slope {res.slope:.3f} is below 0.35: the estimate error "
        f"decays more slowly than the O(sqrt(dt)) guarantee (slope >= 0.35)"
    )


# ---------------------------------------------------------------------------
# Criteria 3 and 4 share one radius sweep.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def radius_result():
    model = builtin_model("linear1d")
    schedule = TimeSchedule(1.0, 200)
    return radius_sweep(
        model, schedule, [3.0, 4.5, 6.0], dx=0.05, seeds=SEEDS_20,
        phi=coordinate(0), substeps=4,
    )


def test_c3_tail_mass_decay(radius_result):
    radii = radius_result.values
    tails = radius_result.extras["tail_mass"]
    monotone = bool(np.all(np.diff(tails) <= 1e-15))
    n = 2
    fitted_c = tails[0] * (1 + radii[0] ** (2 * n))
    bounds = fitted_c / (1 + radii[1:] ** (2 * n))
    within = bool(np.all(tails[1:] <= 1.5 * bounds))
    _report(
        "3 (tail-mass decay)",
        monotone and within,
        f"tail mass {[f'{t:.3e}' for t in tails]} at r = {list(radii)}; "
        f"fitted C = {fitted_c:.3e}, bounds x1.5 = {[f'{1.5 * b:.3e}' for b in bounds]}",
    )
    assert monotone
    assert within


def test_c4_radius_self_consistency(radius_result):
    err = radius_result.mean_err
    se = radius_result.stderr
    steps_ok = [
        err[i + 1] <= err[i] + math.hypot(se[i], se[i + 1]) for i in range(len(err) - 1)
    ]
    _report(
        "4 (radius self-consistency)",
        all(steps_ok),
        f"mean |estimate(R) - estimate(R=6)| = {[f'{e:.3e}' for e in err]} "
        f"(+- {[f'{s:.1e}' for s in se]})",
    )
    assert all(steps_ok)


# ---------------------------------------------------------------------------
# Criterion 5: nonlinear cross-validation against the particle filter.
# ---------------------------------------------------------------------------


def _crossval_cell(args):
    name, substeps, seed = args
    model = builtin_model(name)
    grid = build_grid(1, 6.0, 241)
    schedule = TimeSchedule(1.0, 1000)
    phi = [coordinate(0)]
    _, obs = simulate(model, schedule, substeps=4, seed=seed)
    out = run_filter(model, grid, schedule, obs, phi, substeps=substeps)
    pf = bootstrap_pf(model, schedule, obs, phi, 100_000, seed=seed + 1000)
    diff = np.abs(out.estimates[1:, 0] - pf.estimates[1:, 0])
    window = 3 * np.maximum(pf.stderr[1:, 0], 1e-12)
    return name, float(np.mean(diff <= window))


def test_c5_nonlinear_cross_validation(monkeypatch):
    cells = [("benes", 4, s) for s in SEEDS_20] + [("cubic_sensor", 8, s) for s in SEEDS_20]
    # Two processes pay only with one BLAS thread each: on 2 vCPUs the cubic half
    # took 51 s that way, 101 s in one process, and 135 s when each worker also
    # ran two OpenBLAS threads. Spawned workers load numpy afresh, so they read
    # the thread count set here.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(_crossval_cell, cells))
    fracs = {"benes": [], "cubic_sensor": []}
    for name, frac in results:
        fracs[name].append(frac)
    means = {name: float(np.mean(v)) for name, v in fracs.items()}
    ok = all(v >= 0.9 for v in means.values())
    _report(
        "5 (nonlinear cross-validation)",
        ok,
        "fraction of knots within 3 PF standard errors, averaged over 20 seeds: "
        + ", ".join(f"{k} = {v:.3f}" for k, v in means.items())
        + " (need >= 0.9)",
    )
    for name, v in means.items():
        assert v >= 0.9, f"{name}: {v:.3f} < 0.9"


# ---------------------------------------------------------------------------
# Criterion 6: L4 non-explosion, uniform over dt.
# ---------------------------------------------------------------------------


def test_c6_l4_non_explosion():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 121)
    schedules = [TimeSchedule(1.0, 100), TimeSchedule(1.0, 200), TimeSchedule(1.0, 400)]
    report = l4_stability_check(model, grid, schedules, SEEDS_20, substeps=2)
    ok = report.l4_spread < 0.2 and all(math.isfinite(v) for v in report.sup_l4)
    _report(
        "6 (L4 non-explosion)",
        ok,
        f"sup_k E||u_k||_L4^4 per dt {[f'{v:.4f}' for v in report.sup_l4]}, "
        f"spread {report.l4_spread:.3f} (need < 0.2)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: one-step exponential-moment law for constant h.
# ---------------------------------------------------------------------------


def test_c7_exponential_moment_law():
    model = dataclasses.replace(
        builtin_model("linear1d"), observation=_const_half_obs, linear=None
    )
    grid = build_grid(1, 6.0, 241)
    c = 0.5
    dts = [0.01, 0.001]
    report = exp_moment_step_check(model, grid, dts, n_samples=10_000, seed=2024)
    devs = []
    ok = True
    for dt, amp, se in zip(report.dts, report.amplification, report.stderr):
        target = math.exp(8 * c * c * dt)
        devs.append(f"dt={dt}: amp {amp:.6f} vs {target:.6f} (3se = {3 * se:.1e})")
        ok = ok and abs(amp - target) <= 3 * se
    _report("7 (one-step exponential-moment law)", ok, "; ".join(devs))
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: deterministic quartic-norm growth envelope.
# ---------------------------------------------------------------------------


def test_c8_quartic_growth_envelope():
    model = dataclasses.replace(builtin_model("linear1d"), observation=_zero_obs, linear=None)
    grid = build_grid(1, 6.0, 241)
    times, vals = quartic_growth_profile(model, grid, 1.0, 100, substeps=2)
    fit_window = times[1:] <= 0.1 + 1e-12
    step_rates = np.diff(np.log(vals)) / np.diff(times)
    growth_c = float(np.max(step_rates[fit_window]))
    envelope = vals[0] * np.exp(growth_c * times)
    ok = bool(np.all(vals <= envelope * (1 + 1e-9)))
    _report(
        "8 (quartic growth envelope)",
        ok,
        f"fitted C = {growth_c:.3f} on (0, 0.1]; max ratio to envelope "
        f"{float(np.max(vals / envelope)):.6f} (need <= 1)",
    )
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: unit-level suite at pinned settings.
# ---------------------------------------------------------------------------


def test_c9_stencil_refinement_ratio():
    from numpy.polynomial import polynomial as P
    from yyfilter.models import AssumptionProfile, FilterModel

    a_coef = np.array([1.1, 0.0, 0.08])
    f_coef = np.array([0.1, -0.4, 0.0, 0.05])
    h_coef = np.array([0.0, 0.6])
    u_coef = np.array([0.3, -0.2, 0.5, 0.1, -0.15, 0.02])
    au = P.polymul(a_coef, u_coef)
    fu = P.polymul(f_coef, u_coef)
    hhu = P.polymul(P.polymul(h_coef, h_coef), u_coef)
    target = P.polysub(
        P.polysub(P.polymul([0.5], P.polyder(au, 2)), P.polyder(fu, 1)),
        P.polymul([0.5], hhu),
    )
    m = FilterModel(
        name="poly",
        dim=1,
        drift=lambda p: P.polyval(p[:, 0], f_coef)[:, None],
        diffusion=lambda p: np.sqrt(P.polyval(p[:, 0], a_coef)).reshape(-1, 1, 1),
        observation=lambda p: P.polyval(p[:, 0], h_coef)[:, None],
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    )
    errors = []
    for points in (121, 241):
        g = build_grid(1, 2.0, points)
        gen = assemble_generator(m, g)
        u = P.polyval(g.coords[:, 0], u_coef)
        applied = gen.matrix @ u
        exact = P.polyval(g.coords[:, 0], target)
        sel = np.abs(g.coords[:, 0]) <= 1.0
        errors.append(float(np.max(np.abs(applied[sel] - exact[sel]))))
    ratio = errors[0] / errors[1]
    ok = 3.5 <= ratio <= 4.5
    _report("9a (stencil refinement ratio)", ok, f"ratio {ratio:.3f} (band [3.5, 4.5])")
    assert ok


def test_c9_heat_kernel_accuracy():
    from yyfilter.models import AssumptionProfile, FilterModel
    from yyfilter.models import _unit_diffusion

    m = FilterModel(
        name="heat",
        dim=1,
        drift=_zero_obs,
        diffusion=_unit_diffusion,
        observation=_zero_obs,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    )
    grid = build_grid(1, 6.0, 241)
    gen = assemble_generator(m, grid)
    xs = grid.coords[:, 0]
    vals = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    vals[grid.boundary_mask] = 0.0
    out = propagate(gen, DensityField(grid, vals), 0.25, 16)
    var = 1.25
    target = np.exp(-0.5 * xs**2 / var) / math.sqrt(2 * math.pi * var)
    sel = np.abs(xs) <= 3 * math.sqrt(var)
    rel = float(np.max(np.abs(out.values[sel] - target[sel]) / target[sel]))
    ok = rel <= 1e-3
    _report("9b (heat kernel accuracy)", ok, f"max relative error {rel:.2e} at M=241")
    assert ok


def test_c9_exp_update_additivity():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 241)
    field = discretize_initial(model, grid)
    h = model.observation(grid.coords)
    worst = 0.0
    rng = np.random.default_rng(99)
    for _ in range(20):
        d1, d2 = rng.uniform(-0.5, 0.5, size=2)
        once = exp_update(field, h, np.array([d1 + d2]))
        twice = exp_update(exp_update(field, h, np.array([d1])), h, np.array([d2]))
        a = once.values * np.exp(once.log_scale)
        b = twice.values * np.exp(twice.log_scale)
        worst = max(worst, float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-300)))
    ok = worst <= 1e-12
    _report("9c (exponential-update additivity)", ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_c9_unit_estimate_and_mollifier():
    model = builtin_model("linear1d")
    grid = build_grid(1, 6.0, 241)
    field = discretize_initial(model, grid)
    unit_err = abs(estimate(field, ONE) - 1.0)
    s = mollifier(grid)
    R = grid.radius
    plateau_ok = bool(
        np.all(s[grid.node_radii <= R - 1 / R] == 1.0)
        and np.all(s[grid.node_radii >= R] == 0.0)
    )
    ok = unit_err <= 1e-12 and plateau_ok
    _report(
        "9d (unit estimate, mollifier plateaus)",
        ok,
        f"|estimate(1) - 1| = {unit_err:.2e}; plateau values exact: {plateau_ok}",
    )
    assert ok


def test_c9_clamped_mass_small_on_registry_runs():
    # settings match the runs criteria 1 and 5 perform (dt = 1e-3)
    worst = {}
    for name, substeps in (("linear1d", 4), ("benes", 4), ("cubic_sensor", 8)):
        model = builtin_model(name)
        grid = build_grid(1, 6.0, 241)
        schedule = TimeSchedule(1.0, 1000)
        _, obs = simulate(model, schedule, substeps=4, seed=5)
        out = run_filter(model, grid, schedule, obs, [coordinate(0)], substeps=substeps)
        worst[name] = float(np.max(out.clamped_mass / np.maximum(out.mass_mantissa, 1e-300)))
    ok = all(v < 1e-8 for v in worst.values())
    _report(
        "9e (clamped negative mass)",
        ok,
        "max clamped fraction per run: "
        + ", ".join(f"{k} = {v:.1e}" for k, v in worst.items())
        + " (need < 1e-8)",
    )
    assert ok
