"""Empirical convergence and regularity checks.

tail_mass / moment            density tail and moment readouts
moment_growth_check           Gronwall-style growth of unnormalized moments
l4_stability_check            non-explosion of reconstructed pre-update fields
exp_moment_step_check         one-step quartic-mass amplification law
quartic_growth_profile        deterministic L4 growth under pure propagation
convergence_sweep             estimate error against an oracle across dt
radius_sweep                  estimate drift and tail mass across domain radii

Expectations over observation paths are Monte-Carlo averages over
simulated (state, observation) pairs with reported standard errors; the
one-step exponential-moment check draws its Gaussian increments directly.
Every seed's path goes through one batched simulation and one batched
filter run per level, so sweeps are reproducible bit-for-bit from their
seed lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .baselines import bootstrap_pf, fine_oracle, kalman_filter
from .filtering import run_filter
from .models import FilterModel, TestFunction, TimeSchedule, coordinate
from .pde import (
    DensityField, Grid, assemble_generator, build_grid, discretize_initial, integrate, propagate
)
from .sde import simulate, subsample
from .tables import csv_table


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


def _logmeanexp(values: np.ndarray) -> float:
    return _logsumexp(values) - math.log(len(values))


# ---------------------------------------------------------------------------
# Field readouts.
# ---------------------------------------------------------------------------


def tail_mass(field: DensityField, r: float) -> float:
    """Fraction of the field's mass on nodes with |x| >= r.

    Trapezoid integral over the region: nodes exactly on the probe
    radius count with half weight, matching the [r, R] trapezoid rule
    when r falls on a node.
    """
    grid = field.grid
    if not 0 < r <= grid.radius:
        raise ValueError("probe radius must lie in (0, grid radius]")
    tol = 1e-9 * grid.radius
    region = np.where(
        grid.node_radii > r + tol, 1.0, np.where(grid.node_radii >= r - tol, 0.5, 0.0)
    )
    return integrate(field, region) / integrate(field)


def moment(field: DensityField, order: int) -> float:
    """Normalized radial moment: integral of |x|^order against the field / mass."""
    if order < 2 or order % 2:
        raise ValueError("order must be an even integer >= 2")
    return integrate(field, field.grid.node_radii**order) / integrate(field)


# ---------------------------------------------------------------------------
# Growth and stability checks.
# ---------------------------------------------------------------------------


@dataclass
class MomentGrowthReport:
    order: int
    exponents: tuple  # implied exponent per dt (coarse, halved)
    max_log_ratios: tuple
    finite: bool
    stable: bool

    @property
    def passed(self) -> bool:
        return self.finite and self.stable


def _seed_readouts(model, grid, gen, schedules, seeds, substeps, stage, readout):
    """Per-knot readouts of the filter runs of every seed on each schedule.

    Each seed's path is simulated once, on the finest (last) schedule, and
    subsampled to the others; each schedule takes one batched filter run.
    `readout(field, y_prev)` sees each path's field at each knot at
    `stage`, with y_prev that path's observation at tau_{k-1}.  Returns one
    array of shape (seeds, steps, ...) per schedule.
    """
    finest = schedules[-1]
    obs_fine = [ys for _, ys in simulate(model, finest, substeps=substeps, seed=seeds)]
    levels = []
    for sched in schedules:
        obs = [subsample(o, finest.steps // sched.steps) for o in obs_fine]
        rows = []

        def hook(k, s, fld):
            if s == stage:
                rows.append([readout(f, o.values[k - 1]) for f, o in zip(fld.columns(), obs)])

        run_filter(model, grid, sched, obs, (), substeps=substeps, generator=gen,
                   field_hook=hook)
        levels.append(np.swapaxes(np.array(rows), 0, 1))
    return levels


def _unnormalized_log_moment(field: DensityField, weight_nodes: np.ndarray) -> float:
    val = integrate(field, weight_nodes)
    if val <= 0:
        return -math.inf
    return math.log(val) + field.log_scale


def moment_growth_check(
    model: FilterModel,
    grid: Grid,
    schedule: TimeSchedule,
    obs_seeds: Sequence[int],
    order: int,
    substeps: int = 4,
) -> MomentGrowthReport:
    """Growth of the unnormalized moment of (1 + |x|^order) along filter runs.

    Runs the filter per seed at dt and dt/2 against the same refined
    observation paths, averages the represented (log-scale-aware) moment
    over seeds per knot, and reports the implied growth exponent
    log(max ratio)/T for each dt.  Passes when the ratios are finite and
    the exponents agree within 20% under dt-halving.
    """
    if len(obs_seeds) < 10:
        raise ValueError("need at least 10 seeds")
    if order < 2 or order % 2:
        raise ValueError("order must be an even integer >= 2")
    weight_nodes = 1.0 + grid.node_radii**order
    gen = assemble_generator(model, grid)
    init = discretize_initial(model, grid)
    log_init = _unnormalized_log_moment(init, weight_nodes)
    fine = schedule.refined(2)

    levels = _seed_readouts(model, grid, gen, (schedule, fine), obs_seeds, substeps, "updated",
                            lambda fld, _: _unnormalized_log_moment(fld, weight_nodes))
    log_ratios = []
    for logs in levels:  # (seeds, steps)
        knot_means = np.array([_logmeanexp(logs[:, k]) for k in range(logs.shape[1])])
        log_ratios.append(float(np.max(knot_means)) - log_init)

    T = schedule.terminal
    exponents = tuple(lr / T for lr in log_ratios)
    finite = all(math.isfinite(lr) for lr in log_ratios)
    scale = max(abs(exponents[0]), abs(exponents[1]), 1e-6)
    stable = finite and abs(exponents[0] - exponents[1]) <= 0.2 * scale
    return MomentGrowthReport(
        order=order,
        exponents=exponents,
        max_log_ratios=tuple(log_ratios),
        finite=finite,
        stable=stable,
    )


@dataclass
class L4StabilityReport:
    dts: tuple
    sup_l2: tuple  # sup over knots of E ||u_k||_{L2}^2 per dt
    sup_l4: tuple  # sup over knots of E ||u_k||_{L4}^4 per dt
    l2_spread: float
    l4_spread: float

    @property
    def passed(self) -> bool:
        return (
            all(math.isfinite(v) for v in self.sup_l2 + self.sup_l4)
            and self.l2_spread < 0.2
            and self.l4_spread < 0.2
        )


def _reconstructed_log_norms(field: DensityField, h_nodes: np.ndarray, y_prev: np.ndarray):
    """log of the L2^2 and L4^4 norms of exp(-h^T Y_prev) * represented field."""
    w = field.grid.trap_weights
    neg = -(h_nodes @ y_prev)
    out = []
    for p in (2, 4):
        support = field.values > 0
        if not support.any():
            out.append(-math.inf)
            continue
        shift = float(np.max(p * neg[support]))
        acc = float(np.dot(w, field.values**p * np.exp(p * neg - shift)))
        out.append(math.log(acc) + shift + p * field.log_scale)
    return out


def l4_stability_check(
    model: FilterModel,
    grid: Grid,
    schedules: Sequence[TimeSchedule],
    obs_seeds: Sequence[int],
    substeps: int = 4,
) -> L4StabilityReport:
    """Uniform-in-dt boundedness of the reconstructed pre-update fields.

    The pre-update field at tau_k, stripped of its running exponential
    transform via exp(-h^T Y_{tau_{k-1}}) and its log scale, is the
    object whose L2 and L4 norms must stay bounded as dt shrinks.
    Passes when the sup over knots of the seed-averaged norms varies by
    less than 20% across the dt levels.
    """
    if len(schedules) < 2:
        raise ValueError("need at least 2 schedules related by dt-halving")
    steps = [s.steps for s in schedules]
    if sorted(steps) != steps or any(
        steps[i + 1] != 2 * steps[i] for i in range(len(steps) - 1)
    ):
        raise ValueError("schedules must double their step counts (dt halving)")
    if len(obs_seeds) < 10:
        raise ValueError("need at least 10 seeds")

    gen = assemble_generator(model, grid)
    levels = _seed_readouts(model, grid, gen, schedules, obs_seeds, substeps, "propagated",
                            lambda fld, y: _reconstructed_log_norms(fld, gen.observation, y))
    sup_l2, sup_l4 = [], []
    for norms, sched in zip(levels, schedules):  # (seeds, steps, 2)
        l2_knots = np.array([_logmeanexp(norms[:, k, 0]) for k in range(sched.steps)])
        l4_knots = np.array([_logmeanexp(norms[:, k, 1]) for k in range(sched.steps)])
        sup_l2.append(math.exp(float(np.max(l2_knots))))
        sup_l4.append(math.exp(float(np.max(l4_knots))))

    def spread(vals):
        return max(vals) / min(vals) - 1.0

    return L4StabilityReport(
        dts=tuple(s.dt for s in schedules),
        sup_l2=tuple(sup_l2),
        sup_l4=tuple(sup_l4),
        l2_spread=spread(sup_l2),
        l4_spread=spread(sup_l4),
    )


@dataclass
class ExpMomentReport:
    dts: tuple
    amplification: tuple
    stderr: tuple
    slope: float
    intercept: float
    intercept_stderr: float

    @property
    def passed(self) -> bool:
        return abs(self.intercept) <= 2 * self.intercept_stderr


def exp_moment_step_check(
    model: FilterModel,
    grid: Grid,
    dts: Sequence[float],
    n_samples: int = 1000,
    seed: int = 0,
) -> ExpMomentReport:
    """One-step quartic-mass amplification under Gaussian increments.

    For the model's discretized initial field v, estimates
    E integral (exp(h^T dY) v)^4 / integral v^4 over dY ~ N(0, dt I) per dt, then fits
    (amplification - 1) against dt by weighted least squares.  Passes
    when the fitted intercept is within two standard errors of zero
    (the law is linear through the origin at first order).
    """
    if n_samples < 100:
        raise ValueError("need at least 100 increment samples per dt")
    v = discretize_initial(model, grid)
    w = grid.trap_weights * v.values**4
    denom = float(w.sum())
    if denom <= 0:
        raise ValueError("field must have positive quartic mass")
    h = np.asarray(model.observation(grid.coords), dtype=float)
    rng = np.random.default_rng(seed)

    amps, errs = [], []
    for dt in dts:
        dy = rng.standard_normal((n_samples, model.dim)) * math.sqrt(dt)
        expo = 4.0 * (h @ dy.T)  # (N, n_samples)
        ratios = (w @ np.exp(expo)) / denom
        amps.append(float(np.mean(ratios)))
        errs.append(float(np.std(ratios, ddof=1) / math.sqrt(n_samples)))

    x = np.asarray(dts, dtype=float)
    y = np.asarray(amps) - 1.0
    # floor keeps weights finite when amplification is exactly 1 (h == 0)
    wgt = 1.0 / np.maximum(np.asarray(errs), 1e-15) ** 2
    X = np.column_stack([np.ones_like(x), x])
    cov = np.linalg.inv(X.T @ (wgt[:, None] * X))
    beta = cov @ (X.T @ (wgt * y))
    return ExpMomentReport(
        dts=tuple(x),
        amplification=tuple(amps),
        stderr=tuple(errs),
        slope=float(beta[1]),
        intercept=float(beta[0]),
        intercept_stderr=float(math.sqrt(cov[0, 0])),
    )


def quartic_growth_profile(
    model: FilterModel,
    grid: Grid,
    total_time: float,
    steps: int,
    substeps: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """L4 norm (to the fourth) of a field under pure propagation.

    Returns (times, values) with values[0] taken from the mollified
    initial density; used for deterministic growth-envelope checks.
    """
    gen = assemble_generator(model, grid)
    field = discretize_initial(model, grid)
    w = grid.trap_weights
    dt = total_time / steps
    times = np.arange(steps + 1) * total_time / steps
    vals = np.empty(steps + 1)
    vals[0] = float(np.dot(w, field.values**4))
    for j in range(1, steps + 1):
        field = propagate(gen, field, dt, substeps)
        vals[j] = float(np.dot(w, field.values**4)) * math.exp(4 * field.log_scale)
    return times, vals


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """One error curve over a swept axis, with a fitted log-log slope."""

    axis: str
    values: np.ndarray
    mean_err: np.ndarray
    stderr: np.ndarray
    n: int
    slope: float
    slope_halfwidth: float
    extras: dict = dc_field(default_factory=dict)

    def to_csv(self) -> str:
        rows = len(self.values)
        return csv_table(
            ["axis", "value", "mean_err", "stderr", "n"],
            [[self.axis] * rows, self.values, self.mean_err, self.stderr, [str(self.n)] * rows],
        )

    def summary_json(self, **flags) -> str:
        payload = {
            "axis": self.axis,
            "slope": None if math.isnan(self.slope) else self.slope,
            "slope_ci": None if math.isnan(self.slope_halfwidth) else self.slope_halfwidth,
            "slope_defined": not math.isnan(self.slope),
        }
        for key, val in self.extras.items():
            payload[key] = list(np.asarray(val, dtype=float))
        payload.update(flags)
        payload["pass"] = all(bool(v) for k, v in flags.items())
        return json.dumps(payload, sort_keys=True)


def _loglog_slope(x: np.ndarray, y: np.ndarray):
    """OLS slope of log y against log x with a 95% half-width.

    Undefined (NaN) for fewer than three axis values or nonpositive data.
    """
    if len(x) < 3 or np.any(y <= 0):
        return math.nan, math.nan
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([np.ones_like(lx), lx])
    beta, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = ly - A @ beta
    s2 = float(resid @ resid) / (len(x) - 2)
    cov = s2 * np.linalg.inv(A.T @ A)
    return float(beta[1]), 1.96 * math.sqrt(cov[1, 1])


def _kalman_readout(result, label: str) -> np.ndarray:
    """Kalman per-knot values of the moment readouts x_i, x_i^2, x_i*x_j."""
    if "*" in label:
        a, b = label.split("*")
        i, j = int(a[1:]) - 1, int(b[1:]) - 1
        return result.means[:, i] * result.means[:, j] + result.covs[:, i, j]
    if label.endswith("^2"):
        i = int(label[1:-2]) - 1
        return result.means[:, i] ** 2 + result.covs[:, i, i]
    if label.startswith("x"):
        return result.means[:, int(label[1:]) - 1]
    raise ValueError(f"kalman oracle cannot evaluate test function {label!r}")


# The oracle and the simulated paths run at the finest swept dt divided by this.
_ORACLE_REFINE = 4


def convergence_sweep(
    model: FilterModel,
    grid: Grid,
    terminal: float,
    deltas: Sequence[float],
    seeds: Sequence[int],
    oracle: str = "kalman",
    phi: Optional[TestFunction] = None,
    substeps: int = 4,
    sim_substeps: int = 2,
    oracle_particles: int = 10_000,
) -> SweepResult:
    """Mean |estimate - oracle| against dt.

    Per seed, one observation path is simulated at the finest dt over
    _ORACLE_REFINE and subsampled to every coarser level; the oracle
    (near-exact reference) is computed once at that simulation
    resolution and read at coarse knots.  The paths of all seeds run as
    one batch: one simulation, one Kalman or fine-oracle run, and one
    filter run per dt (the particle oracle runs seed by seed).  Returns
    per-dt means with standard errors over seeds and the fitted log-log
    slope (NaN, flagged in the summary, when fewer than two levels are
    given).
    """
    deltas = sorted(float(d) for d in deltas)[::-1]  # descending
    if oracle not in ("kalman", "bootstrap_pf", "fine_oracle"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if oracle == "kalman" and model.linear is None:
        raise ValueError("kalman oracle requires a linear model")
    finest = min(deltas)
    for d in deltas:
        ratio = d / finest
        if abs(ratio - round(ratio)) > 1e-9 or abs(terminal / d - round(terminal / d)) > 1e-9:
            raise ValueError("every dt must divide the terminal time and be a "
                             "multiple of the finest dt")
    phi = phi if phi is not None else coordinate(0)

    k_sim = round(terminal / finest) * _ORACLE_REFINE
    sim_sched = TimeSchedule(terminal, k_sim)
    obs_fine = [ys for _, ys in simulate(model, sim_sched, substeps=sim_substeps, seed=seeds)]
    if oracle == "kalman":
        refs = [_kalman_readout(r, phi.label) for r in kalman_filter(model, sim_sched, obs_fine)]
    elif oracle == "bootstrap_pf":
        refs = [
            bootstrap_pf(model, sim_sched, obs, (phi,), oracle_particles,
                         seed=seed + 10_000_019).estimates[:, 0]
            for seed, obs in zip(seeds, obs_fine)
        ]
    else:
        refs = [est[:, 0] for est in fine_oracle(
            model, grid, sim_sched, obs_fine, (phi,), coarse_steps=k_sim,
            space_refine=2, substeps=substeps,
        )]

    gen = assemble_generator(model, grid)
    mean_err = np.empty(len(deltas))
    stderr = np.empty(len(deltas))
    for j, dt in enumerate(deltas):
        stride = k_sim // round(terminal / dt)
        obs = [subsample(o, stride) for o in obs_fine]
        outs = run_filter(model, grid, obs[0].schedule, obs, (phi,), substeps=substeps,
                          generator=gen)
        knot_means = np.array([
            float(np.mean(np.abs(out.estimates[1:, 0] - ref[::stride][1:])))
            for out, ref in zip(outs, refs)
        ])
        mean_err[j] = float(np.mean(knot_means))
        stderr[j] = float(np.std(knot_means, ddof=1) / math.sqrt(len(knot_means)))

    slope, half = _loglog_slope(np.asarray(deltas), mean_err)
    return SweepResult(
        axis="dt",
        values=np.asarray(deltas),
        mean_err=mean_err,
        stderr=stderr,
        n=len(seeds),
        slope=slope,
        slope_halfwidth=half,
    )


def radius_sweep(
    model: FilterModel,
    schedule: TimeSchedule,
    radii: Sequence[float],
    dx: float,
    seeds: Sequence[int],
    phi: Optional[TestFunction] = None,
    substeps: int = 4,
    sim_substeps: int = 2,
) -> SweepResult:
    """Estimate drift and tail mass across domain radii at fixed spacing.

    The error curve compares each radius' estimates to the largest-radius
    run on the same path.  The tail curve probes the largest run's fields
    at r = each sweep radius (its own inscribed radius would sit exactly
    on its Dirichlet nodes), averaged over knots and seeds.  The paths of
    all seeds run as one batch, one filter run per radius.
    """
    radii = sorted(float(r) for r in radii)
    if len(radii) < 2:
        raise ValueError("need at least 2 radii")
    for R in radii:
        if abs(R / dx - round(R / dx)) > 1e-9:
            raise ValueError("each radius must be an integer multiple of dx")
    phi = phi if phi is not None else coordinate(0)

    obs = [ys for _, ys in simulate(model, schedule, substeps=sim_substeps, seed=seeds)]
    probe = np.empty((len(seeds), schedule.steps, len(radii)))

    def hook(k, stage, fld):
        if stage == "updated":
            for s, col in enumerate(fld.columns()):
                probe[s, k - 1] = [tail_mass(col, r) for r in radii]

    est = []  # per radius: (seeds, K)
    for R in radii:
        grid = build_grid(model.dim, R, 2 * round(R / dx) + 1)
        outs = run_filter(model, grid, schedule, obs, (phi,), substeps=substeps,
                          field_hook=hook if R == radii[-1] else None)
        est.append([out.estimates[1:, 0] for out in outs])
    err_matrix = np.array([
        [float(np.mean(np.abs(e[s] - est[-1][s]))) for e in est] for s in range(len(seeds))
    ])  # (seeds, radii)
    tail_matrix = probe.mean(axis=1)
    mean_err = err_matrix.mean(axis=0)
    stderr = err_matrix.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    slope, half = _loglog_slope(
        np.asarray(radii[:-1]), np.maximum(mean_err[:-1], 1e-300)
    )
    return SweepResult(
        axis="R",
        values=np.asarray(radii),
        mean_err=mean_err,
        stderr=stderr,
        n=len(seeds),
        slope=slope,
        slope_halfwidth=half,
        extras={
            "tail_mass": tail_matrix.mean(axis=0),
            "tail_stderr": tail_matrix.std(axis=0, ddof=1) / math.sqrt(len(seeds)),
        },
    )
