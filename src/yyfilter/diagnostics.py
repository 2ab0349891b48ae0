"""Empirical convergence and regularity checks.

tail_mass                     density tail-mass readout
l4_stability_check            non-explosion of reconstructed pre-update fields
exp_moment_step_check         one-step quartic-mass amplification law
quartic_growth_profile        deterministic L4 growth under pure propagation
check_dt_levels               the dt sweep's rule for its swept values
check_radius_levels           the radius sweep's rule for its swept values
convergence_sweep             estimate error against an oracle across dt
radius_sweep                  estimate drift and tail mass across domain radii

Expectations over observation paths are Monte-Carlo averages over
simulated (state, observation) pairs with reported standard errors; the
one-step exponential-moment check draws its Gaussian increments directly.
The sweeps and the L4 check simulate every seed's path once and run one
batched filter per level (a knot stride plus a generator), and the sweeps
score each path with baselines.agreement, so they are reproducible
bit-for-bit from their seed lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from .baselines import LINEAR_ORACLES, ORACLES, SWEEP_ORACLES, agreement
from .filtering import DEFAULT_SUBSTEPS, run_filter
from .models import FilterModel, TestFunction, TimeSchedule, coordinate
from .pde import (
    DensityField, Grid, _batch_exponent, assemble_generator, build_grid, discretize_initial,
    integrate, propagate,
)
from .sde import simulate, subsample
from .tables import csv_table


# ---------------------------------------------------------------------------
# Field readouts.
# ---------------------------------------------------------------------------


def tail_mass(field: DensityField, r: float):
    """Fraction of the field's mass on nodes with |x| >= r, per column for a batch.

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


# ---------------------------------------------------------------------------
# Growth and stability checks.
# ---------------------------------------------------------------------------


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
    """(S, 2): per column, log L2^2 and L4^4 of exp(-h^T y) * the represented field,
    y its row of the (S, d) `y_prev`.  Each sum of exp(p (log v - h^T y)) is shifted
    by its largest term, so none underflows as v^p can; no support reads -inf."""
    with np.errstate(divide="ignore"):
        logs = np.log(field.values) - _batch_exponent(h_nodes, y_prev)
        out = []
        for p in (2, 4):
            expo = p * logs
            shift = expo.max(axis=0)
            shift[shift == -np.inf] = 0.0  # no support: every term is 0
            expo -= shift
            acc = integrate(DensityField(field.grid, np.exp(expo, out=expo)))
            out.append(np.log(acc) + shift + p * field.log_scale)
    return np.column_stack(out)


def l4_stability_check(
    model: FilterModel,
    grid: Grid,
    schedules: Sequence[TimeSchedule],
    obs_seeds: Sequence[int],
    substeps: int = DEFAULT_SUBSTEPS,
) -> L4StabilityReport:
    """Uniform-in-dt boundedness of the reconstructed pre-update fields.

    The pre-update field at tau_k, stripped of its running exponential
    transform via exp(-h^T Y_{tau_{k-1}}) and its log scale, is the
    object whose L2 and L4 norms must stay bounded as dt shrinks.
    Passes when the sup over knots of the seed-averaged norms varies by
    less than 20% across the dt levels.  Each seed's path is simulated
    once, at _PATH_SUBSTEPS on the finest (last) schedule, and subsampled
    to the others; each schedule takes one batched filter run.
    """
    if len(schedules) < 2:
        raise ValueError("need at least 2 schedules related by dt-halving")
    terminals = [s.terminal for s in schedules]
    if len(set(terminals)) > 1:
        raise ValueError(f"schedules must share one terminal time, not {terminals}")
    if any(b.steps != 2 * a.steps for a, b in zip(schedules, schedules[1:])):
        raise ValueError("schedules must double their step counts (dt halving)")
    if len(obs_seeds) < 10:
        raise ValueError("need at least 10 seeds")

    gen = assemble_generator(model, grid)
    finest = schedules[-1]
    paths = [ys for _, ys in simulate(model, finest, substeps=_PATH_SUBSTEPS, seed=obs_seeds)]
    ys = np.stack([p.values for p in paths])  # (seeds, knots, d)
    strides = [finest.steps // s.steps for s in schedules]
    norms = [[] for _ in schedules]  # per level, knot and seed: the pre-update log norms

    def hook(j, k, stage, fld):
        if stage == "propagated":  # Y at knot k - 1 of level j, on the simulated schedule
            norms[j].append(_reconstructed_log_norms(fld, gen.observation,
                                                     ys[:, (k - 1) * strides[j]]))

    _run_levels(model, paths, [(stride, gen) for stride in strides], (), substeps, hook)
    # per level, (steps, seeds, 2) log norms: the largest over knots of the seed means
    logs = [np.max(logsumexp(np.array(n), axis=1), axis=0) - math.log(len(paths)) for n in norms]
    with np.errstate(over="ignore"):  # a norm beyond float range reads inf, and fails
        sup_l2, sup_l4 = np.exp(logs).T.tolist()

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


# The oracle and the simulated paths run at the finest swept dt divided by this.
_ORACLE_REFINE = 4
# Euler substeps per knot of every path the sweeps and the L4 check simulate,
# whatever their Crank-Nicolson `substeps`.
_PATH_SUBSTEPS = 2


def _run_levels(model: FilterModel, paths: Sequence, levels, test_functions, substeps: int,
                hook=None) -> list:
    """Per level (stride, generator): one FilterOutput per path, from one batched
    run of the paths, subsampled to every stride-th knot, on the generator's
    grid.  `hook(j, k, stage, field)` is run_filter's field hook told level j."""
    runs = []
    for j, (stride, gen) in enumerate(levels):
        obs = [subsample(p, stride) for p in paths]
        runs.append(run_filter(model, gen.grid, obs[0].schedule, obs, test_functions,
                               substeps=substeps, generator=gen,
                               field_hook=None if hook is None else partial(hook, j)))
    return runs


def _refuse_unless_positive(what: str, values: Sequence[float]) -> None:
    for v in values:
        if not 0 < v < math.inf:
            raise ValueError(f"{what} {v!r} is not a positive finite number")


def check_dt_levels(terminal: float, deltas: Sequence[float]) -> None:
    """Raise ValueError unless there is a dt, and every dt is positive, finite,
    divides the terminal time, is a multiple of the finest, and gives a step
    count no other dt gives."""
    if not len(deltas):
        raise ValueError("need at least 1 dt, not an empty list")
    _refuse_unless_positive("dt", deltas)
    finest = min(deltas)
    for d in deltas:
        ratio = d / finest
        if abs(ratio - round(ratio)) > 1e-9 or abs(terminal / d - round(terminal / d)) > 1e-9:
            raise ValueError("every dt must divide the terminal time and be a multiple of "
                             f"the finest dt; dt {d!r} does not (terminal {terminal!r})")
    _refuse_repeats("dt", deltas, [round(terminal / d) for d in deltas])


def check_radius_levels(radii: Sequence[float], dx: float) -> None:
    """Raise ValueError unless dx is positive and finite, and there are at least
    two radii, each an integer multiple of dx that gives a node count no other
    gives."""
    _refuse_unless_positive("grid spacing", [dx])
    if len(radii) < 2:
        raise ValueError("need at least 2 radii")
    _refuse_unless_positive("radius", radii)
    for R in radii:
        if abs(R / dx - round(R / dx)) > 1e-9:
            raise ValueError(f"radius {R!r} is not an integer multiple of the grid spacing {dx!r}")
    _refuse_repeats("radius", radii, [round(R / dx) for R in radii])


def _refuse_repeats(what: str, values: Sequence[float], levels: list) -> None:
    for j, level in enumerate(levels):
        if level in levels[:j]:
            raise ValueError(f"{what} {values[j]!r} repeats a level already swept")


def convergence_sweep(
    model: FilterModel,
    grid: Grid,
    terminal: float,
    deltas: Sequence[float],
    seeds: Sequence[int],
    oracle: str = "kalman",
    phi: Optional[TestFunction] = None,
    substeps: int = DEFAULT_SUBSTEPS,
) -> SweepResult:
    """Mean |estimate - oracle| against dt.

    Per seed, one observation path is simulated at the finest dt over
    _ORACLE_REFINE, with _PATH_SUBSTEPS Euler substeps per knot, and
    subsampled to every coarser level; the oracle (near-exact reference,
    one of SWEEP_ORACLES) is computed once at that simulation resolution
    and read at coarse knots, in one oracle run over the batch of paths.
    Returns per-dt means with standard errors over seeds (at least two)
    and the fitted log-log slope (NaN, flagged in the summary, when fewer
    than three levels are given).
    """
    deltas = sorted(float(d) for d in deltas)[::-1]  # descending
    if oracle not in SWEEP_ORACLES:
        raise ValueError(f"unknown oracle {oracle!r}; valid names: {', '.join(SWEEP_ORACLES)}")
    if oracle in LINEAR_ORACLES and model.linear is None:
        raise ValueError(f"{oracle} oracle requires a linear model")
    check_dt_levels(terminal, deltas)
    finest = min(deltas)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for the standard errors")
    phi = phi if phi is not None else coordinate(0)

    k_sim = round(terminal / finest) * _ORACLE_REFINE
    sim_sched = TimeSchedule(terminal, k_sim)
    paths = [ys for _, ys in simulate(model, sim_sched, substeps=_PATH_SUBSTEPS, seed=seeds)]
    refs = [res.column(phi.label) for res in ORACLES[oracle](
        model, grid, sim_sched, paths, (phi,), seeds, substeps, None)]

    gen = assemble_generator(model, grid)
    strides = [k_sim // round(terminal / dt) for dt in deltas]
    runs = _run_levels(model, paths, [(stride, gen) for stride in strides], (phi,), substeps)
    err_matrix = np.array([
        [agreement(out.estimates[:, 0], ref[::stride])[0] for out, ref in zip(outs, refs)]
        for stride, outs in zip(strides, runs)
    ])  # (dts, seeds), C-ordered: the reductions along axis 1 sum each row pairwise
    mean_err = err_matrix.mean(axis=1)
    stderr = err_matrix.std(axis=1, ddof=1) / math.sqrt(len(seeds))
    slope, half = _loglog_slope(np.asarray(deltas), mean_err)
    return SweepResult(axis="dt", values=np.asarray(deltas), mean_err=mean_err, stderr=stderr,
                       n=len(seeds), slope=slope, slope_halfwidth=half)


def radius_sweep(
    model: FilterModel,
    schedule: TimeSchedule,
    radii: Sequence[float],
    dx: float,
    seeds: Sequence[int],
    phi: Optional[TestFunction] = None,
    substeps: int = DEFAULT_SUBSTEPS,
) -> SweepResult:
    """Estimate drift and tail mass across domain radii at fixed spacing.

    The error curve compares each radius' estimates to the largest-radius
    run on the same path.  The tail curve probes the largest run's fields
    at r = each sweep radius (its own inscribed radius would sit exactly
    on its Dirichlet nodes), averaged over knots and seeds.
    """
    radii = sorted(float(r) for r in radii)
    check_radius_levels(radii, dx)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for the standard errors")
    phi = phi if phi is not None else coordinate(0)

    paths = [ys for _, ys in simulate(model, schedule, substeps=_PATH_SUBSTEPS, seed=seeds)]
    probe = np.empty((len(seeds), schedule.steps, len(radii)))

    def hook(j, k, stage, fld):
        if j == len(radii) - 1 and stage == "updated":
            probe[:, k - 1] = np.column_stack([tail_mass(fld, r) for r in radii])

    levels = [(1, assemble_generator(model, build_grid(model.dim, R, 2 * round(R / dx) + 1)))
              for R in radii]
    runs = _run_levels(model, paths, levels, (phi,), substeps, hook)
    err_matrix = np.array([
        [agreement(out.estimates[:, 0], outs[-1].estimates[:, 0])[0] for out in outs]
        for outs in zip(*runs)
    ])  # (seeds, radii), C-ordered: the reductions along axis 0 sum each column seed by seed
    mean_err = err_matrix.mean(axis=0)
    stderr = err_matrix.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    tail_matrix = probe.mean(axis=1)  # (seeds, radii), C-ordered as err_matrix is
    extras = {"tail_mass": tail_matrix.mean(axis=0),
              "tail_stderr": tail_matrix.std(axis=0, ddof=1) / math.sqrt(len(seeds))}
    slope, half = _loglog_slope(np.asarray(radii[:-1]), np.maximum(mean_err[:-1], 1e-300))
    return SweepResult(axis="R", values=np.asarray(radii), mean_err=mean_err, stderr=stderr,
                       n=len(seeds), slope=slope, slope_halfwidth=half, extras=extras)
