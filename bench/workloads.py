"""Benchmark workloads: the offline set-up, one timed pass of online work,
and the output checks.

A pass runs, for every path of the workload, `simulate` then `run_filter`
then the oracle (`kalman_filter` or `bootstrap_pf`), and checks the grid
filter's estimates against the oracle.  Passes of one run repeat the same
inputs, so their timings are samples of one quantity.  Every input is
derived from the workload seed: path j of seed s simulates with seed
s * paths + j, and its particle filter uses that seed + 1000, as the
acceptance suite's cross-validation cells do.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from yyfilter import (
    assemble_generator,
    bootstrap_pf,
    build_grid,
    builtin_model,
    coordinate,
    discretize_initial,
    kalman_filter,
    run_filter,
    simulate,
)
from yyfilter.filtering import MassCollapseError
from yyfilter.models import TimeSchedule
from yyfilter.pde import SolverError
from yyfilter.sde import SimulationError

RADIUS = 6.0
DT = 1e-3
SIM_SUBSTEPS = 4  # Euler substeps per knot in `simulate`, as in the acceptance suite
PF_SEED_OFFSET = 1000
PATH_FAILURES = (MassCollapseError, SolverError, SimulationError)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    dim: int
    points: int  # grid nodes per axis
    knots: int  # K per path, at dt = DT
    paths: int  # observation paths per pass
    substeps: int = 4  # Crank-Nicolson substeps of the grid filter
    particles: int = 0  # bootstrap PF oracle when > 0, else exact Kalman
    gap_tolerance: Optional[float] = None  # gate on mean |grid - Kalman|

    @property
    def schedule(self) -> TimeSchedule:
        return TimeSchedule(self.knots * DT, self.knots)


# Why each workload exists is recorded in BENCHMARK.json ("why") and
# bench/notes.json (which layer metric should move which end-to-end metric).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear1d_paths", "linear1d", 1, 241, knots=1000, paths=8,
            gap_tolerance=0.05 * math.sqrt(0.5),  # acceptance C1
        ),
        # The C5 cell's PF cost depends on the seed (pow on negative bases is
        # about twice as slow, and some cells collapse onto x < 0), so the
        # work of one 1e5-particle K=1000 cell is spread over 8 cells of
        # K=125 to keep the figures steady across seeds.
        Workload(
            "cubic_pf_cells", "cubic_sensor", 1, 241, knots=125, paths=8, substeps=8,
            particles=100_000,
        ),
        Workload(
            "linear3d_grid", "linearNd", 3, 41, knots=60, paths=1,
            gap_tolerance=5e-3,  # the tolerance of test_2d_filter_tracks_kalman
        ),
    )
}


@dataclass
class Plan:
    """Output of the offline stage."""

    model: object
    grid: object
    generator: object


def setup(w: Workload, tracer) -> Plan:
    """The offline stage, timed as `setup_s`."""
    with tracer.span("models.builtin_model"):
        model = builtin_model(w.model, w.dim if w.model == "linearNd" else None)
    with tracer.span("pde.build_grid"):
        grid = build_grid(w.dim, RADIUS, w.points)
    with tracer.span("pde.assemble_generator"):
        gen = assemble_generator(model, grid)
    with tracer.span("pde.discretize_initial"):
        discretize_initial(model, grid)
    return Plan(model, grid, gen)


@dataclass
class PassResult:
    run_s: float = 0.0  # summed over paths
    oracle_s: float = 0.0
    filter_s: float = 0.0  # time in run_filter, summed over paths
    filter_knots: int = 0  # knots pushed through run_filter, summed over paths
    attempted: int = 0
    failed: int = 0
    gaps: list = field(default_factory=list)  # per path: mean |grid - Kalman|
    within: list = field(default_factory=list)  # per path: share of knots within 3 PF s.e.
    finite: bool = True
    max_clamped_frac: float = 0.0
    pf_resamples: int = 0
    pf_min_ess_frac: float = 1.0


def run_pass(w: Workload, plan: Plan, seed: int, tracer, model=None, between=None) -> PassResult:
    """One pass of online work over every path of the workload.

    `model` replaces the plan's model (the traced run passes one whose
    callbacks are wrapped).  `between`, if given, is called after each
    path, outside the timed work.  A path that raises one of PATH_FAILURES
    is counted as failed and the pass goes on.
    """
    model = plan.model if model is None else model
    schedule = w.schedule
    phis = [coordinate(i) for i in range(w.dim)]
    res = PassResult()
    for j in range(w.paths):
        res.attempted += 1
        start = time.perf_counter()
        with tracer.path(j):
            try:
                _run_path(w, plan, model, schedule, phis, seed * w.paths + j, tracer, res)
            except PATH_FAILURES:
                res.failed += 1
        res.run_s += time.perf_counter() - start
        if between is not None:
            between()
    return res


def _run_path(w, plan, model, schedule, phis, seed, tracer, res):
    with tracer.span("sde.simulate"):
        _, obs = simulate(model, schedule, substeps=SIM_SUBSTEPS, seed=seed)
    tracer.count("sde.euler_steps", schedule.steps * SIM_SUBSTEPS)

    t0 = time.perf_counter()
    with tracer.span("filtering.run_filter"):
        out = run_filter(
            model, plan.grid, schedule, obs, phis, substeps=w.substeps, generator=plan.generator
        )
    t1 = time.perf_counter()
    tracer.count("filtering.knots", schedule.steps)

    if w.particles:
        with tracer.span("baselines.bootstrap_pf"):
            ref = bootstrap_pf(model, schedule, obs, phis, w.particles, seed=seed + PF_SEED_OFFSET)
    else:
        with tracer.span("baselines.kalman_filter"):
            ref = kalman_filter(model, schedule, obs)
    t2 = time.perf_counter()

    grid_est = out.estimates[1:]
    res.filter_s += t1 - t0
    res.filter_knots += schedule.steps
    res.oracle_s += t2 - t1
    res.max_clamped_frac = max(
        res.max_clamped_frac, float(np.max(out.clamped_mass[1:] / out.mass_mantissa[1:]))
    )
    res.finite &= bool(np.all(np.isfinite(grid_est)))
    if w.particles:
        pf_est, pf_se = ref.estimates[1:], ref.stderr[1:]
        res.finite &= bool(np.all(np.isfinite(pf_est)) and np.all(np.isfinite(pf_se)))
        window = 3 * np.maximum(pf_se, 1e-12)
        res.within.append(float(np.mean(np.abs(grid_est - pf_est) <= window)))
        tracer.count("baselines.pf_particle_steps", w.particles * schedule.steps)
        res.pf_resamples += int(np.sum(ref.ess[1:] < w.particles / 2))
        res.pf_min_ess_frac = min(res.pf_min_ess_frac, float(ref.ess[1:].min()) / w.particles)
    else:
        res.gaps.append(float(np.mean(np.abs(grid_est - ref.means[1:]))))


def checks(w: Workload, res: PassResult) -> list:
    """(name, value, unit, passed, rule) for each output check of a pass."""
    done = res.attempted - res.failed
    out = [("fail_frac", res.failed / res.attempted, "fraction", True, "reported")]
    out.append(("finite", float(res.finite), "bool", res.finite and done > 0, "estimates finite"))
    if w.particles:
        frac = float(np.mean(res.within)) if res.within else math.nan
        out.append(("pf_within_3se", frac, "fraction", True, "reported, not gated"))
    else:
        gap = float(np.mean(res.gaps)) if res.gaps else math.nan
        out.append(
            ("kalman_gap", gap, "state", gap <= w.gap_tolerance, f"<= {w.gap_tolerance:.4g}")
        )
    return out
