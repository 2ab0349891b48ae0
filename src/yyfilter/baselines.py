"""Reference estimators used as oracles.

kalman_filter     exact continuous-discrete recursion for linear models
ks_monte_carlo    reference-measure importance sampler (Bayes-ratio weights)
bootstrap_pf      bootstrap particle filter with systematic resampling
fine_oracle       the grid filter itself at refined dt and mesh

All are deterministic given their seeds.  Particle estimators report
delta-method standard errors alongside the estimates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.linalg import expm

from .filtering import FilterOutput, run_filter
from .models import FilterModel, TestFunction, TimeSchedule
from .pde import Grid, build_grid
from .sde import ObservationPath, observation_increments, _rng_for
from .tables import csv_table

log = logging.getLogger("yyfilter")


def _normalized_weights(logw: np.ndarray) -> np.ndarray:
    """Particle weights exp(logw) scaled to sum to one, shifted by the max against overflow."""
    # Three statements, not one expression: that form frees the shifted array before the
    # division allocates, and ran 8 cubic PFs of 1e5 particles about 15% slower (2 vCPUs).
    lw = logw - logw.max()
    w = np.exp(lw)
    return w / w.sum()


def _ess(w: np.ndarray) -> float:
    return 1.0 / float(np.sum(w**2))


def _weighted_readout(w: np.ndarray, phi_vals: np.ndarray):
    """Self-normalized estimate and its asymptotic standard error under weights w."""
    est = float(np.dot(w, phi_vals))
    se = float(np.sqrt(np.sum((w * (phi_vals - est)) ** 2)))
    return est, se


@dataclass(frozen=True)
class KalmanResult:
    schedule: TimeSchedule
    means: np.ndarray  # (K+1, d)
    covs: np.ndarray  # (K+1, d, d)

    def to_csv(self) -> str:
        d = self.means.shape[1]
        return csv_table(
            ["t", *(f"mean_{i + 1}" for i in range(d)), *(f"var_{i + 1}" for i in range(d))],
            [self.schedule.knots, *self.means.T, *np.diagonal(self.covs, axis1=1, axis2=2).T],
        )


def _discrete_transition(F: np.ndarray, Q: np.ndarray, dt: float):
    """Exact moment propagation over dt via the block matrix exponential."""
    d = F.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -F
    block[:d, d:] = Q
    block[d:, d:] = F.T
    eb = expm(block * dt)
    Ad = eb[d:, d:].T
    Qd = Ad @ eb[:d, d:]
    return Ad, 0.5 * (Qd + Qd.T)


def kalman_filter(
    model: FilterModel,
    schedule: TimeSchedule,
    obs: Union[ObservationPath, Sequence[ObservationPath]],
) -> Union[KalmanResult, list[KalmanResult]]:
    """Continuous-discrete Kalman recursion for a linear-Gaussian model.

    Moments propagate exactly over each knot interval (closed-form matrix
    exponential); the measurement update treats dY_k as a discrete
    observation of H x dt with noise covariance dt I — the standard
    first-order reduction of the integrated-observation model.  Given a
    sequence of paths, the covariance and gain recursion runs once (it
    does not depend on the path), the means advance as one (S, d) matrix,
    and the result is one KalmanResult per path.
    """
    if model.linear is None:
        raise ValueError(f"model {model.name!r} is not declared linear")
    single = isinstance(obs, ObservationPath)
    paths = [obs] if single else list(obs)
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
    results = [KalmanResult(schedule, mv, covs) for mv in means]
    return results[0] if single else results


@dataclass(frozen=True)
class ParticleResult:
    schedule: TimeSchedule
    labels: tuple
    estimates: np.ndarray  # (K+1, n_phi)
    stderr: np.ndarray  # (K+1, n_phi)
    ess: np.ndarray  # (K+1,)

    def column(self, label: str) -> np.ndarray:
        return self.estimates[:, self.labels.index(label)]

    def stderr_column(self, label: str) -> np.ndarray:
        return self.stderr[:, self.labels.index(label)]

    def to_csv(self) -> str:
        return csv_table(
            ["t", *self.labels, *(f"{lb}_stderr" for lb in self.labels), "ess"],
            [self.schedule.knots, *self.estimates.T, *self.stderr.T, self.ess],
        )


def ks_monte_carlo(
    model: FilterModel,
    schedule: TimeSchedule,
    obs: ObservationPath,
    test_functions: Sequence[TestFunction],
    n_particles: int,
    substeps: int = 4,
    seed: int = 0,
) -> ParticleResult:
    """Bayes-ratio Monte Carlo under the reference measure.

    Simulates particle paths with the state dynamics alone and weights
    each by exp(sum h^T dY - 1/2 sum |h|^2 dt), accumulated at substep
    resolution with the observation interpolated piecewise-linearly
    between knots.  Estimates are self-normalized ratios (well defined
    down to a single particle); weight degeneracy (ESS < 10) is reported
    via the ess column and a warning, never an error.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
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
        w = _normalized_weights(logw)
        for j, phi in enumerate(test_functions):
            est[k, j], serr[k, j] = _weighted_readout(w, phi(x))
        ess_arr[k] = _ess(w)

    record(0)
    sq = np.sqrt(dt)
    for k in range(1, K + 1):
        dy_sub = dys[k - 1] / substeps  # piecewise-linear Y within the interval
        for _ in range(substeps):
            h = model.observation(x)
            logw += h @ dy_sub - 0.5 * np.sum(h**2, axis=1) * dt
            g = model.diffusion(x)
            x = x + model.drift(x) * dt + np.einsum(
                "nij,nj->ni", g, rng.standard_normal((n_particles, d))
            ) * sq
        record(k)
    if ess_arr.min() < 10:
        log.warning(
            "ks_monte_carlo: weight degeneracy (min ESS %.2f of %d particles)",
            ess_arr.min(),
            n_particles,
        )
    return ParticleResult(
        schedule, tuple(p.label for p in test_functions), est, serr, ess_arr
    )


def _systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = weights.size
    positions = (np.arange(n) + rng.random()) / n
    return np.searchsorted(np.cumsum(weights), positions)


def bootstrap_pf(
    model: FilterModel,
    schedule: TimeSchedule,
    obs: ObservationPath,
    test_functions: Sequence[TestFunction],
    n_particles: int,
    seed: int = 0,
) -> ParticleResult:
    """Bootstrap particle filter.

    Particles advance by one Euler-Maruyama step per knot interval, are
    reweighted by exp(h^T dY - 1/2 |h|^2 dt), and are systematically
    resampled whenever ESS drops below N/2.
    """
    if n_particles < 2:
        raise ValueError("n_particles must be >= 2")
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
            g = model.diffusion(x)
            x = x + model.drift(x) * dt + np.einsum(
                "nij,nj->ni", g, rng.standard_normal((n_particles, d))
            ) * sq
            h = model.observation(x)
            logw = logw + h @ dys[k - 1] - 0.5 * np.sum(h**2, axis=1) * dt
        w = _normalized_weights(logw)
        for j, phi in enumerate(test_functions):
            est[k, j], serr[k, j] = _weighted_readout(w, phi(x))
        ess_arr[k] = _ess(w)
        if k > 0 and ess_arr[k] < n_particles / 2:
            idx = _systematic_resample(w, rng)
            x = x[idx]
            logw = np.zeros(n_particles)
    return ParticleResult(
        schedule, tuple(p.label for p in test_functions), est, serr, ess_arr
    )


def fine_oracle(
    model: FilterModel,
    grid: Grid,
    fine_schedule: TimeSchedule,
    fine_obs: Union[ObservationPath, Sequence[ObservationPath]],
    test_functions: Sequence[TestFunction],
    coarse_steps: int,
    space_refine: int = 2,
    substeps: int = 4,
) -> Union[np.ndarray, list[np.ndarray]]:
    """Self-oracle: the grid filter at refined dt and mesh, read at coarse knots.

    `fine_schedule`/`fine_obs` carry the refined run; the estimate array
    returned has shape (coarse_steps + 1, n_phi), one per path when
    `fine_obs` is a sequence.  With a time refinement of 1 and
    space_refine of 1 this is exactly run_filter on the coarse problem.
    """
    if space_refine < 1:
        raise ValueError("space_refine must be >= 1")
    if fine_schedule.steps % coarse_steps:
        raise ValueError("fine schedule steps must be a multiple of coarse_steps")
    stride = fine_schedule.steps // coarse_steps
    fine_grid = (
        grid
        if space_refine == 1
        else build_grid(grid.dim, grid.radius, space_refine * (grid.points_per_axis - 1) + 1)
    )
    out = run_filter(model, fine_grid, fine_schedule, fine_obs, test_functions, substeps)
    if isinstance(out, FilterOutput):
        return out.estimates[::stride]
    return [o.estimates[::stride] for o in out]
