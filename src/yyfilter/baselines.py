"""Reference estimators used as oracles.

kalman_filter     exact continuous-discrete recursion for linear models
ks_monte_carlo    reference-measure importance sampler (Bayes-ratio weights)
bootstrap_pf      bootstrap particle filter with systematic resampling
ORACLES           the one table of oracles: a name maps to one call over a batch
                  of paths.  `yyfilter baseline` takes the names in BASELINES,
                  the dt sweep those in SWEEP_ORACLES; `fine_oracle` is the grid
                  filter on the mesh refined twice per axis.
agreement         one path's mean |estimate - reference| and share within 3 se

All are deterministic given their seeds.  Particle estimators report
delta-method standard errors alongside the estimates.  The two particle
oracles draw the next knot's (or substep's) normals on one worker thread
that lives only during the call; their outputs are bit-identical to
drawing the same stream sequentially, since a resample rolls back the
speculative draw, takes its uniform, and draws again.  Model callbacks
run on the calling thread.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .filtering import run_filter
from .models import FilterModel, TestFunction, TimeSchedule, parse_test_function, readout_index
from .pde import build_grid
from .sde import PATH_SUBSTEPS, ObservationPath, observation_increments, _rng_for
from .tables import csv_table

log = logging.getLogger("yyfilter")


def _normalized_weights(logw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Particle weights exp(logw) scaled to sum to one, shifted by the max against overflow."""
    w = np.subtract(logw, logw.max(), out=out)
    np.exp(w, out=w)
    w /= w.sum()
    return w


def _ess(w: np.ndarray, scratch: Optional[np.ndarray] = None) -> float:
    return 1.0 / float(np.sum(np.multiply(w, w, out=scratch)))


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

    def column(self, label: str) -> np.ndarray:
        """Per-knot moments: E[x_i] = m_i, and E[x_i x_j] = m_i m_j + P_ij for x_i*x_j and x_i^2."""
        indices = parse_test_function(label).indices
        if len(indices) == 1:
            return self.means[:, indices[0]]
        i, j = indices
        return self.means[:, i] * self.means[:, j] + self.covs[:, i, j]


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
        return self.estimates[:, readout_index(self.labels, label)]

    def stderr_column(self, label: str) -> np.ndarray:
        return self.stderr[:, readout_index(self.labels, label)]

    def to_csv(self) -> str:
        return csv_table(
            ["t", *self.labels, *(f"{lb}_stderr" for lb in self.labels), "ess"],
            [self.schedule.knots, *self.estimates.T, *self.stderr.T, self.ess],
        )


class _NormalStream:
    """Blocks of (n, d) standard normals, each drawn on a worker thread into one
    of two alternating buffers while the caller works on the block before it.

    numpy releases the GIL while it fills a buffer, so the draw overlaps the
    caller's arithmetic, and `rng` is consumed exactly as by one
    `rng.standard_normal((n, d))` per block.  `uniform()` rolls back the draw
    in flight, takes its uniform, then redraws the block.  The worker lives
    only inside the `with` block; every other use of `rng` stays on the caller.
    """

    def __init__(self, rng: np.random.Generator, shape: tuple, blocks: int):
        self._rng, self._left = rng, blocks
        self._bufs = [np.empty(shape), np.empty(shape)]
        self._pending = None

    def __enter__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._prefetch()
        return self

    def __exit__(self, *exc_info):
        self._pool.shutdown()  # joins the worker, on return and on an exception

    def _prefetch(self):
        self._pending = None
        if self._left:
            self._saved = self._rng.bit_generator.state
            self._pending = self._pool.submit(self._rng.standard_normal, out=self._bufs[1])

    def next(self) -> np.ndarray:
        """The next block, valid until the following call."""
        self._pending.result()
        self._left -= 1
        self._bufs.reverse()
        self._prefetch()
        return self._bufs[0]

    def uniform(self) -> float:
        """One U[0, 1) draw, taken from the stream before the next block."""
        if self._pending is None:
            return self._rng.random()
        self._pending.result()
        self._rng.bit_generator.state = self._saved
        u = self._rng.random()
        self._prefetch()
        return u


def _euler_step(model: FilterModel, dt: float):
    """The Euler-Maruyama step (x, z) -> x + f(x) dt + g z sqrt(dt) of (n, d) particles x
    driven by standard normals z, which it may overwrite; it returns a fresh array."""
    sq, g = np.sqrt(dt), model.diffusion_matrix
    unit = g is not None and np.array_equal(g, np.eye(model.dim))

    def step(x, z):
        if g is None:
            return x + model.drift(x) * dt + np.einsum("nij,nj->ni", model.diffusion(x), z) * sq
        out = model.drift(x) * dt
        out += x
        z = z if unit else z @ g.T
        z *= sq
        out += z
        return out

    return step


class _KnotRecord:
    """Per-knot estimates, standard errors and ESS of a weighted ensemble, computed
    in place in two n-length buffers that also hold the log-likelihood terms."""

    def __init__(self, schedule: TimeSchedule, test_functions, n: int):
        self.schedule, self.test_functions = schedule, tuple(test_functions)
        self.est = np.empty((schedule.steps + 1, len(self.test_functions)))
        self.serr = np.empty_like(self.est)
        self.ess = np.empty(schedule.steps + 1)
        self._w, self._tmp = np.empty(n), np.empty(n)

    def log_likelihood_terms(self, h: np.ndarray, dy: np.ndarray, dt: float):
        """h·dy and 1/2 |h|^2 dt per particle, in the two buffers."""
        hdy, half_sq = self._w, self._tmp
        if h.shape[1] == 1:  # one-term sums, elementwise: a length-1 reduction is ~10x slower
            np.multiply(h[:, 0], dy[0], out=hdy)
            np.multiply(h[:, 0], h[:, 0], out=half_sq)
        else:
            np.matmul(h, dy, out=hdy)
            np.sum(h**2, axis=1, out=half_sq)
        half_sq *= 0.5
        half_sq *= dt
        return hdy, half_sq

    def __call__(self, k: int, logw: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Record knot k; returns the normalized weights, valid until the next call."""
        w = _normalized_weights(logw, out=self._w)
        for j, phi in enumerate(self.test_functions):
            # self-normalized estimate and its asymptotic standard error
            vals = phi(x)
            self.est[k, j] = est = float(np.dot(w, vals))
            dev = np.subtract(vals, est, out=self._tmp)
            dev *= w
            dev *= dev
            self.serr[k, j] = np.sqrt(np.sum(dev))
        self.ess[k] = _ess(w, self._tmp)
        return w

    def result(self) -> ParticleResult:
        labels = tuple(p.label for p in self.test_functions)
        return ParticleResult(self.schedule, labels, self.est, self.serr, self.ess)


def ks_monte_carlo(
    model: FilterModel,
    schedule: TimeSchedule,
    obs: ObservationPath,
    test_functions: Sequence[TestFunction],
    n_particles: int,
    substeps: int = PATH_SUBSTEPS,
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
    K = schedule.steps
    dt = schedule.dt / substeps
    rng = _rng_for(seed)
    x = model.sample_initial(rng, n_particles)
    logw = np.zeros(n_particles)
    dys = observation_increments(obs, schedule)
    record = _KnotRecord(schedule, test_functions, n_particles)

    record(0, logw, x)
    euler_step = _euler_step(model, dt)
    with _NormalStream(rng, (n_particles, model.dim), K * substeps) as normals:
        for k in range(1, K + 1):
            dy_sub = dys[k - 1] / substeps  # piecewise-linear Y within the interval
            for _ in range(substeps):
                hdy, half_sq = record.log_likelihood_terms(model.observation(x), dy_sub, dt)
                hdy -= half_sq
                logw += hdy
                x = euler_step(x, normals.next())
            record(k, logw, x)
    if record.ess.min() < 10:
        log.warning(
            "ks_monte_carlo: weight degeneracy (min ESS %.2f of %d particles)",
            record.ess.min(),
            n_particles,
        )
    return record.result()


def _systematic_resample(weights: np.ndarray, u: float) -> np.ndarray:
    n = weights.size
    positions = (np.arange(n) + u) / n
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
    if n_particles < 3:
        raise ValueError("n_particles must be >= 3: at N = 2 the ESS never falls below N/2")
    K = schedule.steps
    dt = schedule.dt
    rng = _rng_for(seed)
    x = model.sample_initial(rng, n_particles)
    logw = np.zeros(n_particles)
    dys = observation_increments(obs, schedule)
    record = _KnotRecord(schedule, test_functions, n_particles)
    euler_step = _euler_step(model, dt)

    with _NormalStream(rng, (n_particles, model.dim), K) as normals:
        for k in range(K + 1):
            if k > 0:
                x = euler_step(x, normals.next())
                hdy, half_sq = record.log_likelihood_terms(model.observation(x), dys[k - 1], dt)
                logw += hdy
                logw -= half_sq
            w = record(k, logw, x)
            if k > 0 and record.ess[k] < n_particles / 2:
                x = x[_systematic_resample(w, normals.uniform())]
                logw.fill(0.0)
    return record.result()


# Every oracle: fn(model, grid, schedule, paths, test_functions, seeds, substeps,
# particles) -> one result per path, each reading a label through column(label).
# `substeps` is the grid filter's Crank-Nicolson stage count, read by fine_oracle only.
# The particle entries draw from the path's seed plus this offset, away from
# the path's own stream, which drew the hidden X_0.
PARTICLE_SEED_OFFSET = 1000


def _kalman(model, grid, schedule, paths, test_functions, seeds, substeps, particles):
    return kalman_filter(model, schedule, paths)


def _refined_grid_filter(model, grid, schedule, paths, test_functions, seeds, substeps, particles):
    """The grid filter on the mesh refined twice per axis."""
    fine = build_grid(grid.dim, grid.radius, 2 * (grid.points_per_axis - 1) + 1)
    return run_filter(model, fine, schedule, paths, test_functions, substeps)


def _bootstrap_pf(model, grid, schedule, paths, test_functions, seeds, substeps, particles):
    return [bootstrap_pf(model, schedule, ys, test_functions, particles,
                         seed=seed + PARTICLE_SEED_OFFSET)
            for seed, ys in zip(seeds, paths)]


def _ks_monte_carlo(model, grid, schedule, paths, test_functions, seeds, substeps, particles):
    return [ks_monte_carlo(model, schedule, ys, test_functions, particles,
                           seed=seed + PARTICLE_SEED_OFFSET)
            for seed, ys in zip(seeds, paths)]


ORACLES = {
    "kalman": _kalman,
    "fine_oracle": _refined_grid_filter,
    "bootstrap_pf": _bootstrap_pf,
    "ks_monte_carlo": _ks_monte_carlo,
}
BASELINES = ("kalman", "bootstrap_pf", "ks_monte_carlo")
SWEEP_ORACLES = ("kalman", "fine_oracle")
LINEAR_ORACLES = ("kalman",)  # refused, before any compute, on a model not declared linear


def agreement(estimates: np.ndarray, reference: np.ndarray, stderr=None) -> tuple:
    """One path's mean |estimates - reference| over knots 1..K (knot 0 is the prior)
    and, given the reference's standard errors (each floored at 1e-12), the share
    of those knots within 3 of them; the share is None without standard errors."""
    gap = np.abs(estimates[1:] - reference[1:])
    share = None if stderr is None else np.mean(gap <= 3 * np.maximum(stderr[1:], 1e-12))
    return gap.mean(), share
