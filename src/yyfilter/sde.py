"""Euler-Maruyama simulation of state and observation paths.

Paths are recorded on the knots of a TimeSchedule; integration runs on a
finer internal mesh of `substeps` sub-intervals per knot interval, and
the observation integral of h is accumulated at that fine resolution so
coarse recording does not bias it.  The Euler loop carries the state
alone; h is evaluated once over every fine state after it, and Y is one
sequential cumulative sum.  All randomness comes from a
counter-based Philox stream keyed by the seed, with every increment for
a path drawn in a single upfront call, so identical inputs give
bit-identical paths regardless of execution order or of the other seeds
simulated alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .models import FilterModel, TimeSchedule
from .tables import csv_table


class SimulationError(RuntimeError):
    """State integration produced a non-finite value."""


# Euler substeps per knot of the paths the command line simulates, and of the
# KS oracle's particle paths: the data's resolution, whatever the filter's.
PATH_SUBSTEPS = 4


@dataclass(frozen=True)
class _KnotPath:
    schedule: TimeSchedule
    values: np.ndarray  # (K+1, d), one row per knot

    def __post_init__(self):
        if len(self.values) != self.schedule.steps + 1:
            raise ValueError(f"path has {len(self.values)} rows; its schedule needs "
                             f"steps + 1 = {self.schedule.steps + 1}")


class StatePath(_KnotPath):
    """Hidden state X at the knots."""


class ObservationPath(_KnotPath):
    """Observation Y at the knots; values[0] == 0."""


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def simulate(
    model: FilterModel,
    schedule: TimeSchedule,
    substeps: int = 1,
    seed: Union[int, Sequence[int]] = 0,
) -> Union[tuple[StatePath, ObservationPath], list[tuple[StatePath, ObservationPath]]]:
    """Simulate one (state, observation) pair on the schedule.

    X_0 is drawn from the model's initial sampler; X advances by
    Euler-Maruyama on dt/substeps, its noise g dV formed before the loop
    when the model declares a constant diffusion matrix; Y accumulates
    h(X) dt plus Brownian increments at the fine resolution, in the order
    (Y + h dt) + dW of one step at a time, and is recorded at knots.  Given
    a sequence of seeds, the S states advance together as one (S, d) array
    and the result is one (StatePath, ObservationPath) pair per seed, each
    bit-identical to simulating that seed alone.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    d = model.dim
    K = schedule.steps
    n = K * substeps
    dt = schedule.dt / substeps
    sq = np.sqrt(dt)

    S = len(seeds)
    traj = np.empty((n + 1, S, d))  # the state at every fine time
    dv = np.empty((n, S, d))
    dw = np.empty((n, S, d))
    for s, sd in enumerate(seeds):
        rng = _rng_for(sd)
        traj[0, s] = model.sample_initial(rng, 1)[0]
        dv[:, s] = rng.standard_normal((n, d)) * sq
        dw[:, s] = rng.standard_normal((n, d)) * sq

    g = model.diffusion_matrix
    if g is not None and not np.array_equal(g, np.eye(d)):
        dv = dv @ g.T  # the noise g dV of every step, formed once
    step = 0
    for k in range(1, K + 1):
        for _ in range(substeps):
            x = traj[step]
            noise = dv[step] if g is not None else (model.diffusion(x) @ dv[step, :, :, None])[..., 0]
            traj[step + 1] = x + model.drift(x) * dt + noise
            step += 1
        x = traj[step]
        if not np.isfinite(x).all():
            where = "" if single else f", seed {seeds[np.isfinite(x).all(axis=1).argmin()]}"
            raise SimulationError(
                f"state became non-finite at knot {k} (t={k * schedule.dt:g}{where})"
            )

    # Y after fine step i is the running sum of h(X_0) dt, dW_0, ..., h(X_i) dt, dW_i.
    terms = np.empty((n, 2, S, d))
    terms[:, 0] = np.reshape(model.observation(traj[:-1].reshape(n * S, d)), (n, S, d)) * dt
    terms[:, 1] = dw
    y = np.cumsum(terms.reshape(2 * n, S, d), axis=0)[2 * substeps - 1 :: 2 * substeps]
    ys = np.zeros((S, K + 1, d))
    ys[:, 1:] = y.transpose(1, 0, 2)
    xs = np.ascontiguousarray(traj[::substeps].transpose(1, 0, 2))
    pairs = [(StatePath(schedule, xv), ObservationPath(schedule, yv)) for xv, yv in zip(xs, ys)]
    return pairs[0] if single else pairs


def observation_increments(path: ObservationPath, schedule: TimeSchedule) -> np.ndarray:
    """Increments Y_{tau_k} - Y_{tau_{k-1}}, k = 1..K, of a path that must be on `schedule`."""
    if path.schedule != schedule:
        raise ValueError(f"observation path is on schedule {path.schedule}, not on {schedule}")
    return np.diff(path.values, axis=0)


def subsample(path, stride: int):
    """Restrict a path to every stride-th knot (coarser schedule)."""
    if path.schedule.steps % stride:
        raise ValueError("stride must divide the number of steps")
    coarse = TimeSchedule(path.schedule.terminal, path.schedule.steps // stride)
    values = path.values[::stride]
    return type(path)(coarse, values)


# ---------------------------------------------------------------------------
# Serialization: CSV (t, X_1..X_d, Y_1..Y_d).
# ---------------------------------------------------------------------------


def paths_to_csv(state: StatePath, obs: ObservationPath) -> str:
    d = state.values.shape[1]
    return csv_table(
        ["t", *(f"X_{i + 1}" for i in range(d)), *(f"Y_{i + 1}" for i in range(d))],
        [state.schedule.knots, *state.values.T, *obs.values.T],
    )

