"""Euler-Maruyama simulation of state and observation paths.

Paths are recorded on the knots of a TimeSchedule; integration runs on a
finer internal mesh of `substeps` sub-intervals per knot interval, and
the observation integral of h is accumulated at that fine resolution so
coarse recording does not bias it.  All randomness comes from a
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


@dataclass(frozen=True)
class StatePath:
    schedule: TimeSchedule
    values: np.ndarray  # (K+1, d)


@dataclass(frozen=True)
class ObservationPath:
    schedule: TimeSchedule
    values: np.ndarray  # (K+1, d), values[0] == 0


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
    Euler-Maruyama on dt/substeps; Y accumulates h(X) dt plus Brownian
    increments at the fine resolution and is recorded at knots.  Given a
    sequence of seeds, the S states advance together as one (S, d) array
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

    x = np.empty((len(seeds), d))
    dv = np.empty((n, len(seeds), d))
    dw = np.empty((n, len(seeds), d))
    for s, sd in enumerate(seeds):
        rng = _rng_for(sd)
        x[s] = model.sample_initial(rng, 1)[0]
        dv[:, s] = rng.standard_normal((n, d)) * sq
        dw[:, s] = rng.standard_normal((n, d)) * sq

    xs = np.empty((len(seeds), K + 1, d))
    ys = np.zeros((len(seeds), K + 1, d))
    xs[:, 0] = x
    y = np.zeros_like(x)
    step = 0
    for k in range(1, K + 1):
        for _ in range(substeps):
            y = y + model.observation(x) * dt + dw[step]
            x = x + model.drift(x) * dt + (model.diffusion(x) @ dv[step, :, :, None])[..., 0]
            step += 1
        if not np.isfinite(x).all():
            where = "" if single else f", seed {seeds[np.isfinite(x).all(axis=1).argmin()]}"
            raise SimulationError(
                f"state became non-finite at knot {k} (t={k * schedule.dt:g}{where})"
            )
        xs[:, k] = x
        ys[:, k] = y
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


def paths_from_csv(text: str) -> tuple[StatePath, ObservationPath]:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    d = (len(lines[0].split(",")) - 1) // 2
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    K = data.shape[0] - 1
    schedule = TimeSchedule(float(data[-1, 0]), K)
    return (
        StatePath(schedule, data[:, 1 : 1 + d]),
        ObservationPath(schedule, data[:, 1 + d : 1 + 2 * d]),
    )
