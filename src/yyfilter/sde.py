"""Euler-Maruyama simulation of state and observation paths.

Paths are recorded on the knots of a TimeSchedule; integration runs on a
finer internal mesh of `substeps` sub-intervals per knot interval, and
the observation integral of h is accumulated at that fine resolution so
coarse recording does not bias it.  All randomness comes from a
counter-based Philox stream keyed by the seed, with every increment for
a path drawn in a single upfront call, so identical inputs give
bit-identical paths regardless of execution order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .models import FilterModel, TimeSchedule, as_points
from .tables import csv_table


class SimulationError(RuntimeError):
    """State integration produced a non-finite value."""


PATH_MAGIC = b"YYPATH1"


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
    seed: int = 0,
) -> tuple[StatePath, ObservationPath]:
    """Simulate one (state, observation) pair on the schedule.

    X_0 is drawn from the model's initial sampler; X advances by
    Euler-Maruyama on dt/substeps; Y accumulates h(X) dt plus Brownian
    increments at the fine resolution and is recorded at knots.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    d = model.dim
    K = schedule.steps
    dt = schedule.dt / substeps
    sq = np.sqrt(dt)

    rng = _rng_for(seed)
    x = model.sample_initial(rng, 1)[0]
    dv = rng.standard_normal((K * substeps, d)) * sq
    dw = rng.standard_normal((K * substeps, d)) * sq

    xs = np.empty((K + 1, d))
    ys = np.zeros((K + 1, d))
    xs[0] = x
    y = np.zeros(d)
    step = 0
    for k in range(1, K + 1):
        for _ in range(substeps):
            pt = x[None, :]
            y = y + model.observation(pt)[0] * dt + dw[step]
            drift = model.drift(pt)[0]
            gmat = model.diffusion(pt)[0]
            x = x + drift * dt + gmat @ dv[step]
            step += 1
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"state became non-finite at knot {k} (t={k * schedule.dt:g})")
        xs[k] = x
        ys[k] = y
    return StatePath(schedule, xs), ObservationPath(schedule, ys)


def observation_increments(path: ObservationPath) -> np.ndarray:
    """Increments Y_{tau_k} - Y_{tau_{k-1}} for k = 1..K, shape (K, d)."""
    return np.diff(path.values, axis=0)


def subsample(path, stride: int):
    """Restrict a path to every stride-th knot (coarser schedule)."""
    if path.schedule.steps % stride:
        raise ValueError("stride must divide the number of steps")
    coarse = TimeSchedule(path.schedule.terminal, path.schedule.steps // stride)
    values = path.values[::stride]
    return type(path)(coarse, values)


# ---------------------------------------------------------------------------
# Serialization: CSV (t, X_1..X_d, Y_1..Y_d) and a little-endian binary cache.
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


def paths_to_binary(state: StatePath, obs: ObservationPath) -> bytes:
    d = state.values.shape[1]
    K = state.schedule.steps
    head = PATH_MAGIC + struct.pack("<IId", d, K, state.schedule.terminal)
    body = (
        state.schedule.knots.astype("<f8").tobytes()
        + state.values.astype("<f8").tobytes()
        + obs.values.astype("<f8").tobytes()
    )
    return head + body


def paths_from_binary(blob: bytes) -> tuple[StatePath, ObservationPath]:
    if blob[: len(PATH_MAGIC)] != PATH_MAGIC:
        raise ValueError("not a path cache: bad magic header")
    off = len(PATH_MAGIC)
    d, K, terminal = struct.unpack_from("<IId", blob, off)
    off += struct.calcsize("<IId")
    n = K + 1
    knots = np.frombuffer(blob, "<f8", n, off)
    off += 8 * n
    xs = np.frombuffer(blob, "<f8", n * d, off).reshape(n, d).copy()
    off += 8 * n * d
    ys = np.frombuffer(blob, "<f8", n * d, off).reshape(n, d).copy()
    schedule = TimeSchedule(terminal, K)
    del knots
    return StatePath(schedule, xs), ObservationPath(schedule, ys)
