"""Online stage: the per-knot recursion of semigroup propagation,
exponential observation updates, and normalized readouts.

Each step advances the field by the deterministic semigroup over one
knot interval, multiplies by exp(h^T dY), records the ratio estimates,
and renormalizes so the stored mantissa field always has unit mass (the
true scale lives in log_scale).  Estimates are recorded at tau_k right
after the exponential update; the ratio makes them invariant to any
positive rescaling of the initial density.  The update reads h from the
generator's node table, so the loop makes no model callback.  A batch of
S observation paths runs as one (N, S) field with a log-scale per column;
a single path runs through the same loop as an (N,) field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .models import FilterModel, TestFunction, TimeSchedule
from .pde import (
    DensityField,
    DiscreteGenerator,
    Grid,
    assemble_generator,
    discretize_initial,
    exp_update,
    integrate,
    propagate,
)
from .sde import ObservationPath, observation_increments
from .tables import csv_table


class MassCollapseError(RuntimeError):
    """Field mass underflowed or clamping removed too much mass."""


# Largest share of the field mass one propagation step may clamp away.
CLAMP_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FilterOutput:
    """Per-knot estimates and diagnostics of one filter run."""

    schedule: TimeSchedule
    labels: tuple
    estimates: np.ndarray  # (K+1, n_phi)
    mass_mantissa: np.ndarray  # (K+1,)
    mass_log_scale: np.ndarray  # (K+1,)
    clamped_mass: np.ndarray  # (K+1,)
    min_value: np.ndarray  # (K+1,)

    def column(self, label: str) -> np.ndarray:
        return self.estimates[:, self.labels.index(label)]

    def to_csv(self) -> str:
        return csv_table(
            ["t", *self.labels, "mass_log_scale", "clamped_mass"],
            [self.schedule.knots, *self.estimates.T, self.mass_log_scale, self.clamped_mass],
        )


def estimate(field: DensityField, phi: TestFunction) -> float:
    """Normalized readout: integral of phi against the field over its mass.

    Both integrals share the field's log_scale, so the ratio is a plain
    mantissa division.
    """
    mass = integrate(field)
    if mass <= 0:
        raise MassCollapseError("field has zero mass; estimate undefined")
    return integrate(field, phi(field.grid.coords)) / mass


def run_filter(
    model: FilterModel,
    grid: Grid,
    schedule: TimeSchedule,
    obs: Union[ObservationPath, Sequence[ObservationPath]],
    test_functions: Sequence[TestFunction],
    substeps: int = 4,
    generator: Optional[DiscreteGenerator] = None,
    field_hook: Optional[Callable[[int, str, DensityField], None]] = None,
) -> Union[FilterOutput, list[FilterOutput]]:
    """Run the two-stage recursion over the whole observation path.

    For k = 1..K: propagate by dt, multiply by exp(h^T dY_k), record the
    ratio estimates, and fold the mantissa mass into log_scale.  Row 0
    holds the initial-density readouts.  `field_hook(k, stage, field)`,
    if given, is called with stage "propagated" (the pre-update field at
    tau_k) and "updated" (post-update); it must not mutate the field.

    `obs` may also be a sequence of S paths: they advance together as one
    (N, S) field, the hook sees that batched field, and the result is one
    FilterOutput per path, each bit-identical to running that path alone.

    Raises ValueError if a path is on another schedule or `generator` was
    assembled on another grid, and MassCollapseError if the mantissa mass
    drops below 1e-300 before renormalization or if a propagation step
    clamps more than CLAMP_TOLERANCE of the field mass.
    """
    single = isinstance(obs, ObservationPath)
    paths = [obs] if single else list(obs)
    increments = np.stack([observation_increments(p, schedule) for p in paths], axis=1)  # K, S, d
    gen = generator if generator is not None else assemble_generator(model, grid)
    if str(gen.grid) != str(grid):
        raise ValueError(f"generator was assembled on {gen.grid}, not on the filter's {grid}")
    field = discretize_initial(model, grid)
    if not single:  # one column per path
        S = len(paths)
        field = DensityField(
            grid, np.repeat(field.values[:, None], S, axis=1), np.zeros(S), np.zeros(S)
        )
    w = grid.trap_weights
    phi_nodes = [np.asarray(phi(grid.coords), dtype=float) for phi in test_functions]

    K = schedule.steps
    dt = schedule.dt
    # indexed [knot, path, ...] in the loop; split into one array per path at the end
    est = np.empty((K + 1, len(paths), len(test_functions)))
    mass_m = np.empty((K + 1, len(paths)))
    mass_ls = np.empty((K + 1, len(paths)))
    clamped = np.zeros((K + 1, len(paths)))
    min_val = np.zeros((K + 1, len(paths)))

    def at(k, s):
        path = "" if single else f", path {s}"
        return (f"at knot {k} (t={k * dt:g}, dt={dt:g}, substeps={substeps}{path}) "
                f"on a mesh with dx={grid.spacing:g}")

    def record(k, fld):
        # Path by path, on contiguous rows: a gemv over the batch would sum
        # in another order than the one-path readout.
        for s, v in enumerate([fld.values] if single else np.ascontiguousarray(fld.values.T)):
            m = float(np.dot(w, v))
            if m < 1e-300:
                raise MassCollapseError(f"field mass collapsed {at(k, s)}")
            mass_m[k, s] = m
            for j, pv in enumerate(phi_nodes):
                est[k, s, j] = float(np.dot(w, pv * v)) / m
        mass_ls[k], clamped[k] = fld.log_scale, fld.clamped_mass
        min_val[k] = fld.values.min(axis=0)
        return m if single else mass_m[k]

    mass = record(0, field)

    for k in range(1, K + 1):
        field = propagate(gen, field, dt, substeps)
        over = field.clamped_mass > CLAMP_TOLERANCE * mass
        if np.count_nonzero(over):
            s = np.argmax(over)
            raise MassCollapseError(
                f"clamped negative mass {np.ravel(field.clamped_mass)[s]:.3e} exceeds "
                f"{CLAMP_TOLERANCE:g} of field mass {at(k, s)}"
            )
        if field_hook is not None:
            field_hook(k, "propagated", field)
        field = exp_update(field, gen.observation, increments[k - 1])
        if field_hook is not None:
            field_hook(k, "updated", field)
        mass = record(k, field)
        field = DensityField(
            grid, field.values / mass, field.log_scale + np.log(mass), field.clamped_mass
        )
        mass = 1.0

    est, mass_m, mass_ls, clamped, min_val = (
        np.ascontiguousarray(np.swapaxes(a, 0, 1))
        for a in (est, mass_m, mass_ls, clamped, min_val)
    )
    labels = tuple(phi.label for phi in test_functions)
    outs = [
        FilterOutput(schedule, labels, est[s], mass_m[s], mass_ls[s], clamped[s], min_val[s])
        for s in range(len(paths))
    ]
    return outs[0] if single else outs
