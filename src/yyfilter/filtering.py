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

from .models import FilterModel, TestFunction, TimeSchedule, readout_index
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
from .sde import ObservationPath, as_batch, observation_increments
from .tables import csv_table


class MassCollapseError(RuntimeError):
    """Field mass underflowed or clamping removed too much mass."""


# Largest share of the field mass one propagation step may clamp away.
CLAMP_TOLERANCE = 1e-8

# Crank-Nicolson stages per knot interval when the caller names none.
DEFAULT_SUBSTEPS = 4


@dataclass(frozen=True)
class FilterOutput:
    """Per-knot estimates and diagnostics of one filter run."""

    schedule: TimeSchedule
    labels: tuple
    estimates: np.ndarray  # (K+1, n_phi)
    mass_mantissa: np.ndarray  # (K+1,)
    mass_log_scale: np.ndarray  # (K+1,)
    clamped_mass: np.ndarray  # (K+1,)

    def column(self, label: str) -> np.ndarray:
        return self.estimates[:, readout_index(self.labels, label)]

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
    substeps: int = DEFAULT_SUBSTEPS,
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

    Raises ValueError if the batch is empty, a path is on another schedule or
    `generator` was assembled on another grid, and MassCollapseError if the mantissa mass
    drops below 1e-300 before renormalization or if a propagation step
    clamps more than CLAMP_TOLERANCE of the field mass.
    """
    single, paths = as_batch(obs, ObservationPath, "observation paths")
    increments = np.stack([observation_increments(p, schedule) for p in paths], axis=1)  # K, S, d
    gen = generator if generator is not None else assemble_generator(model, grid)
    if str(gen.grid) != str(grid):
        raise ValueError(f"generator was assembled on {gen.grid}, not on the filter's {grid}")
    field = discretize_initial(model, grid)
    S = len(paths)
    if not single:  # one column per path
        field = DensityField(
            grid, np.repeat(field.values[:, None], S, axis=1), np.zeros(S), np.zeros(S)
        )
    phi_nodes = [np.asarray(phi(grid.coords), dtype=float) for phi in test_functions]

    K = schedule.steps
    dt = schedule.dt
    # one entry per knot in the loop; split into one array per path at the end
    est, mass_m, mass_ls, clamped = [], [], [], []

    def at(k, s):
        path = "" if single else f", path {s}"
        return (f"at knot {k} (t={k * dt:g}, dt={dt:g}, substeps={substeps}{path}) "
                f"on a mesh with dx={grid.spacing:g}")

    any_of = bool if single else np.any  # a check reads a scalar on one path

    def record(k, fld):
        m = integrate(fld)
        low = m < 1e-300
        if any_of(low):
            raise MassCollapseError(f"field mass collapsed {at(k, np.argmax(low))}")
        mass_m.append(m)
        est.append([integrate(fld, pv) / m for pv in phi_nodes])
        mass_ls.append(fld.log_scale)
        clamped.append(fld.clamped_mass)
        return m

    mass = record(0, field)
    h = gen.observation
    for k in range(1, K + 1):
        field = propagate(gen, field, dt, substeps)
        over = field.clamped_mass > CLAMP_TOLERANCE * mass
        if any_of(over):
            s = np.argmax(over)
            raise MassCollapseError(
                f"clamped negative mass {np.ravel(field.clamped_mass)[s]:.3e} exceeds "
                f"{CLAMP_TOLERANCE:g} of field mass {at(k, s)}"
            )
        if field_hook is not None:
            field_hook(k, "propagated", field)
        field = exp_update(field, h, increments[k - 1])
        if field_hook is not None:
            field_hook(k, "updated", field)
        mass = record(k, field)
        field = DensityField(
            grid, field.values / mass, field.log_scale + np.log(mass), field.clamped_mass
        )
        mass = 1.0

    est = np.reshape(est, (K + 1, len(test_functions), S)).transpose(2, 0, 1).copy()
    mass_m, mass_ls, clamped = (
        np.reshape(a, (K + 1, S)).T.copy() for a in (mass_m, mass_ls, clamped)
    )
    labels = tuple(phi.label for phi in test_functions)
    outs = [
        FilterOutput(schedule, labels, est[s], mass_m[s], mass_ls[s], clamped[s])
        for s in range(S)
    ]
    return outs[0] if single else outs
