"""Grid-based nonlinear filtering toolkit.

Two-stage scheme: an offline Kolmogorov-type semigroup on a truncated
domain, applied online between exponential observation updates, with
Kalman / particle / Monte-Carlo baselines and a diagnostics harness for
convergence and regularity checks.
"""

__version__ = "0.1.0"

from .models import (
    AssumptionProfile,
    FilterModel,
    TestFunction,
    TimeSchedule,
    builtin_model,
    coordinate,
    coordinate_product,
    squared_coordinate,
    validate_assumptions,
)
from .pde import (
    DensityField,
    DiscreteGenerator,
    Grid,
    assemble_generator,
    build_grid,
    discretize_initial,
    exp_update,
    integrate,
    mollifier,
    propagate,
)
from .filtering import FilterOutput, estimate, run_filter
from .sde import ObservationPath, StatePath, observation_increments, simulate
from .baselines import bootstrap_pf, kalman_filter, ks_monte_carlo
from .diagnostics import (
    SweepResult,
    convergence_sweep,
    exp_moment_step_check,
    l4_stability_check,
    radius_sweep,
    tail_mass,
)
