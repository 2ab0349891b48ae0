"""Filtering system definitions and the built-in benchmark registry.

A filtering system couples a hidden diffusion state

    dX_t = f(X_t) dt + g(X_t) dV_t

with an integrated observation process

    dY_t = h(X_t) dt + dW_t,   Y_0 = 0,

where V and W are independent standard Brownian motions and X_0 has
density sigma0.  Models carry their coefficient callbacks plus the
declared regularity constants consumed by :func:`diagnostics.validate_assumptions`.

Coefficient callbacks are batched: they take an ``(n, d)`` array of
points and return ``(n, d)`` (drift, observation), ``(n, d, d)``
(diffusion), or ``(n,)`` (initial density).  Callbacks must be pure and,
implicitly, twice continuously differentiable — the grid engine applies
second-order finite differences to them and this is assumed, not checked.

A constant diffusion is declared once instead, as one ``(d, d)`` matrix g
in ``diffusion_matrix``: assembly, path simulation and the particle
oracles then read that matrix and call no diffusion callback.  Every
registry model declares g = I this way; a state-dependent g(x) stays a
callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri


class RegistryError(KeyError):
    """Unknown benchmark model name."""


@dataclass(frozen=True)
class AssumptionProfile:
    """Declared regularity constants for one filtering system.

    lipschitz       global Lipschitz bound for the drift
    ellipticity     uniform lower eigenvalue bound for g g^T on the domain
    moment_order    highest checked moment of the initial density is 2n
    growth_order    m: every test function must satisfy |phi(x)| <= L (1 + |x|^{2m})
    growth_bound    the constant L of that envelope
    """

    lipschitz: float
    ellipticity: float
    moment_order: int
    growth_order: int
    growth_bound: float

    def __post_init__(self):
        for name in ("lipschitz", "ellipticity", "growth_bound"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.moment_order < 1:
            raise ValueError("moment_order must be a positive integer")
        if self.growth_order < 1:
            raise ValueError("growth_order must be a positive integer")


@dataclass(frozen=True)
class LinearSystem:
    """Matrices of a linear-Gaussian system: f = F x, g = Gamma, h = H x."""

    drift_matrix: np.ndarray
    diffusion_matrix: np.ndarray
    observation_matrix: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray


@dataclass(frozen=True, eq=False)
class FilterModel:
    """Coefficient bundle defining one filtering system.

    Immutable after construction; the callbacks must be pure.  A model
    equals only itself and hashes by identity, since its array fields have
    no single truth value.  The diffusion is either the callback g(x),
    `diffusion`, or a constant g declared as `diffusion_matrix`, a finite
    (d, d) array kept as a read-only copy.  When the matrix is declared,
    `diffusion` is never called and may be None.  ``diffusion_sq``
    recomputes a = g g^T on demand (grid code evaluates it once per node
    set and keeps the result, so no callback-level cache is needed).
    """

    name: str
    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Optional[Callable[[np.ndarray], np.ndarray]]
    observation: Callable[[np.ndarray], np.ndarray]
    initial_density: Callable[[np.ndarray], np.ndarray]
    assumptions: AssumptionProfile
    initial_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    linear: Optional[LinearSystem] = None
    sample_radius: float = 8.0
    diffusion_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError("only dimensions 1..3 are supported by the dense-grid path")
        if self.diffusion_matrix is None:
            if self.diffusion is None:
                raise ValueError("a model needs a diffusion callback or a diffusion_matrix")
            return
        g = np.array(self.diffusion_matrix, dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ValueError(f"diffusion_matrix must have shape ({self.dim}, {self.dim}), "
                             f"not {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("diffusion_matrix has a non-finite entry")
        g.flags.writeable = False
        object.__setattr__(self, "diffusion_matrix", g)

    @property
    def constant_diffusion_sq(self) -> Optional[np.ndarray]:
        """a = g g^T of a declared `diffusion_matrix`, (d, d); None when g varies with x."""
        g = self.diffusion_matrix
        return None if g is None else g @ g.T

    def diffusion_sq(self, points: np.ndarray) -> np.ndarray:
        """a(x) = g(x) g(x)^T evaluated at a batch of points, (n, d, d).

        A declared `diffusion_matrix` gives its one a, broadcast read-only over the batch.
        """
        points = np.asarray(points, dtype=float)
        a = self.constant_diffusion_sq
        if a is not None:
            return np.broadcast_to(a, (len(points), self.dim, self.dim))
        g = self.diffusion(points)
        return np.einsum("nij,nkj->nik", g, g)

    def sample_initial(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n samples from the initial density."""
        if self.initial_sampler is not None:
            return self.initial_sampler(rng, n)
        return self._rejection_sample(rng, n)

    def _rejection_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Envelope: uniform on the cube of half-width sample_radius, with the
        # density bound estimated from a coarse scan and inflated for safety.
        r = self.sample_radius
        axes = [np.linspace(-r, r, 101)] * self.dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        bound = 1.5 * float(np.max(self.initial_density(mesh))) + 1e-12
        out = np.empty((n, self.dim))
        filled = 0
        while filled < n:
            m = max(2 * (n - filled), 64)
            prop = rng.uniform(-r, r, size=(m, self.dim))
            keep = rng.uniform(0, bound, size=m) < self.initial_density(prop)
            take = min(int(keep.sum()), n - filled)
            out[filled : filled + take] = prop[keep][:take]
            filled += take
        return out


@dataclass(frozen=True)
class TestFunction:
    """A moment readout: phi(x) is the product of the coordinates x_i at `indices`.

    The 0-based indices are kept sorted, so () is 1, (i,) is x_i, (i, i) is
    x_i^2 and (i, j) is x_i x_j, and each readout has exactly one label.
    """

    indices: tuple = ()

    def __post_init__(self):
        indices = tuple(sorted(self.indices))
        if len(indices) > 2 or any(i < 0 for i in indices):
            raise ValueError(f"a readout reads at most two coordinates i >= 0, not {self.indices}")
        object.__setattr__(self, "indices", indices)

    @property
    def label(self) -> str:
        names = [f"x{i + 1}" for i in self.indices]
        if len(names) == 2 and names[0] == names[1]:
            return f"{names[0]}^2"
        return "*".join(names) or "1"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if not self.indices:
            return np.ones(points.shape[0])
        out = points[:, self.indices[0]]
        for i in self.indices[1:]:
            out = out * points[:, i]
        return out


ONE = TestFunction()


def coordinate(i: int = 0) -> TestFunction:
    """phi(x) = x_i (conditional-mean readout)."""
    return TestFunction((i,))


def squared_coordinate(i: int = 0) -> TestFunction:
    """phi(x) = x_i^2 (second-moment readout)."""
    return TestFunction((i, i))


def coordinate_product(i: int, j: int) -> TestFunction:
    """phi(x) = x_i x_j (covariance readout); the order of i and j does not matter."""
    return TestFunction((i, j))


def parse_test_function(label: str) -> TestFunction:
    """The readout a label names: x1, x2^2, x1*x3, ...

    Spaces around a factor and leading zeros are allowed, and the factors of
    a product may come in either order: x2*x1 and x1 * x02 both name x1*x2.
    Raises ValueError naming the label when it names no readout.
    """
    text = label.strip()
    factors = [text[:-2]] * 2 if text.endswith("^2") else text.split("*")
    tokens = [f.strip() for f in factors]
    if len(tokens) > 2 or not all(
        t[:1] == "x" and t[1:].isdecimal() and int(t[1:]) >= 1 for t in tokens
    ):
        raise ValueError(f"unknown test function label {text!r}; use x1, x2^2, x1*x2, ...")
    return TestFunction(tuple(int(t[1:]) - 1 for t in tokens))


def readout_index(labels: Sequence[str], label: str) -> int:
    """Position in a run's `labels` of the readout `label` names, in any spelling."""
    canonical = parse_test_function(label).label
    if canonical not in labels:
        raise ValueError(f"readout {label!r} was not recorded; the run has {', '.join(labels)}")
    return labels.index(canonical)


def check_count(name: str, value, least: int = 1) -> None:
    """Refuse a count that is not an integer >= least, naming the value."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


@dataclass(frozen=True)
class TimeSchedule:
    """Uniform partition of [0, T] into K steps of size dt = T/K.

    Knots are computed by index multiplication, (k*T)/K, never by
    accumulation, so tau_0 = 0 and tau_K = T exactly and increments
    equal dt up to one rounding ulp.
    """

    terminal: float
    steps: int

    def __post_init__(self):
        if not 0 < self.terminal < math.inf:
            raise ValueError(f"terminal time must be positive and finite, not {self.terminal!r}")
        check_count("steps", self.steps)

    @property
    def dt(self) -> float:
        return self.terminal / self.steps

    @property
    def knots(self) -> np.ndarray:
        out = np.arange(self.steps + 1) * self.terminal / self.steps
        out[-1] = self.terminal  # index multiplication can misround the endpoint
        return out


# ---------------------------------------------------------------------------
# Built-in benchmark registry.
# ---------------------------------------------------------------------------


def _neg_x(points):
    return -points


def _tanh_drift(points):
    return np.tanh(points)


def _identity_obs(points):
    return np.array(points, dtype=float)


def _cubic_obs(points):
    # Not points**3: numpy sends that to libm pow, which dominated particle-filter steps.
    return points * points * points


def _std_normal_density(points):
    d = points.shape[1]  # |x|^2 in one array, column by column as np.sum(x**2, axis=1) adds
    out = points[:, 0] * points[:, 0]
    for k in range(1, d):
        out += points[:, k] * points[:, k]
    out *= -0.5
    return np.divide(np.exp(out, out=out), (2 * math.pi) ** (d / 2), out=out)


def _std_normal_sampler(rng, n, d=1):
    # Inverse-CDF draw keeps registry sampling exact and reproducible.
    return ndtri(rng.random((n, d)))


def _unit_ou(d):
    """dX = -X dt + dV, dY = X dt + dW, X_0 ~ N(0, I) in d dimensions."""
    return LinearSystem(drift_matrix=-np.eye(d), diffusion_matrix=np.eye(d),
                        observation_matrix=np.eye(d), prior_mean=np.zeros(d), prior_cov=np.eye(d))


# name -> (drift, observation, linear system at dim d or None).  Every model has
# diffusion_matrix = I and a N(0, I) prior; linearNd is the linear1d row at dim 2 or 3.
# The cubic sensor's x^3 is its observation, not a test function, so the growth
# envelope for phi stays at order 2.
_REGISTRY = {
    "linear1d": (_neg_x, _identity_obs, _unit_ou),
    "linearNd": (_neg_x, _identity_obs, _unit_ou),
    "benes": (_tanh_drift, _identity_obs, None),
    "cubic_sensor": (_neg_x, _cubic_obs, None),
}
_REGISTRY_NAMES = tuple(_REGISTRY)


def builtin_model(name: str, dim: Optional[int] = None) -> FilterModel:
    """Look up a benchmark model by name.

    `dim` applies only to "linearNd" (2 or 3, default 2); the other models
    are one-dimensional.  Raises RegistryError listing the valid names when
    the name is unknown, and ValueError for a dim the model does not have.
    """
    if name not in _REGISTRY:
        raise RegistryError(
            f"unknown model {name!r}; valid names: {', '.join(_REGISTRY_NAMES)}"
        )
    if name == "linearNd":
        d = 2 if dim is None else int(dim)
        if not 2 <= d <= 3:
            raise ValueError("linearNd supports dim in {2, 3}")
    else:
        d = 1
        if dim not in (None, 1):
            raise ValueError(f"{name} is one-dimensional")

    drift, observation, linear = _REGISTRY[name]
    return FilterModel(
        name=name,
        dim=d,
        drift=drift,
        diffusion=None,
        observation=observation,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(
            lipschitz=1.0, ellipticity=1.0, moment_order=4, growth_order=2, growth_bound=1.0
        ),
        initial_sampler=partial(_std_normal_sampler, d=d),
        linear=None if linear is None else linear(d),
        diffusion_matrix=np.eye(d),
    )
