"""Offline grid stage: spatial discretization, generator assembly, and
the semigroup / exponential-update primitives.

The truncation domain is the cube [-R, R]^d with zero Dirichlet boundary
(it contains the ball of radius R; reported radii are inscribed-ball
radii).  The generator discretizes

    A u = 1/2 sum_ij d2(a^ij u)/dx_i dx_j - sum_i d(f_i u)/dx_i - 1/2 |h|^2 u

with second-order central differences in conservative form: derivatives
act on the products a^ij u and f_i u, evaluated at the source node of
each stencil entry; only nonzero couplings are stored (under a diagonal
diffusion, 7 of the 19 stencil entries of a 3D interior row), and h is
kept at the nodes for the exponential update.  Time stepping is
Crank-Nicolson, one stage loop for every dimension.  Its implicit side
I - c A depends only on the generator and on c = dt / (2 substeps), so it
is prepared once per generator and step size, on first use: in 1D an LU
factorization of the tridiagonal matrix (LAPACK ?gttrf), in 2D/3D the
left-hand-side CSR matrix and its Jacobi preconditioner for BiCGSTAB at
relative residual 1e-10.

Fields carry a log-scale factor: a DensityField represents
exp(log_scale) * values so the online loop never underflows; integrals
read the stored values.  Renormalization policy lives in the filter
loop, not here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, bicgstab

from .models import FilterModel
from .tables import csv_table


class AssemblyError(ValueError):
    """Generator assembly refused (degenerate diffusion at a node)."""


class SolverError(RuntimeError):
    """Linear solve failed or produced non-finite values."""


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid on [-R, R]^d.

    Nodes are stored flat in row-major order; `coords` is (N, d),
    `trap_weights` holds the tensor trapezoid quadrature weight of each
    node, and `boundary_mask` marks nodes with any coordinate at +-R.
    """

    dim: int
    radius: float
    points_per_axis: int
    spacing: float
    axis: np.ndarray
    coords: np.ndarray
    boundary_mask: np.ndarray
    trap_weights: np.ndarray
    node_radii: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def __str__(self) -> str:
        """The grid's defining parameters; two grids with equal strings are equal."""
        return f"grid(dim={self.dim}, radius={self.radius!r}, points={self.points_per_axis})"


def build_grid(dim: int, radius: float, points: int) -> Grid:
    """Uniform tensor grid with M nodes per axis, M odd so the origin is a node."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if points < 3:
        raise ValueError("points per axis must be >= 3")
    if points % 2 == 0:
        raise ValueError("points per axis must be odd so the origin is a node")

    axis = np.linspace(-radius, radius, points)
    axis[(points - 1) // 2] = 0.0  # exact origin; endpoints are exact already
    spacing = 2 * radius / (points - 1)

    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    coords = np.stack(mesh, axis=-1).reshape(-1, dim)

    idx = np.arange(points)
    edge = (idx == 0) | (idx == points - 1)
    bmask = np.zeros((points,) * dim, dtype=bool)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = points
        bmask |= edge.reshape(shape)

    w1 = np.full(points, spacing)
    w1[[0, -1]] = spacing / 2
    w = w1
    for _ in range(dim - 1):
        w = np.multiply.outer(w, w1)

    return Grid(
        dim=dim,
        radius=float(radius),
        points_per_axis=points,
        spacing=spacing,
        axis=axis,
        coords=coords,
        boundary_mask=bmask.reshape(-1),
        trap_weights=w.reshape(-1),
        node_radii=np.linalg.norm(coords, axis=1),
    )


def mollifier(grid: Grid) -> np.ndarray:
    """Smooth cutoff: 1 on |x| <= R - 1/R, 0 on |x| >= R, C^2 smoothstep between.

    The transition uses s(t) = t^3 (10 - 15 t + 6 t^2) of the normalized
    distance to the boundary; values lie in [0, 1].
    """
    R = grid.radius
    if R <= 1:
        raise ValueError("mollifier requires R > 1 so that R - 1/R > 0")
    t = np.clip((R - grid.node_radii) * R, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


@dataclass(frozen=True)
class DensityField:
    """Grid-sampled nonnegative field representing exp(log_scale) * values.

    `values` is (N,) for one field, or (N, S) for a batch of S fields, one
    per column, whose `log_scale` and `clamped_mass` are then (S,) arrays.
    `clamped_mass` records the negative mass removed by the most recent
    propagation step (zero for freshly constructed fields).
    """

    grid: Grid
    values: np.ndarray
    log_scale: float = 0.0
    clamped_mass: float = 0.0

    def columns(self) -> list:
        """The S single fields of a batch, each with contiguous values."""
        rows = np.ascontiguousarray(self.values.T)
        return [
            DensityField(self.grid, v, float(ls), float(cm))
            for v, ls, cm in zip(rows, self.log_scale, self.clamped_mass)
        ]

    def to_csv(self) -> str:
        return csv_table(
            [*(f"x_{i + 1}" for i in range(self.grid.dim)), "value"],
            [*self.grid.coords.T, self.values],
            comment=f"log_scale={float(self.log_scale)!r}",
        )


def discretize_initial(model: FilterModel, grid: Grid) -> DensityField:
    """Initial field sigma0 * S_R on the grid, zero on the boundary."""
    vals = np.asarray(model.initial_density(grid.coords), dtype=float) * mollifier(grid)
    vals[grid.boundary_mask] = 0.0
    if not np.any(vals > 0):
        raise ValueError(
            "initial density vanishes on the whole grid; its support lies "
            "outside the domain — increase the radius R"
        )
    return DensityField(grid, vals, 0.0)


class _CNSystem(NamedTuple):
    """The implicit side I - c A of a Crank-Nicolson stage, ready to solve.

    `solve(b, x0)` solves (I - c A) x = b for b of shape (N,) or (N, S),
    one column per field, starting from x0 where the solver iterates.
    """

    c: float
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiscreteGenerator:
    """Sparse discretization of the per-step evolution operator.

    Rows for boundary nodes are zero (Dirichlet).  `observation` is the
    model's h at the nodes, (N, d).  `propagate` prepares the Crank-Nicolson
    system for a step size on first use and keeps it in `_cn`, one slot
    holding the last step size, so a run at fixed dt factors once and the
    factors die with the generator.
    """

    grid: Grid
    matrix: sp.csr_matrix
    observation: np.ndarray
    _cn: Optional[_CNSystem] = dataclass_field(default=None, init=False, repr=False, compare=False)


def assemble_generator(model: FilterModel, grid: Grid) -> DiscreteGenerator:
    """Assemble the conservative-form generator on interior nodes.

    The canonical CSR result stores only the nonzero stencil couplings:
    7 of a 3D interior row's 19 under a diagonal diffusion.  Refuses
    assembly if the diffusion matrix a = g g^T is degenerate (smallest
    eigenvalue <= 1e-14) at any node.
    """
    d = grid.dim
    M = grid.points_per_axis
    N = grid.n_nodes
    dx = grid.spacing

    a = model.diffusion_sq(grid.coords)  # (N, d, d)
    f = np.asarray(model.drift(grid.coords), dtype=float)  # (N, d)
    h = np.asarray(model.observation(grid.coords), dtype=float)  # (N, d)
    if d == 1:
        eig_min = a[:, 0, 0]
    else:
        eig_min = np.linalg.eigvalsh(a)[:, 0]
    bad = np.where(eig_min <= 1e-14)[0]
    if bad.size:
        node = grid.coords[bad[0]]
        raise AssemblyError(
            f"diffusion matrix is degenerate at node {node} "
            f"(min eigenvalue {eig_min[bad[0]]:.3g}); assembly refused"
        )

    strides = np.array([M**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    interior = np.where(grid.interior_mask)[0]
    a_diag = a[:, np.arange(d), np.arange(d)]  # (N, d)

    # Every interior row has the same stencil: the offsets e in {-1, 0, 1}^d
    # with at most two nonzeros.  In lexicographic order their columns
    # interior + strides . e ascend (M >= 3), so each entry fills one
    # column of an (n_interior, n_stencil) block of canonical CSR rows.
    offsets = itertools.product((-1, 0, 1), repeat=d)
    stencil = np.array([e for e in offsets if np.count_nonzero(e) <= 2])  # (n_stencil, d)
    data = np.empty((interior.size, len(stencil)))
    for k, e in enumerate(stencil):
        nb = interior + strides @ e
        axes = np.flatnonzero(e)
        if axes.size == 0:
            # Diagonal: -sum_i a^ii(x)/dx^2 - |h(x)|^2/2.
            diag = -np.sum(a_diag[interior], axis=1) / dx**2
            data[:, k] = diag - 0.5 * np.sum(h[interior] ** 2, axis=1)
        elif axes.size == 1:
            # Axis neighbors: second-difference of a^ii u plus central drift flux.
            (ax,) = axes
            data[:, k] = a[nb, ax, ax] / (2 * dx**2) - e[ax] * f[nb, ax] / (2 * dx)
        else:
            # Cross terms i < j: full-weight mixed second difference of a^ij u
            # (the 1/2 prefactor cancels against the symmetric (j, i) term).
            i, j = axes
            data[:, k] = e[i] * e[j] * a[nb, i, j] / (4 * dx**2)

    # A coefficient that is exactly 0.0, such as every mixed difference of a
    # diagonal diffusion, is not stored.  Boundary rows stay empty.
    keep = data != 0.0
    indptr = np.zeros(N + 1, dtype=np.int64)
    indptr[interior + 1] = np.count_nonzero(keep, axis=1)
    cols = (interior[:, None] + stencil @ strides)[keep]
    mat = sp.csr_matrix((data[keep], cols, np.cumsum(indptr)), shape=(N, N))
    return DiscreteGenerator(grid=grid, matrix=mat, observation=h)


def _cn_system(gen: DiscreteGenerator, c: float) -> _CNSystem:
    """The prepared I - c A of `gen`, rebuilt only when c differs from the cached one.

    The only place where the grid's dimension picks the solver.
    """
    cn = gen._cn
    if cn is not None and cn.c == c:
        return cn
    A = gen.matrix
    if gen.grid.dim == 1:
        *lu, info = lapack.dgttrf(-c * A.diagonal(-1), 1.0 - c * A.diagonal(), -c * A.diagonal(1))
        if info > 0:
            raise SolverError(f"Crank-Nicolson matrix is singular (dgttrf info={info})")

        def solve(b, x0):
            return lapack.dgttrs(*lu, b, overwrite_b=1)[0]
    else:
        lhs = (sp.identity(A.shape[0], format="csr") - c * A).tocsr()
        lhs_diag = lhs.diagonal()
        if not np.all(lhs_diag):
            raise SolverError("Crank-Nicolson matrix has a zero diagonal entry")
        inv_diag = 1.0 / lhs_diag
        precond = LinearOperator(lhs.shape, matvec=lambda x: inv_diag * x)

        def solve(b, x0):
            rhs = np.ascontiguousarray(b.reshape(len(b), -1).T)
            starts = np.ascontiguousarray(x0.reshape(len(x0), -1).T)
            for s, (col, start) in enumerate(zip(rhs, starts)):
                # looked up at call time: a wrapper on yyfilter.pde.bicgstab sees every solve
                x, info = bicgstab(lhs, col, x0=start, rtol=1e-10, atol=0.0, M=precond,
                                   maxiter=2000)
                if info != 0:
                    raise SolverError(
                        f"implicit solve did not converge (bicgstab info={info}, "
                        f"iteration budget 2000)"
                    )
                rhs[s] = x
            return rhs.T.reshape(b.shape)
    cn = _CNSystem(c, solve)
    object.__setattr__(gen, "_cn", cn)
    return cn


def propagate(
    gen: DiscreteGenerator, field: DensityField, dt: float, substeps: int = 1
) -> DensityField:
    """Advance a field by dt with Crank-Nicolson over `substeps` stages.

    Solves (I - c A) v_{j+1} = (I + c A) v_j with c = dt / (2 substeps),
    reusing the generator's prepared I - c A while c stays the same.
    Negative undershoot is clamped to zero after the final stage and the
    removed mass is recorded on the result's `clamped_mass`.  A batch
    field takes one banded solve for all its columns in 1D and one
    BiCGSTAB solve per column in 2D/3D.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    cn = _cn_system(gen, dt / (2 * substeps))
    v = field.values.astype(float, copy=True)
    for _ in range(substeps):
        v = cn.solve(v + cn.c * (gen.matrix @ v), v)
    if not np.isfinite(v).all():
        raise SolverError("propagation produced non-finite values")
    w = field.grid.trap_weights
    clamped = []
    for col in [v] if v.ndim == 1 else v.T:  # per column: each sum in its one-field order
        neg = col < 0
        clamped.append(float(-np.sum(col[neg] * w[neg])) if neg.any() else 0.0)
        col[neg] = 0.0
    v[field.grid.boundary_mask] = 0.0
    return DensityField(
        field.grid, v, field.log_scale, np.array(clamped) if v.ndim == 2 else clamped[0]
    )


def exp_update(field: DensityField, h: np.ndarray, dy: np.ndarray) -> DensityField:
    """Multiply the field by exp(h(x)^T dy), rescaled to avoid overflow.

    `h` is the (N, d) table of h at the nodes, `DiscreteGenerator.observation`.
    The maximum of the exponent over the field's support moves into
    log_scale, so the stored values never exceed their previous size.  A
    batch field takes one increment per column, `dy` of shape (S, d).
    """
    cols = field.values.reshape(len(field.values), -1)
    dys = np.asarray(dy, dtype=float).reshape(cols.shape[1], -1)
    if not np.isfinite(dys).all():
        raise ValueError("observation increment must be finite")
    # For d > 1 a gemm over the batch sums h^T dy in another order than the
    # one-field gemv, so the exponent is built column by column.
    expo = h @ dys.T if h.shape[1] == 1 else np.column_stack([h @ y for y in dys])
    shift = np.where(cols > 0, expo, -np.inf).max(axis=0)
    shift[shift == -np.inf] = 0.0  # no support: no shift
    vals = (cols * np.exp(expo - shift)).reshape(field.values.shape)
    shift = shift.reshape(field.values.shape[1:])
    return DensityField(field.grid, vals, field.log_scale + shift, field.clamped_mass)


def integrate(field: DensityField, weight: Optional[np.ndarray] = None) -> float:
    """Trapezoid integral of weight * values over the grid, for one field.

    `weight` holds one value per node (None: constant 1).  The field's
    log_scale is not applied, so a ratio of two integrals needs none.
    """
    values = field.values if weight is None else weight * field.values
    return float(np.dot(field.grid.trap_weights, values))
