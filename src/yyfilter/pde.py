"""Offline grid stage: spatial discretization, generator assembly, and
the semigroup / exponential-update primitives.

The truncation domain is the cube [-R, R]^d with zero Dirichlet boundary
(it contains the ball of radius R; reported radii are inscribed-ball
radii).  The generator discretizes

    A u = 1/2 sum_ij d2(a^ij u)/dx_i dx_j - sum_i d(f_i u)/dx_i - 1/2 |h|^2 u

with second-order central differences in conservative form: derivatives
act on the products a^ij u and f_i u, evaluated at the source node of
each stencil entry; the generator is stored as one band per coupled stencil
offset (scipy DIA; 7 of the 19 offsets in 3D under a diagonal diffusion),
and h is kept at the nodes for the exponential update.  A declared constant
diffusion matrix has a read once, not per node.  Time stepping is
Crank-Nicolson, one stage loop for every dimension, one solve per stage:
(I - c A)^{-1} (I + c A) v = y - v with (I - c A)/2 y = v (implicit midpoint;
halving the system is exact, so y is twice the midpoint bit for bit).
(I - c A)/2 depends only on the generator and on c = dt / (2 substeps), so it
is prepared once per generator and step size, on first use: in 1D an LU
factorization of the tridiagonal matrix (LAPACK ?gttrf), in 2D/3D its bands
and their Jacobi preconditioner for BiCGSTAB at relative residual 5e-11.

Fields carry a log-scale factor: a DensityField (a named tuple, built three
times a knot) represents exp(log_scale) * values so the online loop never
underflows; integrals read the stored values.  Renormalization policy lives
in the filter loop, not here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import LinearOperator, bicgstab

from .models import FilterModel, check_count


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
    def n_nodes(self) -> int:
        return self.points_per_axis**self.dim

    def __str__(self) -> str:
        """The grid's defining parameters; two grids with equal strings are equal."""
        return f"grid(dim={self.dim}, radius={self.radius!r}, points={self.points_per_axis})"


def build_grid(dim: int, radius: float, points: int) -> Grid:
    """Uniform tensor grid with M nodes per axis, M odd so the origin is a node.

    Each array is filled in place, one axis at a time from broadcast views of
    `axis`; node radii sum x_k x_k in axis order, as np.linalg.norm does.
    """
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if not 0 < 2 * radius < np.inf:  # the axis spans 2R, which must be finite too
        raise ValueError(f"radius must be positive and finite, not {radius!r}")
    check_count("points per axis", points, 3)
    if points % 2 == 0:
        raise ValueError("points per axis must be odd so the origin is a node")

    axis = np.linspace(-radius, radius, points)
    axis[(points - 1) // 2] = 0.0  # exact origin; endpoints are exact already
    spacing = 2 * radius / (points - 1)

    idx = np.arange(points)
    edge = (idx == 0) | (idx == points - 1)
    coords = np.empty((points,) * dim + (dim,))
    radii = np.zeros((points,) * dim)
    bmask = np.zeros((points,) * dim, dtype=bool)
    for ax in range(dim):
        shape = [1] * dim
        shape[ax] = points
        x = axis.reshape(shape)
        coords[..., ax] = x
        radii += x * x
        bmask |= edge.reshape(shape)
    np.sqrt(radii, out=radii)

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
        coords=coords.reshape(-1, dim),
        boundary_mask=bmask.reshape(-1),
        trap_weights=w.reshape(-1),
        node_radii=radii.reshape(-1),
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
    ramp = (t > 0.0) & (t < 1.0)  # s(0) = 0 and s(1) = 1 exactly, so t holds them already
    tr = t[ramp]
    t[ramp] = tr**3 * (10.0 - 15.0 * tr + 6.0 * tr**2)
    return t


class DensityField(NamedTuple):
    """Grid-sampled nonnegative field representing exp(log_scale) * values; a named tuple.

    `values` is (N,) for one field, or (N, S) for a batch of S fields, one
    per column, whose `log_scale` and `clamped_mass` are then (S,) arrays.
    `clamped_mass` records the negative mass removed by the most recent
    propagation step (zero for freshly constructed fields).
    """

    grid: Grid
    values: np.ndarray
    log_scale: float = 0.0
    clamped_mass: float = 0.0


def discretize_initial(model: FilterModel, grid: Grid) -> DensityField:
    """Initial field sigma0 * S_R on the grid, zero on the boundary."""
    vals = mollifier(grid)  # the product is formed in this array; it commutes bit for bit
    vals *= np.asarray(model.initial_density(grid.coords), dtype=float)
    vals[grid.boundary_mask] = 0.0
    if not np.any(vals > 0):
        raise ValueError(
            "initial density vanishes on the whole grid; its support lies "
            "outside the domain — increase the radius R"
        )
    return DensityField(grid, vals, 0.0)


class _CNSystem(NamedTuple):
    """The implicit side (I - c A)/2 of a Crank-Nicolson stage, ready to solve.

    `solve(v)` returns y = 2 (I - c A)^{-1} v for v of shape (N,) or (N, S),
    one column per field, and leaves v as it was.
    """

    c: float
    solve: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DiscreteGenerator:
    """Sparse discretization of the per-step evolution operator.

    `matrix` holds its bands (another sparse format is converted once, on
    first use); rows for boundary nodes are zero (Dirichlet), so `nnz`
    counts band cells and `count_nonzero()` couplings.  `observation` is the
    model's h at the nodes, (N, d).  `propagate` prepares the Crank-Nicolson
    system for a step size on first use and keeps it in `_cn`, one slot
    holding the last step size, so a run at fixed dt factors once and the
    factors die with the generator.
    """

    grid: Grid
    matrix: sp.dia_matrix
    observation: np.ndarray
    _cn: Optional[_CNSystem] = dataclass_field(default=None, init=False, repr=False, compare=False)


def assemble_generator(model: FilterModel, grid: Grid) -> DiscreteGenerator:
    """Assemble the conservative-form generator on interior nodes.

    The DIA result holds one band of N cells per coupled stencil offset,
    ascending: 7 in 3D under a diagonal diffusion, 19 under a full one.  Each
    band is computed in its own row with `out=`, |h|^2 column by column, and
    the cells of boundary rows are zeroed by index.  Refuses
    assembly if the diffusion matrix a = g g^T is degenerate (smallest
    eigenvalue <= 1e-14) at any node, or, for a declared constant
    `diffusion_matrix`, once.
    """
    d = grid.dim
    M = grid.points_per_axis
    N = grid.n_nodes
    dx = grid.spacing

    a = model.constant_diffusion_sq  # (d, d) when g is constant
    const = a is not None
    if not const:
        a = model.diffusion_sq(grid.coords)  # (N, d, d)
    f = np.asarray(model.drift(grid.coords), dtype=float)  # (N, d)
    h = np.asarray(model.observation(grid.coords), dtype=float)  # (N, d)
    eig_min = np.atleast_1d(a[..., 0, 0] if d == 1 else np.linalg.eigvalsh(a)[..., 0])
    bad = np.where(eig_min <= 1e-14)[0]
    if bad.size:
        where = "for the declared diffusion_matrix" if const else f"at node {grid.coords[bad[0]]}"
        raise AssemblyError(
            f"diffusion matrix is degenerate {where} "
            f"(min eigenvalue {eig_min[bad[0]]:.3g}); assembly refused"
        )

    def coupled(e):  # at most two nonzeros, and two only on axes whose a^ij is nonzero somewhere
        axes = np.flatnonzero(e)
        return axes.size < 2 or (axes.size == 2 and np.any(a[..., axes[0], axes[1]] != 0.0))

    strides = np.array([M**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    boundary = np.flatnonzero(grid.boundary_mask)
    a_diag = a[..., np.arange(d), np.arange(d)]  # (d,) or (N, d)

    # Every interior row has the same stencil: the coupled offsets e in
    # {-1, 0, 1}^d, whose column offsets strides . e ascend in lexicographic
    # order (M >= 3).  Cell j of band o is row j - o's entry, evaluated at
    # the source node j, so a band is one expression over all nodes.
    stencil = np.array([e for e in itertools.product((-1, 0, 1), repeat=d) if coupled(e)])
    offsets = stencil @ strides
    bands = np.empty((len(stencil), N))
    for band, e, o in zip(bands, stencil, offsets):
        axes = np.flatnonzero(e)
        if axes.size == 0:
            # Diagonal: -sum_i a^ii(x)/dx^2 - |h(x)|^2/2, |h|^2 summed column by column.
            np.multiply(h[:, 0], h[:, 0], out=band)
            for k in range(1, d):
                band += h[:, k] * h[:, k]
            band *= 0.5
            np.subtract(-np.sum(a_diag, axis=-1) / dx**2, band, out=band)
        elif axes.size == 1:
            # Axis neighbors: second-difference of a^ii u plus central drift flux.
            (ax,) = axes
            np.multiply(e[ax], f[:, ax], out=band)
            band /= 2 * dx
            np.subtract(a[..., ax, ax] / (2 * dx**2), band, out=band)
        else:
            # Cross terms i < j: full-weight mixed second difference of a^ij u
            # (the 1/2 prefactor cancels against the symmetric (j, i) term).
            i, j = axes
            band[:] = e[i] * e[j] * a[..., i, j] / (4 * dx**2)
        # Cells of boundary rows stay zero (Dirichlet): cell j holds row j - o.
        # The wrap sends a cell whose row lies off the grid to one within one
        # stencil reach of the grid's ends, which is a boundary cell too.
        band[(boundary + o) % N] = 0.0
    mat = sp.dia_matrix((bands, offsets), shape=(N, N))
    return DiscreteGenerator(grid=grid, matrix=mat, observation=h)


def _cn_system(gen: DiscreteGenerator, c: float) -> _CNSystem:
    """The prepared (I - c A)/2 of `gen`, rebuilt only when c differs from the cached one.

    The only place where the grid's dimension picks the solver.
    """
    cn = gen._cn
    if cn is not None and cn.c == c:
        return cn
    A = gen.matrix.todia()
    lhs = -(0.5 * c) * A
    lhs.setdiag(0.5 - (0.5 * c) * A.diagonal())
    if gen.grid.dim == 1:
        *lu, info = lapack.dgttrf(lhs.diagonal(-1), lhs.diagonal(), lhs.diagonal(1))
        if info > 0:
            raise SolverError(f"Crank-Nicolson matrix is singular (dgttrf info={info})")

        def solve(v):
            return lapack.dgttrs(*lu, v)[0]
    else:
        lhs_diag = lhs.diagonal()
        if not np.all(lhs_diag):
            raise SolverError("Crank-Nicolson matrix has a zero diagonal entry")
        inv_diag = 1.0 / lhs_diag
        precond = LinearOperator(lhs.shape, matvec=lambda x: inv_diag * x)

        def solve(v):
            vs = v.reshape(len(v), -1)
            cols = np.multiply(vs.T, 2.0, order="C")  # each column's start, 2v, then its y
            for s, col in enumerate(cols):
                # looked up at call time: a wrapper on yyfilter.pde.bicgstab sees every solve
                y, info = bicgstab(lhs, vs[:, s], x0=col, rtol=5e-11, atol=0.0, M=precond,
                                   maxiter=2000)
                if info != 0:
                    raise SolverError(
                        f"implicit solve did not converge (bicgstab info={info}, "
                        f"iteration budget 2000)"
                    )
                cols[s] = y
            return cols.T.reshape(v.shape)
    cn = _CNSystem(c, solve)
    object.__setattr__(gen, "_cn", cn)
    return cn


def propagate(
    gen: DiscreteGenerator, field: DensityField, dt: float, substeps: int = 1
) -> DensityField:
    """Advance a field by dt with Crank-Nicolson over `substeps` stages.

    Each stage solves (I - c A)/2 y = v with c = dt / (2 substeps), to relative
    residual 5e-11 in 2D/3D, and sets v <- y - v = (I - c A)^{-1} (I + c A) v
    in the solve's own output, so the input field is never written; the
    generator's prepared system is reused while c stays the same.
    Negative undershoot is clamped to zero after the final stage, column by
    column and only when there is any, and the removed mass is recorded on the
    result's `clamped_mass`.  A batch field takes one tridiagonal solve for all
    its columns in 1D and one BiCGSTAB solve per column on the bands of
    (I - c A)/2 in 2D/3D.  A NaN or infinity in the result raises SolverError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    check_count("substeps", substeps)
    cn = _cn_system(gen, dt / (2 * substeps))
    v = np.asarray(field.values, dtype=float)
    for _ in range(substeps):
        y = cn.solve(v)
        y -= v
        v = y
    flat = v.ravel("K")  # a view in memory order; an arg-reduction skips the ufunc machinery
    low = flat[flat.argmin()]  # argmin and argmax pick a NaN if there is one; it fails every test
    if not -np.inf < low <= flat[flat.argmax()] < np.inf:
        raise SolverError("propagation produced non-finite values")
    clamped = np.zeros(v.shape[1:])
    if low < 0:
        w = field.grid.trap_weights
        cols = v.reshape(len(v), -1)
        neg = cols < 0
        for s in np.flatnonzero(neg.any(axis=0)):  # each sum in its one-field order
            clamped.flat[s] = -np.sum(cols[neg[:, s], s] * w[neg[:, s]])
            cols[neg[:, s], s] = 0.0
    v[field.grid.boundary_mask] = 0.0
    return DensityField(field.grid, v, field.log_scale, clamped if v.ndim == 2 else float(clamped))


def exp_update(field: DensityField, h: np.ndarray, dy: np.ndarray) -> DensityField:
    """Multiply the field by exp(h(x)^T dy), rescaled to avoid overflow.

    `h` is the (N, d) table of h at the nodes, `DiscreteGenerator.observation`.
    The maximum of the exponent over the field's support moves into
    log_scale, so the stored values never exceed their previous size; the shifted
    exponent is clamped at 0, so it cannot overflow to inf * 0 = NaN off the support.
    One field takes `dy` of shape (d,) or (1, d), a batch field one increment per
    column, (S, d), and comes back in Fortran order; any other shape raises ValueError.
    """
    vals = field.values
    dys = np.asarray(dy, dtype=float)
    d = h.shape[1]
    if dys.shape not in (((d,), (1, d)) if vals.ndim == 1 else ((vals.shape[1], d),)):
        raise ValueError(f"observation increment of shape {dys.shape} does not fit a field "
                         f"of shape {vals.shape} with h of shape {h.shape}")
    if np.count_nonzero(np.isfinite(dys)) < dys.size:
        raise ValueError("observation increment must be finite")
    one = vals.ndim == 1  # a lone field's exponent and float shift skip a batch's round trips
    ys = dys.reshape(-1, d)
    expo = h[:, 0] * ys[0] if one and d == 1 else _batch_exponent(h, ys).reshape(vals.shape)
    shift = np.maximum.reduce(expo, axis=0, where=vals > 0, initial=-np.inf)
    if one:
        shift = 0.0 if shift == -np.inf else float(shift)  # no support: no shift
    else:
        shift[shift == -np.inf] = 0.0
    expo -= shift
    np.minimum(expo, 0.0, out=expo)
    vals = np.multiply(np.exp(expo, out=expo), vals, out=expo)
    return DensityField(field.grid, vals, field.log_scale + shift, field.clamped_mass)


def _batch_exponent(h: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(N, S) in Fortran order: h^T y at the nodes for each row y of the (S, d) `ys`: for
    d = 1 the broadcast product, which is the inner-dimension-1 matmul's bit for bit; one
    gemv per column when d > 1, where a gemm over the batch would sum in another order."""
    if h.shape[1] == 1:
        return (ys * h.T).T
    expo = np.empty((len(ys), len(h))).T
    for s, y in enumerate(ys):
        np.matmul(h, y, out=expo[:, s])
    return expo


def integrate(field: DensityField, weight: Optional[np.ndarray] = None):
    """Trapezoid integral of weight * values (one weight per node, None: 1): a float
    for one field, an (S,) array for a batch, each column summed in np.dot's order by
    one vecdot over the contiguous (S, N) rows (a gemv over the batch would not).
    The field's log_scale is not applied, so a ratio of two integrals needs none."""
    rows = np.ascontiguousarray(field.values.T)
    return np.vecdot(rows if weight is None else weight * rows, field.grid.trap_weights)
