import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
import scipy.sparse as sp
from scipy.linalg import lapack, solve_banded
from scipy.signal import convolve
from scipy.sparse.linalg import LinearOperator, bicgstab

from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    builtin_model,
    squared_coordinate,
    _std_normal_density,
)
from yyfilter.pde import (
    AssemblyError,
    DensityField,
    assemble_generator,
    build_grid,
    discretize_initial,
    exp_update,
    integrate,
    mollifier,
    propagate,
    _batch_exponent,
    _cn_system,
)


def _zero_vec(points):
    return np.zeros_like(points)


def _model(dim, drift, diffusion, observation, name="custom"):
    """`diffusion` is a callback g(x) or a constant (d, d) matrix."""
    const = isinstance(diffusion, np.ndarray)
    return FilterModel(
        name=name,
        dim=dim,
        drift=drift,
        diffusion=None if const else diffusion,
        observation=observation,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        diffusion_matrix=diffusion if const else None,
    )


HEAT_1D = _model(1, _zero_vec, np.eye(1), _zero_vec, "heat1d")


# ---------------------------------------------------------------------------
# Grid and mollifier
# ---------------------------------------------------------------------------


def test_grid_1d_nodes():
    g = build_grid(1, 2.0, 5)
    assert_allclose(g.coords[:, 0], [-2, -1, 0, 1, 2])
    assert g.spacing == 1.0
    assert g.axis[2] == 0.0


def test_grid_2d_counts():
    g = build_grid(2, 1.0, 3)
    assert g.n_nodes == 9
    assert g.boundary_mask.sum() == 8
    assert (~g.boundary_mask).sum() == 1


def test_grid_3d_count():
    g = build_grid(3, 6.0, 61)
    assert g.n_nodes == 226981


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(4, 1.0, 5)
    with pytest.raises(ValueError):
        build_grid(1, -1.0, 5)
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 6)
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 1)


@pytest.mark.parametrize("radius, points, named", [
    (float("nan"), 11, "radius"),
    (float("inf"), 11, "radius"),
    (1e308, 11, "radius"),
    (6.0, 11.0, "points per axis"),
])
def test_grid_refuses_non_finite_radius_and_non_integer_points(radius, points, named):
    with pytest.raises(ValueError, match=named):
        build_grid(1, radius, points)


@pytest.mark.parametrize(
    "dim, radius, points", [(1, 6.0, 241), (1, 2.0, 61), (2, 4.5, 31), (3, 6.0, 21)]
)
def test_plan_arrays_equal_their_reference_constructions(dim, radius, points):
    # The grid, the mollifier and the registry's initial field are built in
    # place; each equals its one-expression construction bit for bit.
    g = build_grid(dim, radius, points)
    mesh = np.meshgrid(*([g.axis] * dim), indexing="ij")
    coords = np.stack(mesh, axis=-1).reshape(-1, dim)
    assert coords.tobytes() == g.coords.tobytes()
    assert np.linalg.norm(coords, axis=1).tobytes() == g.node_radii.tobytes()
    R = g.radius
    t = np.clip((R - g.node_radii) * R, 0.0, 1.0)
    cutoff = t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    assert cutoff.tobytes() == mollifier(g).tobytes()
    x = g.coords
    ref = np.exp(-0.5 * np.sum(x**2, axis=1)) / (2 * math.pi) ** (dim / 2) * cutoff
    ref[g.boundary_mask] = 0.0
    model = builtin_model("linearNd", dim) if dim > 1 else builtin_model("linear1d")
    assert ref.tobytes() == discretize_initial(model, g).values.tobytes()


def test_grid_boundary_is_extreme_coordinate():
    g = build_grid(2, 2.0, 5)
    on_edge = np.any(np.abs(g.coords) == 2.0, axis=1)
    assert np.array_equal(on_edge, g.boundary_mask)


def test_mollifier_plateaus_exact(grid_1d_fine):
    g = grid_1d_fine
    s = mollifier(g)
    R = g.radius
    inner = np.abs(g.node_radii) <= R - 1 / R - 0.01
    assert np.all(s[inner] == 1.0)
    assert np.all(s[g.node_radii >= R] == 0.0)
    assert np.all((0 <= s) & (s <= 1))


def test_mollifier_midpoint_half():
    g = build_grid(1, 2.0, 1601)  # transition band [1.5, 2], midpoint 1.75
    s = mollifier(g)
    idx = int(np.argmin(np.abs(g.coords[:, 0] - 1.75)))
    assert abs(g.coords[idx, 0] - 1.75) < 1e-12
    assert s[idx] == pytest.approx(0.5, abs=1e-12)


def test_mollifier_requires_radius_above_one():
    g = build_grid(1, 0.5, 11)
    with pytest.raises(ValueError):
        mollifier(g)


# ---------------------------------------------------------------------------
# Initial field
# ---------------------------------------------------------------------------


def test_initial_mass_close_to_one(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    assert abs(integrate(field) - 1.0) < 1e-6
    assert np.all(field.values[grid_1d_fine.boundary_mask] == 0.0)


def test_initial_outside_domain_raises():
    def far_density(points):
        return np.exp(-0.5 * np.sum((points - 50.0) ** 2, axis=1))

    m = dataclasses.replace(
        _model(1, _zero_vec, np.eye(1), _zero_vec), initial_density=far_density
    )
    g = build_grid(1, 6.0, 101)
    with pytest.raises(ValueError, match="radius"):
        discretize_initial(m, g)


def test_initial_uniform_inside_mollifier_plateau():
    def uniform(points):
        return np.where(np.abs(points[:, 0]) <= 1.0, 0.5, 0.0)

    m = FilterModel(
        name="uniform",
        dim=1,
        drift=_zero_vec,
        diffusion=None,
        observation=_zero_vec,
        initial_density=uniform,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
        diffusion_matrix=np.eye(1),
    )
    g = build_grid(1, 6.0, 241)
    field = discretize_initial(m, g)
    # step discontinuities at +-1 cost O(dx) in the trapezoid rule
    assert integrate(field) == pytest.approx(1.0, abs=g.spacing)


# ---------------------------------------------------------------------------
# Generator stencils: exact rows, polynomial oracle, refinement ratio
# ---------------------------------------------------------------------------


def _row(A, i):
    """Row i of a banded generator read from its bands, as {column offset: entry}."""
    return {int(o): A.data[k, i + o] for k, o in enumerate(A.offsets) if 0 <= i + o < A.shape[1]}


def test_stencil_pure_diffusion_row(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    dx = grid_1d_fine.spacing
    mid = grid_1d_fine.n_nodes // 2
    row = _row(gen.matrix, mid)
    assert list(row) == [-1, 0, 1]
    assert row[-1] == pytest.approx(0.5 / dx**2)
    assert row[0] == pytest.approx(-1.0 / dx**2)
    assert row[1] == pytest.approx(0.5 / dx**2)


def test_stencil_constant_drift_row():
    def one_drift(points):
        return np.ones_like(points)

    m = _model(1, one_drift, np.eye(1), _zero_vec)
    g = build_grid(1, 2.0, 41)
    gen = assemble_generator(m, g)
    dx = g.spacing
    mid = g.n_nodes // 2
    row = _row(gen.matrix, mid)
    assert list(row) == [-1, 0, 1]
    assert row[-1] == pytest.approx(0.5 / dx**2 + 1 / (2 * dx))
    assert row[0] == pytest.approx(-1.0 / dx**2)
    assert row[1] == pytest.approx(0.5 / dx**2 - 1 / (2 * dx))


def test_stencil_potential_on_diagonal():
    def identity_obs(points):
        return np.array(points)

    m = _model(1, _zero_vec, np.eye(1), identity_obs)
    g = build_grid(1, 2.0, 41)
    gen = assemble_generator(m, g)
    dx = g.spacing
    idx = int(np.argmin(np.abs(g.coords[:, 0] - 1.5)))
    x = g.coords[idx, 0]
    assert _row(gen.matrix, idx)[0] == pytest.approx(-1.0 / dx**2 - 0.5 * x**2)


def test_boundary_rows_zero(grid_1d_fine):
    A = assemble_generator(HEAT_1D, grid_1d_fine).matrix
    for i in (0, A.shape[0] - 1):
        row = _row(A, i)
        assert len(row) == 2 and all(v == 0.0 for v in row.values())


def test_divergence_columns_conserve_mass():
    # pure flux form (h == 0): column sums vanish for nodes whose whole
    # neighborhood is interior
    def drift(points):
        return np.stack([points[:, 0] - 0.2 * points[:, 0] ** 3], axis=1)

    def diffusion(points):
        n = points.shape[0]
        return (1.0 + 0.3 * points[:, 0] ** 2).reshape(n, 1, 1)

    m = _model(1, drift, diffusion, _zero_vec)
    g = build_grid(1, 2.0, 41)
    gen = assemble_generator(m, g)
    col_sums = np.asarray(gen.matrix.sum(axis=0)).ravel()
    deep = np.arange(2, g.n_nodes - 2)
    assert np.max(np.abs(col_sums[deep])) < 1e-9 / g.spacing**2


def test_assembly_and_cn_preparation_stay_within_their_memory_bounds():
    # Transient peaks under tracemalloc on 41^3, in node arrays (8 N bytes),
    # measured at 5.4 for the grid (coords, radii, weights, mask), 3.0 for the
    # initial field (it, the density, one temporary), 14.2 for assembly
    # (7 bands, the drift and h tables, one temporary) and 9.3 for preparing
    # I - c A (7 bands, its diagonal and inverse diagonal); the bounds sit 11%,
    # 17%, 16% and 19% above.
    m = builtin_model("linearNd", 3)
    unit = 8 * 41**3
    peaks = []

    def peak(fn):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        peaks.append((tracemalloc.get_traced_memory()[1] - start) / unit)
        return out

    tracemalloc.start()
    try:
        g = peak(lambda: build_grid(3, 6.0, 41))
        field = peak(lambda: discretize_initial(m, g))
        gen = peak(lambda: assemble_generator(m, g))
        cn = peak(lambda: _cn_system(gen, 0.01 / 2))  # what propagate prepares on first use
    finally:
        tracemalloc.stop()
    grid, initial, assembly, preparation = peaks
    assert grid <= 6.0
    assert initial <= 3.5
    assert assembly <= 16.5
    assert preparation <= 11.0
    propagate(gen, field, 0.01, 1)
    assert gen._cn is cn


def test_assembly_refuses_degenerate_diffusion():
    def pinched(points):
        n = points.shape[0]
        return (points[:, 0] ** 2).reshape(n, 1, 1)  # vanishes at the origin

    m = _model(1, _zero_vec, pinched, _zero_vec)
    g = build_grid(1, 2.0, 41)
    with pytest.raises(AssemblyError, match="degenerate"):
        assemble_generator(m, g)


def _poly1_operator(a_coef, f_coef, h_coef, u_coef):
    """Analytic 1/2 (a u)'' - (f u)' - 1/2 h^2 u for 1D polynomials."""
    au = P.polymul(a_coef, u_coef)
    fu = P.polymul(f_coef, u_coef)
    hhu = P.polymul(P.polymul(h_coef, h_coef), u_coef)
    term = P.polysub(
        P.polymul([0.5], P.polyder(au, 2)), P.polyder(fu, 1)
    )
    return P.polysub(term, P.polymul([0.5], hhu))


def test_stencil_polynomial_oracle_refinement_1d():
    rng = np.random.default_rng(42)
    a_coef = np.array([1.2, 0.0, 0.1 * rng.uniform(0.5, 1.0)])
    f_coef = rng.uniform(-0.5, 0.5, size=4)
    h_coef = rng.uniform(-0.5, 0.5, size=2)
    u_coef = rng.uniform(-1, 1, size=6)
    target_coef = _poly1_operator(a_coef, f_coef, h_coef, u_coef)

    def drift(points):
        return P.polyval(points[:, 0], f_coef)[:, None]

    def diffusion(points):
        n = points.shape[0]
        return np.sqrt(P.polyval(points[:, 0], a_coef)).reshape(n, 1, 1)

    def obs(points):
        return P.polyval(points[:, 0], h_coef)[:, None]

    m = _model(1, drift, diffusion, obs)
    errors = []
    for points in (81, 161):
        g = build_grid(1, 2.0, points)
        gen = assemble_generator(m, g)
        u = P.polyval(g.coords[:, 0], u_coef)
        applied = gen.matrix @ u
        exact = P.polyval(g.coords[:, 0], target_coef)
        sel = np.abs(g.coords[:, 0]) <= 1.0  # stay away from zeroed rows
        errors.append(np.max(np.abs(applied[sel] - exact[sel])))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio}"


def _pmul(a, b):
    return convolve(a, b, method="direct")


def _pder(c, axis, times=1):
    for _ in range(times):
        n = c.shape[axis]
        if n <= 1:
            return np.zeros((1,) * c.ndim)
        factors = np.arange(1, n)
        c = np.take(c, np.arange(1, n), axis=axis)
        shape = [1] * c.ndim
        shape[axis] = n - 1
        c = c * factors.reshape(shape)
    return c


def _psum(*terms):
    out = np.zeros(np.max([t.shape for t in terms], axis=0))
    for t in terms:
        out[tuple(slice(0, n) for n in t.shape)] += t
    return out


def _pval(c, points):
    return (P.polyval2d if c.ndim == 2 else P.polyval3d)(*points.T, c)


def _poly_model(a, f, h):
    """2D/3D model with polynomial coefficients (arrays indexed by the
    powers of x, y[, z]): a maps (i, j), i <= j, to a^ij (absent pairs are
    0); f and h list f_i and h_i."""
    d = len(f)

    def drift(points):
        return np.stack([_pval(c, points) for c in f], axis=1)

    def diffusion(points):
        a_nodes = np.zeros((points.shape[0], d, d))
        for (i, j), c in a.items():
            a_nodes[:, i, j] = a_nodes[:, j, i] = _pval(c, points)
        return np.linalg.cholesky(a_nodes)  # g with g g^T = a

    def obs(points):
        return np.stack([_pval(c, points) for c in h], axis=1)

    return _model(d, drift, diffusion, obs)


def _poly_refinement_ratio(a, f, h, u, points):
    """Max error of the assembled A u against the analytic generator on
    [-1/2, 1/2]^d, on the coarser grid over the finer one."""
    target = _psum(
        *(0.5 * _pder(_pmul(c, u), i, 2) if i == j else _pder(_pder(_pmul(c, u), i), j)
          for (i, j), c in a.items()),
        *(-_pder(_pmul(c, u), i) for i, c in enumerate(f)),
        *(-0.5 * _pmul(_pmul(c, c), u) for c in h),
    )
    m = _poly_model(a, f, h)
    errors = []
    for n in points:
        g = build_grid(len(f), 1.0, n)
        applied = assemble_generator(m, g).matrix @ _pval(u, g.coords)
        sel = np.max(np.abs(g.coords), axis=1) <= 0.5
        errors.append(np.max(np.abs(applied[sel] - _pval(target, g.coords)[sel])))
    return errors[0] / errors[1]


# constant cross-diffusion plus polynomial drift/observation exercises
# every 2D stencil branch including the mixed second difference
CROSS_2D = dict(
    a={
        (0, 0): np.array([[1.0], [0.0], [0.1]]),  # 1 + 0.1 x^2
        (1, 1): np.array([[1.2]]),
        (0, 1): np.array([[0.3]]),
    },
    f=[np.array([[0.0, 0.3], [-0.2, 0.0]]), np.array([[0.0], [0.0], [0.1]])],  # 0.3 y - 0.2 x, 0.1 x^2
    h=[np.array([[0.0], [0.5]]), np.array([[0.0, 0.2]])],  # 0.5 x, 0.2 y
)


def test_stencil_polynomial_oracle_refinement_2d():
    u = _pmul(
        np.array([[1.0], [0.5], [-0.25]]), np.array([[1.0, -0.3, 0.2]])
    )  # separable smooth polynomial
    ratio = _poly_refinement_ratio(**CROSS_2D, u=u, points=(21, 41))
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio}"


def _p3(coefs):
    """3D coefficient array from {(px, py, pz): c}."""
    out = np.zeros((3, 3, 3))
    for powers, c in coefs.items():
        out[powers] = c
    return out


def test_stencil_polynomial_oracle_refinement_3d():
    # cross-diffusion in all three pairs (a^13 varies with y) exercises the
    # 3D mixed second differences
    a = {
        (0, 0): _p3({(0, 0, 0): 1.0, (2, 0, 0): 0.1}),  # 1 + 0.1 x^2
        (1, 1): _p3({(0, 0, 0): 1.2}),
        (2, 2): _p3({(0, 0, 0): 1.1, (0, 0, 2): 0.1}),  # 1.1 + 0.1 z^2
        (0, 1): _p3({(0, 0, 0): 0.3}),
        (0, 2): _p3({(0, 0, 0): 0.2, (0, 1, 0): 0.05}),  # 0.2 + 0.05 y
        (1, 2): _p3({(0, 0, 0): -0.1}),
    }
    f = [
        _p3({(0, 1, 0): 0.3, (1, 0, 0): -0.2}),  # 0.3 y - 0.2 x
        _p3({(2, 0, 0): 0.1}),  # 0.1 x^2
        _p3({(0, 0, 1): 0.2, (1, 1, 0): -0.1}),  # 0.2 z - 0.1 x y
    ]
    h = [_p3({(1, 0, 0): 0.5}), _p3({(0, 1, 0): 0.2}), _p3({(0, 0, 1): 0.3})]
    u = _pmul(
        _pmul(np.array([[[1.0]], [[0.5]], [[-0.25]]]), np.array([[[1.0], [-0.3], [0.2]]])),
        np.array([[[1.0, 0.2, -0.3]]]),
    )  # separable smooth polynomial
    ratio = _poly_refinement_ratio(a, f, h, u, points=(21, 41))
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio}"


def _reference_generator(model, grid):
    """The generator assembled as COO with every stencil entry, zeros
    included, then converted to CSR."""
    d, M, dx = grid.dim, grid.points_per_axis, grid.spacing
    a = model.diffusion_sq(grid.coords)
    f = np.asarray(model.drift(grid.coords), dtype=float)
    h = np.asarray(model.observation(grid.coords), dtype=float)
    strides = np.array([M**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    interior = np.where(~grid.boundary_mask)[0]
    a_diag = a[:, np.arange(d), np.arange(d)]
    rows, cols = [interior], [interior]
    data = [-np.sum(a_diag[interior], axis=1) / dx**2 - 0.5 * np.sum(h[interior] ** 2, axis=1)]
    for ax in range(d):
        for sgn in (1, -1):
            nb = interior + sgn * strides[ax]
            rows.append(interior)
            cols.append(nb)
            data.append(a[nb, ax, ax] / (2 * dx**2) - sgn * f[nb, ax] / (2 * dx))
    for i in range(d):
        for j in range(i + 1, d):
            for si in (1, -1):
                for sj in (1, -1):
                    nb = interior + si * strides[i] + sj * strides[j]
                    rows.append(interior)
                    cols.append(nb)
                    data.append(si * sj * a[nb, i, j] / (4 * dx**2))
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    ).tocsr()


_CONST = _p3({(0, 0, 0): 1.0})
_ZERO = _p3({})
A12_ONLY_3D = _poly_model(
    {(0, 0): _CONST, (1, 1): _CONST, (2, 2): _CONST, (0, 1): 0.3 * _CONST}, [_ZERO] * 3, [_ZERO] * 3
)


SHEARED_3D = dataclasses.replace(
    builtin_model("linearNd", 3),
    diffusion_matrix=np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]]),
)  # a = g g^T couples axes 1-2 and 2-3, not 1-3


@pytest.mark.parametrize(
    "model, grid, n_bands",
    [
        (builtin_model("cubic_sensor"), build_grid(1, 6.0, 241), 3),
        (_poly_model(**CROSS_2D), build_grid(2, 1.0, 21), 9),
        # R = 5 on 21^3 also zeroes axis couplings where f dx = a exactly
        (builtin_model("linearNd", 3), build_grid(3, 5.0, 21), 7),
        # 7 diagonal and axis bands plus the 4 of the one coupled pair
        (A12_ONLY_3D, build_grid(3, 1.0, 11), 11),
        (SHEARED_3D, build_grid(3, 5.0, 11), 15),
    ],
    ids=["cubic_sensor_1d", "cross_2d", "linearNd_3d", "a12_only_3d", "sheared_3d"],
)
def test_generator_stores_exactly_the_nonzero_reference_entries(model, grid, n_bands):
    A = assemble_generator(model, grid).matrix
    ref = _reference_generator(model, grid)
    ref.eliminate_zeros()
    N = grid.n_nodes
    # One band per coupled stencil offset, ascending, so products sum each
    # row in the reference's column order.
    coo = ref.tocoo()
    np.testing.assert_array_equal(A.offsets, np.unique(coo.col - coo.row))
    assert len(A.offsets) == n_bands
    for band, o in zip(A.data, A.offsets):
        rows = np.arange(N) - o
        on_grid = (rows >= 0) & (rows < N)
        assert not np.any(band[on_grid][grid.boundary_mask[rows[on_grid]]])
    csr = A.tocsr()
    csr.sort_indices()
    np.testing.assert_array_equal(csr.indptr, ref.indptr)
    np.testing.assert_array_equal(csr.indices, ref.indices)
    np.testing.assert_array_equal(csr.data, ref.data)
    u = np.random.default_rng(0).standard_normal(N)
    np.testing.assert_array_equal(A @ u, ref @ u)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------


def _gaussian_field(grid, var):
    vals = np.exp(-0.5 * grid.coords[:, 0] ** 2 / var) / math.sqrt(2 * math.pi * var)
    vals = vals.copy()
    vals[grid.boundary_mask] = 0.0
    return DensityField(grid, vals)


def test_heat_kernel_propagation(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    field = _gaussian_field(grid_1d_fine, 1.0)
    out = propagate(gen, field, 0.25, 16)
    xs = grid_1d_fine.coords[:, 0]
    target = np.exp(-0.5 * xs**2 / 1.25) / math.sqrt(2 * math.pi * 1.25)
    sel = np.abs(xs) <= 3 * math.sqrt(1.25)
    rel = np.max(np.abs(out.values[sel] - target[sel]) / target[sel])
    assert rel <= 1e-3


def test_heat_kernel_error_decreases_with_refinement():
    errs = []
    for points in (121, 241):
        g = build_grid(1, 6.0, points)
        gen = assemble_generator(HEAT_1D, g)
        out = propagate(gen, _gaussian_field(g, 1.0), 0.25, 32)
        xs = g.coords[:, 0]
        target = np.exp(-0.5 * xs**2 / 1.25) / math.sqrt(2 * math.pi * 1.25)
        sel = np.abs(xs) <= 3
        errs.append(np.max(np.abs(out.values[sel] - target[sel]) / target[sel]))
    assert errs[1] < errs[0] / 2


def test_heat_kernel_2d_krylov_path():
    m = _model(2, _zero_vec, np.eye(2), _zero_vec)
    g = build_grid(2, 5.0, 61)
    gen = assemble_generator(m, g)
    r2 = np.sum(g.coords**2, axis=1)
    vals = np.exp(-0.5 * r2) / (2 * math.pi)
    vals[g.boundary_mask] = 0.0
    out = propagate(gen, DensityField(g, vals), 0.25, 8)
    var = 1.25
    target = np.exp(-0.5 * r2 / var) / (2 * math.pi * var)
    sel = r2 <= 4.0
    rel = np.max(np.abs(out.values[sel] - target[sel]) / target[sel])
    assert rel < 1e-2


def test_zero_generator_identity(linear1d, grid_1d_fine):
    from yyfilter.pde import DiscreteGenerator

    zero = DiscreteGenerator(
        grid=grid_1d_fine,
        matrix=sp.csr_matrix((grid_1d_fine.n_nodes, grid_1d_fine.n_nodes)),
        observation=np.zeros((grid_1d_fine.n_nodes, 1)),
    )
    field = discretize_initial(linear1d, grid_1d_fine)
    out = propagate(zero, field, 1.0, 3)
    assert_allclose(out.values, field.values, atol=0)


def test_boundary_absorbs_mass(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    xs = grid_1d_fine.coords[:, 0]
    vals = np.exp(-0.5 * (xs - 5.0) ** 2 / 0.25)
    vals[grid_1d_fine.boundary_mask] = 0.0
    field = DensityField(grid_1d_fine, vals)
    out = propagate(gen, field, 0.5, 8)
    assert integrate(out) < integrate(field)


def test_mass_never_increases_on_registry_models(grid_1d_fine):
    for name in ("linear1d", "benes", "cubic_sensor"):
        m = builtin_model(name)
        gen = assemble_generator(m, grid_1d_fine)
        field = discretize_initial(m, grid_1d_fine)
        out = propagate(gen, field, 0.01, 8)
        assert integrate(out) <= integrate(field) * (1 + 1e-12)


def test_propagate_validation(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    field = _gaussian_field(grid_1d_fine, 1.0)
    with pytest.raises(ValueError):
        propagate(gen, field, -1.0, 1)
    with pytest.raises(ValueError):
        propagate(gen, field, 0.1, 0)


def _reference_propagate(gen, field, dt, substeps, explicit_side=False):
    """Crank-Nicolson rebuilt at every call: per-call solve_banded in 1D and
    a fresh I - c A with its Jacobi preconditioner in 2D/3D.  Each stage
    solves (I - c A) y = v and takes 2 y - v, or, with `explicit_side`, solves
    (I - c A) v' = v + c A v to the same 1e-10 residual in the stage; BiCGSTAB
    starts from the stage's v."""
    A = gen.matrix
    N = A.shape[0]
    c = dt / (2 * substeps)
    if gen.grid.dim == 1:
        ab = np.zeros((3, N))
        ab[0, 1:] = -c * A.diagonal(1)
        ab[1] = 1.0 - c * A.diagonal()
        ab[2, :-1] = -c * A.diagonal(-1)

        def solve(b, x0, rtol):
            return solve_banded((1, 1), ab, b, check_finite=False)
    else:
        lhs = (sp.identity(N, format="csr") - c * A).tocsr()
        inv_diag = 1.0 / lhs.diagonal()
        precond = LinearOperator((N, N), matvec=lambda x: inv_diag * x)

        def solve(b, x0, rtol):
            x, info = bicgstab(lhs, b, x0=x0, rtol=rtol, atol=0.0, M=precond, maxiter=2000)
            assert info == 0
            return x
    v = field.values.astype(float, copy=True)
    for _ in range(substeps):
        v = solve(v + c * (A @ v), v, 1e-10) if explicit_side else 2 * solve(v, v, 5e-11) - v
    v[v < 0] = 0.0
    v[gen.grid.boundary_mask] = 0.0
    return DensityField(field.grid, v, field.log_scale)


def test_cn_1d_cached_factors_match_per_call_banded_solve(grid_1d_fine):
    m = builtin_model("cubic_sensor")
    gen = assemble_generator(m, grid_1d_fine)
    field = ref = discretize_initial(m, grid_1d_fine)
    for _ in range(5):
        field = propagate(gen, field, 0.01, 4)
        ref = _reference_propagate(gen, ref, 0.01, 4)
        np.testing.assert_array_equal(field.values, ref.values)


def test_cn_2d_cached_lhs_matches_fresh_lhs():
    m = builtin_model("linearNd", 2)
    g = build_grid(2, 5.0, 31)
    gen = assemble_generator(m, g)
    field = ref = discretize_initial(m, g)
    for _ in range(3):
        field = propagate(gen, field, 0.01, 4)
        ref = _reference_propagate(gen, ref, 0.01, 4)
        assert_allclose(field.values, ref.values, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "name, dim, radius, points",
    [("cubic_sensor", None, 6.0, 241), ("linearNd", 2, 5.0, 31), ("linearNd", 3, 5.0, 21)],
)
def test_cn_midpoint_form_matches_explicit_form(name, dim, radius, points):
    # 2 (I - cA)^{-1} v - v equals (I - cA)^{-1} (I + cA) v up to rounding: over
    # three steps of 4 substeps the largest gap measured 9.6e-16 (1D), 1.19e-15
    # (2D) and 1.05e-15 (3D) of the field's maximum.
    m = builtin_model(name, dim)
    g = build_grid(m.dim, radius, points)
    gen = assemble_generator(m, g)
    field = ref = discretize_initial(m, g)
    for _ in range(3):
        field = propagate(gen, field, 0.01, 4)
        ref = _reference_propagate(gen, ref, 0.01, 4, explicit_side=True)
        assert np.max(np.abs(field.values - ref.values)) <= 1e-14 * np.max(ref.values)


def _unhalved_propagate(gen, field, dt, substeps):
    """propagate's stage on the unhalved system: (I - c A) y = v by dgttrf in 1D,
    or by BiCGSTAB on the DIA bands from x0 = v in 2D/3D, then 2 y - v; the same
    clamp, column by column."""
    A = gen.matrix
    c = dt / (2 * substeps)
    if gen.grid.dim == 1:
        *lu, info = lapack.dgttrf(-c * A.diagonal(-1), 1.0 - c * A.diagonal(), -c * A.diagonal(1))
        assert info == 0

        def solve(col):
            return lapack.dgttrs(*lu, col)[0]
    else:
        lhs = -c * A
        lhs.setdiag(1.0 - c * A.diagonal())
        inv_diag = 1.0 / lhs.diagonal()
        precond = LinearOperator(lhs.shape, matvec=lambda x: inv_diag * x)

        def solve(col):
            y, info = bicgstab(lhs, col, x0=col, rtol=5e-11, atol=0.0, M=precond, maxiter=2000)
            assert info == 0
            return y
    cols = field.values.reshape(len(field.values), -1).T.copy()
    clamped = np.zeros(len(cols))
    w = field.grid.trap_weights
    for s, v in enumerate(cols):
        for _ in range(substeps):
            y = solve(v)
            y *= 2.0
            y -= v
            v = y
        neg = v < 0
        if neg.any():
            clamped[s] = -np.sum(v[neg] * w[neg])
            v[neg] = 0.0
        v[field.grid.boundary_mask] = 0.0
        cols[s] = v
    return cols.T.reshape(field.values.shape), clamped


@pytest.mark.parametrize("name, dim, points, substeps", [
    ("cubic_sensor", None, 241, 8),  # the clamp runs
    ("linearNd", 2, 31, 4),
    ("linearNd", 3, 21, 4),
])
def test_halved_cn_system_is_exact(name, dim, points, substeps):
    # propagate solves (I - c A)/2 y = v and takes y - v; scaling a system by 2
    # is exact in binary, so each stage equals 2 (I - c A)^{-1} v - v bit for bit.
    m = builtin_model(name, dim)
    g = build_grid(m.dim, 6.0, points)
    gen = assemble_generator(m, g)
    init = discretize_initial(m, g).values
    batch = DensityField(g, np.column_stack([init, np.roll(init, 3)]), np.zeros(2), np.zeros(2))
    for field in (DensityField(g, init), batch):
        for dt in (0.01, 0.05):
            out = propagate(gen, field, dt, substeps)
            values, clamped = _unhalved_propagate(gen, field, dt, substeps)
            np.testing.assert_array_equal(out.values, values)
            np.testing.assert_array_equal(np.ravel(out.clamped_mass), clamped)
            if name == "cubic_sensor":
                assert np.all(clamped > 0)


def test_batch_clamp_is_per_column():
    # At one substep the cubic sensor's prior undershoots (clamped mass 1.9e-3),
    # and so does the prior shifted by 1 (1.5e-2), at other nodes; a narrow bump
    # at the origin does not.  Each column of the batch must come out as its own
    # single-field run, clamped or not.
    m = builtin_model("cubic_sensor")
    g = build_grid(1, 6.0, 241)
    gen = assemble_generator(m, g)
    bump = np.exp(-50.0 * g.coords[:, 0] ** 2)
    prior = discretize_initial(m, g).values
    shifted = np.roll(prior, 20)
    for v in (bump, shifted):
        v[g.boundary_mask] = 0.0
    columns = (prior, bump, shifted)
    singles = [propagate(gen, DensityField(g, v), 0.01, 1) for v in columns]
    assert singles[1].clamped_mass == 0.0 < min(singles[0].clamped_mass, singles[2].clamped_mass)
    batch = DensityField(g, np.column_stack(columns), np.zeros(3), np.zeros(3))
    out = propagate(gen, batch, 0.01, 1)
    for s, single in enumerate(singles):
        np.testing.assert_array_equal(out.values[:, s], single.values)
        assert out.clamped_mass[s] == single.clamped_mass


@pytest.mark.parametrize("name, dim, points, paths, substeps", [
    ("cubic_sensor", None, 241, 0, 1),  # one substep: the prior undershoots, so the clamp runs
    ("cubic_sensor", None, 241, 2, 1),
    ("linearNd", 2, 31, 0, 2),
])
def test_propagate_and_exp_update_leave_the_input_field_untouched(name, dim, points, paths,
                                                                   substeps):
    m = builtin_model(name, dim)
    g = build_grid(m.dim, 6.0, points)
    gen = assemble_generator(m, g)
    field = discretize_initial(m, g)
    dy = np.full(m.dim, 0.3)
    if paths:
        field = DensityField(g, np.column_stack([field.values, np.roll(field.values, 20)]),
                             np.zeros(paths), np.zeros(paths))
        dy = np.full((paths, m.dim), 0.3)
    before = field.values.copy()
    moved = propagate(gen, field, 0.01, substeps)
    np.testing.assert_array_equal(field.values, before)
    if name == "cubic_sensor":
        assert np.all(moved.clamped_mass > 0)
    after_move = moved.values.copy()
    exp_update(moved, gen.observation, dy)
    np.testing.assert_array_equal(moved.values, after_move)


@pytest.mark.parametrize("name, dim, points", [("linear1d", 1, 121), ("linearNd", 2, 31)])
def test_cn_factors_follow_step_size(name, dim, points):
    # dt, then dt', then dt again on one generator: every step must use
    # factors for its own step size, never the stale ones of the last call.
    m = builtin_model(name, dim)
    g = build_grid(dim, 5.0, points)
    shared = assemble_generator(m, g)
    field = discretize_initial(m, g)
    for dt in (0.02, 0.005, 0.02):
        out = propagate(shared, field, dt, 2)
        fresh = propagate(assemble_generator(m, g), field, dt, 2)
        np.testing.assert_array_equal(out.values, fresh.values)


def test_krylov_solve_looks_up_bicgstab_at_call_time(monkeypatch):
    # The benchmark counts Krylov iterations by assigning a wrapper to
    # yyfilter.pde.bicgstab; a solver bound when the system is prepared
    # would bypass it.
    import yyfilter.pde

    m = builtin_model("linearNd", 2)
    g = build_grid(2, 5.0, 21)
    gen = assemble_generator(m, g)
    propagate(gen, discretize_initial(m, g), 0.01, 3)  # prepares the system
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return bicgstab(*args, **kwargs)

    monkeypatch.setattr(yyfilter.pde, "bicgstab", counted)
    init = discretize_initial(m, g).values
    batch = DensityField(g, np.column_stack([init, 2 * init]), np.zeros(2), np.zeros(2))
    propagate(gen, batch, 0.01, 3)
    assert len(calls) == 6  # 2 columns x 3 substeps


@pytest.mark.parametrize("dim, points", [(1, 21), (2, 11)])
def test_singular_cn_matrix_raises_solver_error(dim, points):
    from yyfilter.pde import DiscreteGenerator, SolverError

    g = build_grid(dim, 2.0, points)
    # dt = 1, one substep: c = 1/2, so I - c A = I - I = 0.
    gen = DiscreteGenerator(grid=g, matrix=sp.identity(g.n_nodes, format="csr") * 2.0,
                            observation=np.zeros((g.n_nodes, dim)))
    field = DensityField(g, np.where(g.boundary_mask, 0.0, 1.0))
    with pytest.raises(SolverError):
        propagate(gen, field, 1.0, 1)


# ---------------------------------------------------------------------------
# Exponential update and integration
# ---------------------------------------------------------------------------


def test_exp_update_zero_increment(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    out = exp_update(field, linear1d.observation(grid_1d_fine.coords), np.zeros(1))
    assert_allclose(out.values, field.values)
    assert out.log_scale == field.log_scale


def test_exp_update_multiplies_by_exponential(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    dy = np.array([0.1])
    out = exp_update(field, linear1d.observation(grid_1d_fine.coords), dy)
    xs = grid_1d_fine.coords[:, 0]
    represented = out.values * np.exp(out.log_scale)
    expected = field.values * np.exp(0.1 * xs)
    assert_allclose(represented, expected, rtol=1e-12, atol=1e-300)


@given(
    dy1=st.floats(-1.0, 1.0, allow_nan=False),
    dy2=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_exp_update_additive_in_increment(dy1, dy2):
    m = builtin_model("linear1d")
    g = build_grid(1, 6.0, 61)
    field = discretize_initial(m, g)
    h = m.observation(g.coords)
    once = exp_update(field, h, np.array([dy1 + dy2]))
    twice = exp_update(exp_update(field, h, np.array([dy1])), h, np.array([dy2]))
    a = once.values * np.exp(once.log_scale)
    b = twice.values * np.exp(twice.log_scale)
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


def test_exp_update_boundary_stays_zero(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    out = exp_update(field, linear1d.observation(grid_1d_fine.coords), np.array([2.0]))
    assert np.all(out.values[grid_1d_fine.boundary_mask] == 0.0)


def test_exp_update_rejects_nonfinite(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    with pytest.raises(ValueError):
        exp_update(field, linear1d.observation(grid_1d_fine.coords), np.array([np.nan]))


@pytest.mark.parametrize("paths, dy_shape", [
    (0, (2,)),  # two increments for one d = 1 field
    (3, (2, 1)),  # two increments for a 3-column batch
])
def test_exp_update_names_a_mismatched_increment(linear1d, grid_1d_fine, paths, dy_shape):
    field = discretize_initial(linear1d, grid_1d_fine)
    if paths:
        field = DensityField(grid_1d_fine, np.repeat(field.values[:, None], paths, axis=1),
                             np.zeros(paths), np.zeros(paths))
    named = (rf"increment of shape {re.escape(str(dy_shape))} .* "
             rf"field of shape {re.escape(str(field.values.shape))}")
    with pytest.raises(ValueError, match=named):
        exp_update(field, linear1d.observation(grid_1d_fine.coords), np.zeros(dy_shape))


@pytest.mark.parametrize("dim, points", [(1, 241), (2, 41), (3, 21)])
@pytest.mark.parametrize("support", [True, False])
def test_one_field_is_its_one_column_batch_bit_for_bit(dim, points, support):
    # exp_update and integrate have one path: a lone field runs as a batch of one
    # column.  A field with no support takes no shift.
    m = builtin_model("linearNd", dim) if dim > 1 else builtin_model("benes")
    g = build_grid(dim, 6.0, points)
    h = assemble_generator(m, g).observation
    v = discretize_initial(m, g).values if support else np.zeros(g.n_nodes)
    dy = np.linspace(0.7, -0.4, dim)
    one = exp_update(DensityField(g, v, 0.25), h, dy)
    col = exp_update(DensityField(g, v[:, None], np.full(1, 0.25), np.zeros(1)), h, dy[None])
    np.testing.assert_array_equal(one.values, col.values[:, 0])
    np.testing.assert_array_equal([one.log_scale], col.log_scale)
    expo = h @ dy  # the direct formula, shifted by its maximum over the support
    shift = expo.max(where=v > 0, initial=-np.inf) if support else 0.0
    np.testing.assert_array_equal(one.values, np.exp(expo - shift) * v)
    assert np.shape(one.log_scale) == () and one.log_scale == 0.25 + shift
    for weight in (None, g.coords[:, 0]):
        whole = integrate(one, weight)
        assert isinstance(whole, float)
        np.testing.assert_array_equal([whole], integrate(col, weight))


@pytest.mark.parametrize("dim, points", [(2, 41), (3, 21)])
@pytest.mark.parametrize("paths", [1, 3])
def test_batch_exponent_writes_each_gemv_in_place_bit_for_bit(dim, points, paths):
    # Each column is written by its own gemv into the (N, S) exponent; it must
    # equal the stacked per-column products bit for bit.
    g = build_grid(dim, 6.0, points)
    h = assemble_generator(builtin_model("linearNd", dim), g).observation
    ys = np.random.default_rng(dim * 10 + paths).normal(size=(paths, dim)) * 10.0 ** np.arange(dim)
    expo = _batch_exponent(h, ys)
    assert expo.shape == (g.n_nodes, paths) and expo.flags.f_contiguous
    np.testing.assert_array_equal(expo, np.column_stack([h @ y for y in ys]))


def test_integrate_constant_on_interval():
    g = build_grid(1, 1.0, 2001)
    field = DensityField(g, np.ones(g.n_nodes))
    assert integrate(field) == pytest.approx(2.0, abs=1e-9)


def test_integrate_odd_weight_vanishes(linear1d, grid_1d_fine):
    from yyfilter.models import coordinate

    field = discretize_initial(linear1d, grid_1d_fine)
    assert abs(integrate(field, coordinate(0)(grid_1d_fine.coords))) < 1e-12


def test_integrate_gaussian_second_moment(linear1d, grid_1d_fine):
    field = discretize_initial(linear1d, grid_1d_fine)
    val = integrate(field, squared_coordinate(0)(grid_1d_fine.coords))
    assert val == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("dim, points", [(1, 241), (2, 41), (3, 21)])
def test_integrate_batch_is_each_column_bit_for_bit(dim, points):
    # Columns of unequal shape and scale; the weight is odd, so its sums cancel
    # and any change of summation order shows in the last bits.
    g = build_grid(dim, 6.0, points)
    x = g.coords[:, 0]
    cols = [np.exp(-0.5 * (x - c) ** 2 / s) * 10.0**e for c, s, e in
            [(0.0, 1.0, 0), (1.3, 0.2, -7), (-2.1, 3.0, 5), (0.4, 0.7, -300)]]
    batch = DensityField(g, np.column_stack(cols), np.zeros(4), np.zeros(4))
    for weight in (None, x, squared_coordinate(0)(g.coords)):
        whole = integrate(batch, weight)
        assert whole.shape == (4,)
        singles = [integrate(DensityField(g, c), weight) for c in cols]
        assert all(isinstance(v, float) for v in singles)
        np.testing.assert_array_equal(whole, singles)
        one = integrate(DensityField(g, cols[1][:, None], np.zeros(1), np.zeros(1)), weight)
        np.testing.assert_array_equal(one, [singles[1]])
