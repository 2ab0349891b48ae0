import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.signal import convolve
from scipy.sparse.linalg import LinearOperator, bicgstab

from yyfilter.models import (
    AssumptionProfile,
    FilterModel,
    builtin_model,
    squared_coordinate,
    _std_normal_density,
    _unit_diffusion,
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
)


def _zero_vec(points):
    return np.zeros_like(points)


def _model(dim, drift, diffusion, observation, name="custom"):
    return FilterModel(
        name=name,
        dim=dim,
        drift=drift,
        diffusion=diffusion,
        observation=observation,
        initial_density=_std_normal_density,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    )


HEAT_1D = _model(1, _zero_vec, _unit_diffusion, _zero_vec, "heat1d")


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
    assert g.interior_mask.sum() == 1


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
    import dataclasses

    def far_density(points):
        return np.exp(-0.5 * np.sum((points - 50.0) ** 2, axis=1))

    m = dataclasses.replace(
        _model(1, _zero_vec, _unit_diffusion, _zero_vec), initial_density=far_density
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
        diffusion=_unit_diffusion,
        observation=_zero_vec,
        initial_density=uniform,
        assumptions=AssumptionProfile(1.0, 1.0, 2, 1, 1.0),
    )
    g = build_grid(1, 6.0, 241)
    field = discretize_initial(m, g)
    # step discontinuities at +-1 cost O(dx) in the trapezoid rule
    assert integrate(field) == pytest.approx(1.0, abs=g.spacing)


# ---------------------------------------------------------------------------
# Generator stencils: exact rows, polynomial oracle, refinement ratio
# ---------------------------------------------------------------------------


def test_stencil_pure_diffusion_row(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    dx = grid_1d_fine.spacing
    mid = grid_1d_fine.n_nodes // 2
    row = gen.matrix[mid].toarray().ravel()
    assert row[mid - 1] == pytest.approx(0.5 / dx**2)
    assert row[mid] == pytest.approx(-1.0 / dx**2)
    assert row[mid + 1] == pytest.approx(0.5 / dx**2)


def test_stencil_constant_drift_row():
    def one_drift(points):
        return np.ones_like(points)

    m = _model(1, one_drift, _unit_diffusion, _zero_vec)
    g = build_grid(1, 2.0, 41)
    gen = assemble_generator(m, g)
    dx = g.spacing
    mid = g.n_nodes // 2
    row = gen.matrix[mid].toarray().ravel()
    assert row[mid - 1] == pytest.approx(0.5 / dx**2 + 1 / (2 * dx))
    assert row[mid] == pytest.approx(-1.0 / dx**2)
    assert row[mid + 1] == pytest.approx(0.5 / dx**2 - 1 / (2 * dx))


def test_stencil_potential_on_diagonal():
    def identity_obs(points):
        return np.array(points)

    m = _model(1, _zero_vec, _unit_diffusion, identity_obs)
    g = build_grid(1, 2.0, 41)
    gen = assemble_generator(m, g)
    dx = g.spacing
    idx = int(np.argmin(np.abs(g.coords[:, 0] - 1.5)))
    x = g.coords[idx, 0]
    row = gen.matrix[idx].toarray().ravel()
    assert row[idx] == pytest.approx(-1.0 / dx**2 - 0.5 * x**2)


def test_boundary_rows_zero(grid_1d_fine):
    gen = assemble_generator(HEAT_1D, grid_1d_fine)
    assert gen.matrix[0].nnz == 0
    assert gen.matrix[-1].nnz == 0


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
    interior = np.where(grid.interior_mask)[0]
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


@pytest.mark.parametrize(
    "model, grid",
    [
        (builtin_model("cubic_sensor"), build_grid(1, 6.0, 241)),
        (_poly_model(**CROSS_2D), build_grid(2, 1.0, 21)),
        # R = 5 on 21^3 also zeroes axis couplings where f dx = a exactly
        (builtin_model("linearNd", 3), build_grid(3, 5.0, 21)),
        (A12_ONLY_3D, build_grid(3, 1.0, 11)),
    ],
    ids=["cubic_sensor_1d", "cross_2d", "linearNd_3d", "a12_only_3d"],
)
def test_generator_stores_exactly_the_nonzero_reference_entries(model, grid):
    A = assemble_generator(model, grid).matrix
    ref = _reference_generator(model, grid)
    ref.eliminate_zeros()
    np.testing.assert_array_equal(A.data, ref.data)
    np.testing.assert_array_equal(A.indices, ref.indices)
    np.testing.assert_array_equal(A.indptr, ref.indptr)
    assert A.has_canonical_format
    assert A.indices.dtype == A.indptr.dtype == np.int32
    assert np.all(A.data != 0)
    if model is A12_ONLY_3D:
        # 7 diagonal and axis entries plus the 4 of the one coupled pair
        row_nnz = np.diff(A.indptr)
        assert np.all(row_nnz[grid.interior_mask] == 11)
        assert np.all(row_nnz[grid.boundary_mask] == 0)


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
    m = _model(2, _zero_vec, _unit_diffusion, _zero_vec)
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


def _reference_propagate(gen, field, dt, substeps):
    """Crank-Nicolson rebuilt at every call: per-call solve_banded in 1D and
    a fresh I - c A with its Jacobi preconditioner in 2D/3D."""
    A = gen.matrix
    N = A.shape[0]
    c = dt / (2 * substeps)
    v = field.values.astype(float, copy=True)
    if gen.grid.dim == 1:
        ab = np.zeros((3, N))
        ab[0, 1:] = -c * A.diagonal(1)
        ab[1] = 1.0 - c * A.diagonal()
        ab[2, :-1] = -c * A.diagonal(-1)
        for _ in range(substeps):
            v = solve_banded((1, 1), ab, v + c * (A @ v), check_finite=False)
    else:
        lhs = (sp.identity(N, format="csr") - c * A).tocsr()
        inv_diag = 1.0 / lhs.diagonal()
        precond = LinearOperator((N, N), matvec=lambda x: inv_diag * x)
        for _ in range(substeps):
            v, info = bicgstab(lhs, v + c * (A @ v), x0=v, rtol=1e-10, atol=0.0, M=precond,
                               maxiter=2000)
            assert info == 0
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


def test_density_field_csv_header(linear1d):
    g = build_grid(1, 6.0, 11)
    field = DensityField(g, np.ones(11), log_scale=1.5)
    text = field.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# log_scale=1.5"
    assert lines[1] == "x_1,value"
    assert len(lines) == 2 + 11
