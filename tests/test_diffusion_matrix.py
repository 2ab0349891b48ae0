"""A constant diffusion declared once as `FilterModel.diffusion_matrix`.

Assembly, path simulation and the particle oracles read the matrix and
call no diffusion callback; they agree with a model that states the same g
through a callback, and a malformed matrix is refused naming the field.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from yyfilter.baselines import bootstrap_pf, ks_monte_carlo
from yyfilter.models import TimeSchedule, builtin_model, coordinate, validate_assumptions
from yyfilter.pde import AssemblyError, assemble_generator, build_grid
from yyfilter.sde import simulate

SCHEDULE = TimeSchedule(0.5, 40)


def _callback_twin(model, g):
    """The model with g stated as a callback that repeats the (d, d) matrix per point."""

    def diffusion(points):
        return np.repeat(np.asarray(g, dtype=float)[None], len(points), axis=0)

    return dataclasses.replace(model, diffusion=diffusion, diffusion_matrix=None)


def _outputs(model, points):
    """Generator, a batch of paths, and the two particle oracles' results."""
    gen = assemble_generator(model, build_grid(model.dim, 6.0, points)).matrix
    pairs = simulate(model, SCHEDULE, substeps=3, seed=[5, 6])
    obs = pairs[0][1]
    phis = [coordinate(i) for i in range(model.dim)]
    pf = bootstrap_pf(model, SCHEDULE, obs, phis, 500, seed=1005)
    ks = ks_monte_carlo(model, SCHEDULE, obs, phis, 200, substeps=2, seed=1005)
    return gen, pairs, pf, ks


@pytest.mark.parametrize("name, dim", [("cubic_sensor", None), ("linearNd", 3)])
def test_declared_matrix_makes_no_diffusion_call(name, dim):
    calls = []

    def counted(points):
        calls.append(len(points))
        return np.repeat(np.eye(points.shape[1])[None], len(points), axis=0)

    m = dataclasses.replace(builtin_model(name, dim), diffusion=counted)
    _outputs(m, 21 if m.dim == 1 else 11)
    validate_assumptions(m, 4.0, samples=50)
    assert calls == []


@pytest.mark.parametrize("name, dim, points", [("benes", None, 61), ("linearNd", 2, 21)])
def test_unit_matrix_and_callback_give_identical_results(name, dim, points):
    m = builtin_model(name, dim)
    (gen_m, pairs_m, pf_m, ks_m), (gen_c, pairs_c, pf_c, ks_c) = (
        _outputs(m, points), _outputs(_callback_twin(m, np.eye(m.dim)), points))
    for attr in ("offsets", "data"):
        assert_array_equal(getattr(gen_m, attr), getattr(gen_c, attr))
    for (xm, ym), (xc, yc) in zip(pairs_m, pairs_c):
        assert_array_equal(xm.values, xc.values)
        assert_array_equal(ym.values, yc.values)
    for rm, rc in ((pf_m, pf_c), (ks_m, ks_c)):
        for attr in ("estimates", "stderr", "ess"):
            assert_array_equal(getattr(rm, attr), getattr(rc, attr))


def test_sheared_matrix_and_callback_agree_to_rounding():
    # g = [[1, 1/2], [0, 1]], a = [[5/4, 1/2], [1/2, 1]]: the matrix path forms g dV as
    # dV @ g^T and a as g @ g^T, the callback path per point by matmul and einsum.  The
    # tolerance allows reordered sums; on numpy 2.4 with OpenBLAS the measured difference
    # is 0 in every output (a g with inexact entries, [[0.9, 0.3], [0.1, 1.1]], moved the
    # particle estimates by at most 6.7e-16).
    g = np.array([[1.0, 0.5], [0.0, 1.0]])
    m = dataclasses.replace(builtin_model("linearNd", 2), diffusion_matrix=g)
    (gen_m, pairs_m, pf_m, ks_m), (gen_c, pairs_c, pf_c, ks_c) = (
        _outputs(m, 21), _outputs(_callback_twin(m, g), 21))
    assert len(gen_m.offsets) == 9  # the cross couplings are stored
    assert_array_equal(gen_m.offsets, gen_c.offsets)
    assert_allclose(gen_m.data, gen_c.data, rtol=1e-13, atol=0)
    for (xm, ym), (xc, yc) in zip(pairs_m, pairs_c):
        assert_allclose(xm.values, xc.values, rtol=1e-12, atol=1e-12)
        assert_allclose(ym.values, yc.values, rtol=1e-12, atol=1e-12)
    for rm, rc in ((pf_m, pf_c), (ks_m, ks_c)):
        assert_allclose(rm.estimates, rc.estimates, rtol=1e-12, atol=1e-12)
        assert_allclose(rm.ess, rc.ess, rtol=1e-12)


@pytest.mark.parametrize("g, match", [
    (np.eye(3), r"shape \(2, 2\)"),
    (np.ones(2), r"shape \(2, 2\)"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite"),
    (np.array([[1.0, 0.0], [np.inf, 1.0]]), "non-finite"),
])
def test_malformed_matrix_is_refused_naming_the_field(g, match):
    with pytest.raises(ValueError, match=f"diffusion_matrix.*{match}|{match}.*diffusion_matrix"):
        dataclasses.replace(builtin_model("linearNd", 2), diffusion_matrix=g)


@pytest.mark.parametrize("g", [np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, 1.0]])])
def test_degenerate_matrix_is_refused_at_assembly_naming_the_field(g):
    m = dataclasses.replace(builtin_model("linearNd", 2), diffusion_matrix=g)
    with pytest.raises(AssemblyError, match="degenerate for the declared diffusion_matrix"):
        assemble_generator(m, build_grid(2, 4.0, 11))
    simulate(m, SCHEDULE, seed=1)  # the paths need no ellipticity


def test_model_needs_a_diffusion():
    with pytest.raises(ValueError, match="diffusion callback or a diffusion_matrix"):
        dataclasses.replace(builtin_model("linear1d"), diffusion=None, diffusion_matrix=None)


def test_declared_matrix_is_a_private_read_only_copy():
    g = np.eye(2)
    m = dataclasses.replace(builtin_model("linearNd", 2), diffusion_matrix=g)
    g[0, 1] = 3.0
    assert_array_equal(m.diffusion_matrix, np.eye(2))
    assert not m.diffusion_matrix.flags.writeable
    a = m.diffusion_sq(np.zeros((4, 2)))
    assert a.shape == (4, 2, 2) and not a.flags.writeable
    assert_array_equal(a, np.broadcast_to(np.eye(2), (4, 2, 2)))
    assert len({m, m, builtin_model("benes")}) == 2  # hashable despite the array fields
