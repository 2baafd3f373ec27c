import numpy as np
import pytest

import inghamlab as il
from inghamlab.groups import preset

GROUP_PROFILES = [
    ("gaussian", lambda H: np.exp(-H ** 2)),
    ("wide", lambda H: np.exp(-(H / 2.0) ** 2)),
    ("pair", lambda H: np.exp(-(H - 1.5) ** 2) + np.exp(-(H + 1.5) ** 2)),
    ("hermite", lambda H: H ** 2 * np.exp(-H ** 2)),
    ("modulated", lambda H: np.cos(3 * H) * np.exp(-H ** 2 / 1.5)),
    ("narrow", lambda H: np.exp(-4 * H ** 2)),
    ("offcenter", lambda H: np.exp(-(H - 0.7) ** 2)),
    ("steep", lambda H: np.exp(-H ** 4 / 4)),
    ("ring", lambda H: H ** 4 * np.exp(-H ** 2)),
    ("mix", lambda H: (1 + H ** 2) * np.exp(-1.2 * H ** 2)),
]


def test_sl2c_structure(sl2c):
    assert sl2c.rank == 1
    assert sl2c.weyl_order == 2
    assert sl2c.rho == (2.0,)
    H = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(il.phi_weight(sl2c, H), 2 * np.sinh(2 * H))
    np.testing.assert_allclose(sl2c.b_norm(H), 4 * H)
    np.testing.assert_allclose(sl2c.b_norm_dual(H), H / 4)
    np.testing.assert_allclose(sl2c.rho_b_norm_sq, 0.25)


def test_product_model_structure():
    G = il.sl2c_product()
    assert G.rank == 2
    assert G.weyl_order == 4
    H = np.array([[0.5, 1.0]])
    np.testing.assert_allclose(il.phi_weight(G, H),
                               4 * np.sinh(1.0) * np.sinh(2.0))
    np.testing.assert_allclose(G.b_norm(H), np.hypot(2.0, 4.0))


def test_presets():
    assert preset("sl2c").name == "sl2c"
    assert preset("sl2c_x_sl2c").rank == 2
    with pytest.raises(ValueError):
        preset("so31")


def test_spherical_function_closed_form(sl2c):
    lam, H = 1.7, 0.9
    got = il.spherical_function(sl2c, np.array([lam]), np.array([H]))
    expect = (np.sin(lam * H) / (lam * H)) / (np.sinh(2 * H) / (2 * H))
    np.testing.assert_allclose(got, expect, rtol=1e-14)


def test_spherical_function_normalization(sl2c):
    lams = np.linspace(0.3, 9.3, 10)
    at_zero = il.spherical_function(sl2c, lams, np.array([1e-12]))
    np.testing.assert_allclose(at_zero, 1.0, atol=1e-10)


def test_phi0_matches_lambda_limit(sl2c):
    H = np.linspace(1e-3, 20.0, 997)
    p0 = il.phi0(sl2c, H)
    np.testing.assert_allclose(p0, (2 * H) / np.sinh(2 * H), rtol=1e-13)
    lim = il.spherical_function(sl2c, np.array([1e-8]), H)
    np.testing.assert_allclose(lim, p0, atol=1e-8)


def test_phi0_dominates_exponential(sl2c):
    # e^{-rho(H)} <= phi0(H) at every node of [0, 20]
    H = np.linspace(0.0, 20.0, 4001)
    np.testing.assert_array_less(np.exp(-2 * H) - 1e-15, il.phi0(sl2c, H))


def test_c_function_inverse_consistency(sl2c):
    lam = np.array([-3.0, -0.5, 0.7, 4.0])
    prod = il.c_function(sl2c, lam) * il.c_inverse(sl2c, lam)
    np.testing.assert_allclose(prod, 1.0, rtol=1e-14)
    with pytest.raises(il.WallSingularityError):
        il.c_function(sl2c, np.array([0.0]))


@pytest.fixture(scope="module")
def two_path_grid():
    # moderate size keeps the dense direct-path oracle affordable
    return il.Grid.symmetric(24.0, 2 ** 12, offset=True)


@pytest.mark.parametrize("name,fn", GROUP_PROFILES,
                         ids=[n for n, _ in GROUP_PROFILES])
def test_two_path_equivalence(sl2c, two_path_grid, name, fn):
    f = il.SampledFunction.from_callable(two_path_grid, fn, label=name)
    fast = il.spherical_transform_reduced(sl2c, f)
    slow = il.spherical_transform_direct(sl2c, f)
    scale = np.max(np.abs(slow.values))
    assert np.max(np.abs(fast.values - slow.values)) <= 1e-6 * scale
    assert fast.weyl_invariance_defect() <= 1e-8


def test_transform_of_even_data_is_even_in_lambda(sl2c, gaussian_on_group):
    F = il.spherical_transform_reduced(sl2c, gaussian_on_group)
    assert F.weyl_invariance_defect() <= 1e-12


def test_inverse_roundtrip(sl2c, offset_grid):
    f = il.SampledFunction.from_callable(
        offset_grid, lambda H: (1 + H ** 2) * np.exp(-H ** 2))
    F = il.spherical_transform_reduced(sl2c, f)
    back = il.inverse_spherical(sl2c, F, offset_grid)
    np.testing.assert_allclose(back.values, f.values, atol=1e-10)


def test_inverse_requires_offset_grid(sl2c, gaussian_on_group):
    F = il.spherical_transform_reduced(sl2c, gaussian_on_group)
    centered = il.Grid.symmetric(32.0, 2 ** 14)
    with pytest.raises(il.WallSingularityError):
        il.inverse_spherical(sl2c, F, centered)


def test_inverse_rejects_non_invariant_transform(sl2c, offset_grid):
    lam = np.linspace(-8.0, 8.0, 257)
    asym = il.SphericalTransform(lam, np.exp(-((lam - 2.0) ** 2)) + 0j)
    with pytest.raises(il.WallSingularityError):
        il.inverse_spherical(sl2c, asym, offset_grid)


def test_boundary_leak_rejected(sl2c):
    grid = il.Grid.symmetric(2.0, 512, offset=True)
    f = il.SampledFunction.from_callable(grid, lambda H: np.exp(-H ** 2))
    with pytest.raises(il.BoundaryLeakError):
        il.spherical_transform_reduced(sl2c, f)


def test_symmetrize_projects_onto_even(sl2c, offset_grid):
    f = il.SampledFunction.from_callable(
        offset_grid, lambda H: np.exp(-(H - 1.0) ** 2))
    s = il.symmetrize(f)
    np.testing.assert_allclose(s.values,
                               offset_grid.reflect_values(s.values),
                               atol=1e-14)
    # already-even data is a fixed point
    g = il.SampledFunction.from_callable(offset_grid, lambda H: np.exp(-H ** 2))
    np.testing.assert_allclose(il.symmetrize(g).values, g.values, atol=1e-15)


def test_wall_value_matches_direct_limit(sl2c, gaussian_on_group):
    # reduced transform fills lambda = 0 by the first-moment limit; the
    # direct path computes the same number from phi_0 quadrature
    F_fast = il.spherical_transform_reduced(sl2c, gaussian_on_group)
    idx = np.argmin(np.abs(F_fast.lambda_values))
    assert F_fast.lambda_values[idx] == 0.0
    F_slow = il.spherical_transform_direct(sl2c, gaussian_on_group,
                                           np.array([0.0]))
    np.testing.assert_allclose(F_fast.values[idx], F_slow.values[0],
                               rtol=1e-10)


def test_rank_two_transforms_rejected(offset_grid):
    G = il.sl2c_product()
    f = il.SampledFunction.from_callable(offset_grid, lambda H: np.exp(-H ** 2))
    with pytest.raises(ValueError):
        il.spherical_transform_reduced(G, f)
