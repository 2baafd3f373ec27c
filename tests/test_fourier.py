import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import inghamlab as il

SMOOTH = [
    ("gaussian", lambda x: np.exp(-x ** 2)),
    ("narrow", lambda x: np.exp(-4 * x ** 2)),
    ("wide", lambda x: np.exp(-(x / 3.0) ** 2)),
    ("shifted", lambda x: np.exp(-(x - 1.0) ** 2)),
    ("odd", lambda x: x * np.exp(-x ** 2)),
    ("hermite2", lambda x: (4 * x ** 2 - 2) * np.exp(-x ** 2)),
    ("modulated", lambda x: np.cos(2 * x) * np.exp(-x ** 2)),
    ("pair", lambda x: np.exp(-(x - 2) ** 2) + np.exp(-(x + 2) ** 2)),
    ("sech", lambda x: 1.0 / np.cosh(x)),
    ("complex", lambda x: np.exp(2j * x) * np.exp(-x ** 2)),
]


@pytest.fixture(scope="module")
def grid():
    return il.Grid.symmetric(32.0, 2 ** 12)


def test_gaussian_transform_closed_form(grid):
    """F[exp(-x^2/2)](xi) = sqrt(2 pi) exp(-xi^2/2)."""
    f = il.SampledFunction.from_callable(grid, lambda x: np.exp(-x ** 2 / 2))
    F = il.fourier_transform(f)
    expect = np.sqrt(2 * np.pi) * np.exp(-F.xi_values ** 2 / 2)
    np.testing.assert_allclose(F.values, expect, atol=1e-12)


def test_indicator_transform_is_sinc():
    # 1_[-1,1] -> 2 sin(xi)/xi; the half-step grid keeps the sampled set
    # symmetric so the midpoint sum is clean at the jump
    g = il.Grid.symmetric(1.0, 2 ** 16, offset=True)
    f = il.SampledFunction(g, np.ones(g.n_points, dtype=complex))
    xi = np.linspace(-20.0, 20.0, 81)
    F = il.fourier_transform_direct(f, xi)
    expect = np.where(xi == 0.0, 2.0, 2 * np.sin(xi) / np.where(xi == 0, 1, xi))
    np.testing.assert_allclose(F.values.real, expect, atol=1e-8)
    np.testing.assert_allclose(F.values.imag, 0.0, atol=1e-12)


@pytest.mark.parametrize("name,fn", SMOOTH, ids=[n for n, _ in SMOOTH])
def test_quadrature_oracle(grid, name, fn):
    """FFT path vs adaptive quadrature at seeded random frequencies."""
    f = il.SampledFunction.from_callable(grid, fn)
    F = il.fourier_transform(f)
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    xi_probe = np.sort(rng.uniform(-6.0, 6.0, size=20))
    probe = il.fourier_transform_direct(f, xi_probe)
    scale = np.max(np.abs(F.values))
    for xi0, got in zip(xi_probe, probe.values):
        re = quad(lambda x: (fn(x) * np.exp(-1j * x * xi0)).real, -32, 32,
                  limit=400)[0]
        im = quad(lambda x: (fn(x) * np.exp(-1j * x * xi0)).imag, -32, 32,
                  limit=400)[0]
        assert abs(got - (re + 1j * im)) <= 1e-6 * scale


@pytest.mark.parametrize("name,fn", SMOOTH, ids=[n for n, _ in SMOOTH])
def test_plancherel(grid, name, fn):
    f = il.SampledFunction.from_callable(grid, fn)
    F = il.fourier_transform(f)
    a, b = il.l2_norm(f), il.spectral_l2_norm(F)
    assert abs(a - b) <= 1e-8 * a


def test_roundtrip_on_dual_grid(grid):
    f = il.SampledFunction.from_callable(
        grid, lambda x: np.exp(-x ** 2) * np.cos(3 * x))
    back = il.inverse_fourier_transform(il.fourier_transform(f), grid)
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_fft_path_matches_direct_sum(grid):
    f = il.SampledFunction.from_callable(grid, lambda x: np.exp(-(x - 1) ** 2))
    F = il.fourier_transform(f)
    sub = slice(0, grid.n_points, 64)
    D = il.fourier_transform_direct(f, F.xi_values[sub])
    np.testing.assert_allclose(D.values, F.values[sub], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 96), radius=st.floats(0.5, 20.0),
       offset=st.booleans(),
       xi_set=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=24,
                       unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nondual_sums_match_plain_loop(n, radius, offset, xi_set, seed):
    """Forward and inverse non-dual paths against an unchunked per-point sum."""
    xi = np.array(sorted(xi_set))
    assume(xi.size != n)  # a frequency set of size n could be the FFT dual
    grid = il.Grid.symmetric(radius, n, offset=offset)
    x, h = grid.nodes, grid.step
    rng = np.random.default_rng(seed)
    fv = rng.normal(size=n) + 1j * rng.normal(size=n)
    Fv = rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size)

    forward = il.fourier_transform(il.SampledFunction(grid, fv), xi).values
    expect = np.array([h * np.sum(fv * np.exp(-1j * x * k)) for k in xi])
    assert np.max(np.abs(forward - expect)) <= 1e-10 * h * np.sum(np.abs(fv))

    # trapezoid weights in xi: the distance between neighbouring midpoints
    mids = np.concatenate(([xi[0]], 0.5 * (xi[1:] + xi[:-1]), [xi[-1]]))
    w = np.diff(mids) if xi.size > 1 else np.ones(1)
    inverse = il.inverse_fourier_transform(il.SpectralFunction(xi, Fv),
                                           grid).values
    expect = np.array([np.sum(w * Fv * np.exp(1j * xi * p)) for p in x])
    expect /= 2.0 * np.pi
    scale = np.sum(w * np.abs(Fv)) / (2.0 * np.pi)
    assert np.max(np.abs(inverse - expect)) <= 1e-10 * scale


def test_linearity(grid):
    f1 = il.SampledFunction.from_callable(grid, lambda x: np.exp(-x ** 2))
    f2 = il.SampledFunction.from_callable(grid, lambda x: x * np.exp(-x ** 2))
    combo = f1.with_values(2.0 * f1.values + 3j * f2.values)
    F = il.fourier_transform(combo)
    F1, F2 = il.fourier_transform(f1), il.fourier_transform(f2)
    np.testing.assert_allclose(F.values, 2.0 * F1.values + 3j * F2.values,
                               atol=1e-12)


def test_real_function_has_conjugate_symmetric_transform(grid):
    f = il.SampledFunction.from_callable(
        grid, lambda x: np.exp(-(x - 0.5) ** 2))
    F = il.fourier_transform(f)
    xi = F.xi_values
    # skip the unpaired -Nyquist entry of the even-length dual grid
    vals = F.values[1:]
    np.testing.assert_allclose(vals, np.conj(vals[::-1]), atol=1e-12)


def test_inverse_on_non_dual_frequency_set():
    # trapezoid inversion from a dense custom frequency window
    g = il.Grid.symmetric(8.0, 512)
    f = il.SampledFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    xi = np.linspace(-40.0, 40.0, 4001)
    F = il.fourier_transform(f, xi)
    back = il.inverse_fourier_transform(F, g)
    np.testing.assert_allclose(back.values, f.values, atol=1e-8)


def test_invalid_frequency_sets_rejected(grid):
    f = il.SampledFunction.from_callable(grid, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        il.fourier_transform(f, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        il.fourier_transform(f, np.array([np.inf]))
