import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import inghamlab as il
from inghamlab import fourier

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


def test_sin_ratio_matches_numpy_sinc_bit_for_bit():
    x = np.array([[0.0, -0.0, 1e-320, -2.5], [np.pi, 7.0, -1e3, 3e5]])
    want = np.sinc(x / np.pi)
    assert np.array_equal(fourier.sin_ratio(x).view(np.int64),
                          want.view(np.int64))
    # in place, with a work buffer: the same bits, x overwritten
    y, work = x.copy(), np.empty_like(x)
    assert fourier.sin_ratio(y, out=y, work=work) is y
    assert np.array_equal(y.view(np.int64), want.view(np.int64))
    assert fourier.sin_ratio(0.0) == 1.0


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


def _check_against_plain_loop(n, radius, offset, xi, seed):
    """Forward and inverse non-dual sums against an unchunked per-point sum.

    Both tolerances are floored at a few subnormal units: on frequency
    sets spaced by subnormals, 1e-10 of the scale is below one unit, and
    any two ways of summing can differ by a unit.
    """
    floor = 4 * np.finfo(float).smallest_subnormal
    grid = il.Grid.symmetric(radius, n, offset=offset)
    x, h = grid.nodes, grid.step
    rng = np.random.default_rng(seed)
    fv = rng.normal(size=n) + 1j * rng.normal(size=n)
    Fv = rng.normal(size=xi.size) + 1j * rng.normal(size=xi.size)

    forward = il.fourier_transform(il.SampledFunction(grid, fv), xi).values
    expect = np.array([h * np.sum(fv * np.exp(-1j * x * k)) for k in xi])
    assert np.max(np.abs(forward - expect)) <= max(
        1e-10 * h * np.sum(np.abs(fv)), floor)

    # trapezoid weights in xi: the distance between neighbouring midpoints
    mids = np.concatenate(([xi[0]], 0.5 * (xi[1:] + xi[:-1]), [xi[-1]]))
    w = np.diff(mids) if xi.size > 1 else np.ones(1)
    inverse = il.inverse_fourier_transform(il.SpectralFunction(xi, Fv),
                                           grid).values
    expect = np.array([np.sum(w * Fv * np.exp(1j * xi * p)) for p in x])
    expect /= 2.0 * np.pi
    scale = np.sum(w * np.abs(Fv)) / (2.0 * np.pi)
    assert np.max(np.abs(inverse - expect)) <= max(1e-10 * scale, floor)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 96), radius=st.floats(0.5, 20.0),
       offset=st.booleans(),
       xi_set=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=24,
                       unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
# a two-point set with subnormal spacing: the inverse's trapezoid weights
# are subnormal, which once broke the chirp-z integer split into NaN
@example(n=3, radius=1.0, offset=False, xi_set=[0.0, 2.2250738585e-313],
         seed=0)
def test_nondual_sums_match_plain_loop(n, radius, offset, xi_set, seed):
    xi = np.array(sorted(xi_set))
    assume(xi.size != n)  # a frequency set of size n could be the FFT dual
    _check_against_plain_loop(n, radius, offset, xi, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 96), radius=st.floats(0.5, 20.0),
       offset=st.booleans(), m=st.integers(2, 96),
       start=st.floats(-50.0, 50.0), spacing=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_uniform_sums_match_plain_loop(n, radius, offset, m, start, spacing,
                                       seed):
    """The chirp-z path: uniform frequency sets of any start and spacing."""
    assume(m != n)  # a frequency set of size n could be the FFT dual
    xi = start + spacing * np.arange(m)
    assert fourier._is_uniform(xi)
    _check_against_plain_loop(n, radius, offset, xi, seed)


def test_chirp_sum_runs_either_way_along_a_set():
    x = np.linspace(-3.0, 5.0, 37)
    xi = np.linspace(40.0, -12.0, 53)  # descending
    rng = np.random.default_rng(7)
    v = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    for sign in (-1.0, 1.0):
        got = fourier._chirp_sum(x, v, 0.25, xi, sign)
        expect = np.array([0.25 * np.sum(v * np.exp(sign * 1j * k * x))
                           for k in xi])
        assert np.max(np.abs(got - expect)) <= 1e-12 * 0.25 * np.sum(np.abs(v))
        up = fourier._chirp_sum(x, v, 0.25, xi[::-1], sign)[::-1]
        assert np.max(np.abs(up - expect)) <= 1e-12 * 0.25 * np.sum(np.abs(v))


def test_convolution_is_exact_on_integers():
    # sums up to 2**43: a plain FFT convolution is off by about 1e-3 here
    rng = np.random.default_rng(3)
    size, n, m = 1024, 400, 625
    a = rng.integers(-2 ** 16, 2 ** 16, (2, n))
    k = rng.integers(-2 ** 16, 2 ** 16, (2, size))
    got = fourier._convolve(a[0] + 1j * a[1], k[0] + 1j * k[1], m)
    # circular convolution in exact integer arithmetic
    lags = (np.arange(m)[:, None] - np.arange(n)[None, :]) % size
    re = (a[0][None, :] * k[0][lags] - a[1][None, :] * k[1][lags]).sum(axis=1)
    im = (a[0][None, :] * k[1][lags] + a[1][None, :] * k[0][lags]).sum(axis=1)
    assert np.array_equal(got.real, re) and np.array_equal(got.imag, im)


def test_uniformity_rule():
    assert not fourier._is_uniform(np.array([0.3]))  # one point: direct sum
    assert fourier._is_uniform(np.array([-1.0, 2.0]))
    assert fourier._is_uniform(np.linspace(-7.0, 9.0, 1001))
    bent = np.linspace(-7.0, 9.0, 1001)
    bent[500] += 1e-9
    assert not fourier._is_uniform(bent)


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
