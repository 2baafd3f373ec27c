import numpy as np
import pytest

import inghamlab as il
from inghamlab import schrodinger
from inghamlab.schrodinger import kernel_gamma

HELD_OUT = [
    ("gaussian", lambda H: np.exp(-H ** 2)),
    ("pair", lambda H: np.exp(-(H - 1.5) ** 2) + np.exp(-(H + 1.5) ** 2)),
    ("hermite", lambda H: H ** 2 * np.exp(-H ** 2)),
    ("modulated", lambda H: np.cos(3 * H) * np.exp(-H ** 2 / 1.5)),
    ("ring", lambda H: H ** 4 * np.exp(-H ** 2)),
]


@pytest.fixture(scope="module")
def group_grid():
    # moderate size keeps the spectral flows cheap while the dual grid
    # still covers the frequencies b^2 H / 2t that the closed form reaches
    return il.Grid.symmetric(24.0, 2 ** 12, offset=True)


def test_kernel_modulus_and_phase():
    p = il.SchrodingerParams(t0=1.0 / (4 * np.pi))
    k = kernel_gamma(p, np.array([0.0]))
    np.testing.assert_allclose(k, np.exp(-1j * np.pi / 4), rtol=1e-14)
    # |gamma(x)| is constant in x and scales like |4 pi t|^{-1/2}
    p2 = il.SchrodingerParams(t0=2.0)
    k2 = kernel_gamma(p2, np.linspace(0, 5, 11))
    np.testing.assert_allclose(np.abs(k2), (8 * np.pi) ** -0.5, rtol=1e-14)


def test_zero_time_is_identity(gaussian_on_line):
    u = il.evolve_spectral(gaussian_on_line, il.SchrodingerParams(t0=0.0))
    np.testing.assert_allclose(u.values, gaussian_on_line.values, atol=1e-12)


def test_closed_form_needs_nonzero_time(gaussian_on_line):
    with pytest.raises(il.InvalidTimeError):
        il.evolve_closed_form(gaussian_on_line, il.SchrodingerParams(t0=0.0))


@pytest.fixture(scope="module")
def line_gaussian_small():
    g = il.Grid.symmetric(48.0, 2 ** 12)
    return il.SampledFunction.from_callable(g, lambda x: np.exp(-x ** 2))


@pytest.mark.parametrize("t0", [0.7, -0.7])
@pytest.mark.parametrize("c", [0.0, 1.3])
def test_euclidean_closed_vs_spectral(line_gaussian_small, t0, c):
    p = il.SchrodingerParams(t0=t0, c=c)
    u_sp = il.evolve_spectral(line_gaussian_small, p)
    u_cl = il.evolve_closed_form(line_gaussian_small, p)
    scale = np.max(np.abs(u_sp.values))
    assert np.max(np.abs(u_sp.values - u_cl.values)) <= 1e-6 * scale


def test_modulus_of_transform_is_preserved(gaussian_on_line):
    u = il.evolve_spectral(gaussian_on_line, il.SchrodingerParams(t0=0.9))
    F = il.fourier_transform(gaussian_on_line)
    U = il.fourier_transform(u)
    assert np.max(np.abs(np.abs(U.values) - np.abs(F.values))) <= 1e-10


def test_l2_conservation(gaussian_on_line):
    for t0 in (0.3, 2.0, -1.1):
        u = il.evolve_spectral(gaussian_on_line,
                               il.SchrodingerParams(t0=t0, c=0.4))
        assert abs(il.l2_norm(u) - il.l2_norm(gaussian_on_line)) \
            <= 1e-12 * il.l2_norm(gaussian_on_line)


def test_group_law(gaussian_on_line):
    p1 = il.SchrodingerParams(t0=0.3, c=0.5)
    p2 = il.SchrodingerParams(t0=0.2, c=0.5)
    p12 = il.SchrodingerParams(t0=0.5, c=0.5)
    two_step = il.evolve_spectral(il.evolve_spectral(gaussian_on_line, p1), p2)
    one_step = il.evolve_spectral(gaussian_on_line, p12)
    assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-9


def test_aliasing_warning_on_undersampled_spectrum():
    g = il.Grid.symmetric(8.0, 64)
    f = il.SampledFunction.from_callable(
        g, lambda x: np.exp(11j * x) * np.exp(-x ** 2))
    with pytest.warns(il.AliasingWarning):
        il.evolve_spectral(f, il.SchrodingerParams(t0=0.5))


def test_calibration_constant_pins_analytic_value(sl2c):
    # the constant the closed form takes from the line kernel,
    # b/(2 sqrt(pi)) exp(-i pi/4), against its spectral measurement
    expect = (2.0 / np.sqrt(np.pi)) * np.exp(-1j * np.pi / 4)
    got = il.calibrate_group_constant(sl2c)
    assert abs(got - expect) <= 1e-14
    # negative times flip the stationary-phase branch
    got_neg = il.calibrate_group_constant(sl2c, time_sign=-1.0)
    assert abs(got_neg - np.conj(expect)) <= 1e-14
    # cached: the same object comes back
    assert il.calibrate_group_constant(sl2c) is got


@pytest.mark.parametrize("t0", [0.9, -0.9])
@pytest.mark.parametrize("name,fn", HELD_OUT, ids=[n for n, _ in HELD_OUT])
def test_group_closed_vs_spectral(sl2c, group_grid, name, fn, t0):
    f = il.SampledFunction.from_callable(group_grid, fn, label=name)
    p = il.SchrodingerParams(t0=t0)
    u_sp = il.evolve_group_spectral(sl2c, f, p)
    u_cl = il.evolve_group_closed_form(sl2c, f, p)
    scale = np.max(np.abs(u_sp.values))
    assert np.max(np.abs(u_sp.values - u_cl.values)) <= 1e-5 * scale


def _max_rel_dev(u, ref):
    """Largest relative deviation where |ref| is at least 1e-3 of its peak."""
    mag = np.abs(ref)
    keep = mag >= 1e-3 * np.max(mag)
    return np.max(np.abs(u[keep] - ref[keep]) / mag[keep])


@pytest.mark.parametrize("t0", [0.9, -0.9])
def test_group_closed_form_evolves_weyl_average(sl2c, group_grid, t0):
    # off-centre data is not Weyl invariant; both paths evolve its average
    f = il.SampledFunction.from_callable(group_grid,
                                         lambda H: np.exp(-(H - 1.0) ** 2))
    p = il.SchrodingerParams(t0=t0)
    u_sp = il.evolve_group_spectral(sl2c, f, p)
    u_cl = il.evolve_group_closed_form(sl2c, f, p)
    assert _max_rel_dev(u_cl.values, u_sp.values) <= 1e-8


@pytest.mark.parametrize("t0", [0.9, -0.9])
def test_group_closed_form_needs_no_spectral_path(sl2c, group_grid,
                                                  monkeypatch, t0):
    # the closed form is the line closed form conjugated by phi; it must
    # not lean on the spectral path that it is checked against
    f = il.SampledFunction.from_callable(group_grid,
                                         lambda H: np.exp(-(H - 1.0) ** 2))
    p = il.SchrodingerParams(t0=t0)
    want = il.evolve_group_closed_form(sl2c, f, p)

    def refuse(*args, **kwargs):
        raise AssertionError("closed form reached the spectral path")

    monkeypatch.setattr(schrodinger, "calibrate_group_constant", refuse)
    monkeypatch.setattr(schrodinger, "evolve_group_spectral", refuse)
    got = il.evolve_group_closed_form(sl2c, f, p)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("sep,width,t0", [(4.7548, 1.4713, 0.902),
                                          (5.8167, 0.7059, 0.5379)])
def test_group_closed_form_near_the_wall_at_default_grid(sl2c, sep, width,
                                                         t0):
    """Accuracy of the closed form next to the wall, on its 2**14 grid.

    The reference is the sl2c flow of the Weyl average by FFT on a box
    zero-padded to four times the grid: u phi evolves under the
    Euclidean multiplier exp(-i t (k^2/b^2 + |rho|_B^2)), with b = 4,
    rho = 2 and phi = 2 sinh 2H.  Summing the chirp-z phases in plain
    float64 from the first node misses 1e-8 on the first pair (7e-8);
    a plain FFT convolution misses it on the second (1.2e-8).
    """
    grid = il.Grid.symmetric(32.0, 2 ** 14, offset=True)
    H, h = grid.nodes, grid.step
    f = il.SampledFunction.from_callable(
        grid, lambda x: (np.exp(-0.5 * ((x - sep / 2) / width) ** 2)
                         + np.exp(-0.5 * ((x + sep / 2) / width) ** 2)))
    u = il.evolve_group_closed_form(sl2c, f, il.SchrodingerParams(t0=t0))

    phi = 2.0 * np.sinh(2.0 * H)
    g = 0.5 * (f.values + f.values[::-1]) * phi
    n = H.size
    start = 3 * n // 2
    padded = np.zeros(4 * n, dtype=complex)
    padded[start:start + n] = g
    k = 2.0 * np.pi * np.fft.fftfreq(padded.size, d=h)
    mult = np.exp(-1j * t0 * (k * k / 16.0 + 0.25))
    ref = np.fft.ifft(np.fft.fft(padded) * mult)[start:start + n] / phi
    assert _max_rel_dev(u.values, ref) <= 1e-8


def test_group_zero_time_is_identity(sl2c, group_grid):
    f = il.SampledFunction.from_callable(group_grid, lambda H: np.exp(-H ** 2))
    u = il.evolve_group_spectral(sl2c, f, il.SchrodingerParams(t0=0.0))
    np.testing.assert_allclose(u.values, f.values, atol=1e-12)


def test_group_flow_composes(sl2c, group_grid):
    # composing in H-space is blocked by the boundary guard (division by
    # phi turns edge rounding noise into e^{4H}-amplified garbage), so
    # the semigroup law is checked against a manual two-multiplier step
    f = il.SampledFunction.from_callable(group_grid, lambda H: np.exp(-H ** 2))
    F = il.spherical_transform_reduced(sl2c, f)
    lam = F.lambda_values

    def multiplier(t):
        return np.exp(-1j * t * (sl2c.b_norm_dual(lam) ** 2
                                 + sl2c.rho_b_norm_sq))

    two = il.SphericalTransform(lam, F.values * multiplier(0.3)
                                * multiplier(0.2))
    u_two = il.inverse_spherical(sl2c, two, group_grid)
    one = il.evolve_group_spectral(sl2c, f, il.SchrodingerParams(t0=0.5))
    assert np.max(np.abs(u_two.values - one.values)) <= 1e-9


def test_group_closed_form_requires_offset_grid(sl2c):
    g = il.Grid.symmetric(32.0, 2 ** 13)
    f = il.SampledFunction.from_callable(g, lambda H: np.exp(-H ** 2))
    with pytest.raises(il.WallSingularityError):
        il.evolve_group_closed_form(sl2c, f, il.SchrodingerParams(t0=0.5))


def test_group_closed_form_passes_zero_through(sl2c, offset_grid):
    f = il.SampledFunction(offset_grid,
                           np.zeros(offset_grid.n_points, dtype=complex))
    u = il.evolve_group_closed_form(sl2c, f, il.SchrodingerParams(t0=0.7))
    assert u.grid == offset_grid
    assert np.all(u.values == 0.0)


def test_group_mode_rejects_potential(sl2c, group_grid):
    f = il.SampledFunction.from_callable(group_grid, lambda H: np.exp(-H ** 2))
    with pytest.raises(ValueError):
        il.evolve_group_spectral(sl2c, f, il.SchrodingerParams(t0=0.5, c=1.0))


@pytest.mark.parametrize("mode", ["euclidean", "group"])
def test_residual_second_order(sl2c, mode):
    res = []
    for k in (11, 12, 13):
        if mode == "euclidean":
            g = il.Grid.symmetric(64.0, 2 ** k)
            f = il.SampledFunction.from_callable(g, lambda x: np.exp(-x ** 2))
            p = il.SchrodingerParams(t0=0.5, c=0.7)
            ev = lambda t: il.evolve_spectral(
                f, il.SchrodingerParams(t0=t, c=0.7))
        else:
            g = il.Grid.symmetric(32.0, 2 ** k, offset=True)
            f = il.SampledFunction.from_callable(g, lambda H: np.exp(-H ** 2))
            p = il.SchrodingerParams(t0=0.5)
            ev = lambda t: il.evolve_group_spectral(
                sl2c, f, il.SchrodingerParams(t0=t))
        d = g.step
        rep = il.pde_residual(ev(p.t0 - d), ev(p.t0), ev(p.t0 + d), d, p,
                              mode=mode, G=sl2c if mode == "group" else None)
        res.append(rep.relative)
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all(orders >= 1.9)


def test_residual_flags_corrupted_solution(sl2c):
    g = il.Grid.symmetric(64.0, 2 ** 12)
    f = il.SampledFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    p = il.SchrodingerParams(t0=0.5)
    d = g.step
    ev = lambda t: il.evolve_spectral(f, il.SchrodingerParams(t0=t))
    um, u0, up = ev(p.t0 - d), ev(p.t0), ev(p.t0 + d)
    honest = il.pde_residual(um, u0, up, d, p).relative
    rng = np.random.default_rng(11)
    noisy = u0.with_values(
        u0.values * (1.0 + 0.05 * rng.standard_normal(u0.values.size)))
    corrupted = il.pde_residual(um, noisy, up, d, p).relative
    assert corrupted >= 1e-1
    assert corrupted > 50 * honest


def test_residual_report_serializes():
    g = il.Grid.symmetric(64.0, 2 ** 11)
    f = il.SampledFunction.from_callable(g, lambda x: np.exp(-x ** 2))
    p = il.SchrodingerParams(t0=0.5)
    d = g.step
    ev = lambda t: il.evolve_spectral(f, il.SchrodingerParams(t0=t))
    rep = il.pde_residual(ev(p.t0 - d), ev(p.t0), ev(p.t0 + d), d, p)
    blob = rep.to_json_dict()
    assert blob["mode"] == "euclidean"
    assert blob["relative"] == pytest.approx(rep.relative)


def test_residual_rejects_mismatched_grids(gaussian_on_line):
    other = il.Grid.symmetric(64.0, 2 ** 13)
    g2 = il.SampledFunction.from_callable(other, lambda x: np.exp(-x ** 2))
    with pytest.raises(ValueError):
        il.pde_residual(gaussian_on_line, g2, g2, 0.01,
                        il.SchrodingerParams(t0=0.5))


def test_params_validation():
    with pytest.raises(ValueError):
        il.SchrodingerParams(t0=np.inf)
    with pytest.raises(ValueError):
        il.SchrodingerParams(t0=1.0, c=np.nan)
