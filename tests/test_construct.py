import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import inghamlab as il
from inghamlab import construct
from inghamlab.construct import spec_from_psi, spec_from_theta
from inghamlab.profiles import DecayProfile, ProfileKind


def _step_theta(cut, half=None):
    """1 below cut, optionally 1/2 up to half, then 0."""
    def fn(r):
        r = np.asarray(r, dtype=float)
        out = np.where(r < cut, 1.0, 0.0)
        if half is not None:
            out = np.where((r >= cut) & (r < half), 0.5, out)
        return out
    return DecayProfile("step", ProfileKind.THETA_DECREASING, fn,
                        validate=False)


def test_theta_log_sq_spec_radius_is_block_sum():
    theta = il.theta_log_sq()
    spec = spec_from_theta(theta)
    # schedule starts at k = 1: half-widths theta(2), theta(4), ...
    ks = np.arange(1, spec.n_factors + 1, dtype=float)
    np.testing.assert_allclose(spec.support_radius,
                               np.sum(theta(2.0 ** ks)), rtol=1e-12)
    assert np.all(np.diff(spec.half_widths) <= 0)


def test_divergent_theta_refused():
    with pytest.raises(il.DivergentProfileError):
        spec_from_theta(il.theta_log())


def test_step_theta_gives_single_factor():
    # theta(2) = 1, theta(4) = 0: exactly one factor of half-width 1
    spec = spec_from_theta(_step_theta(3.0))
    assert spec.n_factors == 1
    np.testing.assert_allclose(spec.support_radius, 1.0)


def test_sqrt_psi_radius_closed_form():
    # derived half-widths 2^{-k/2} for k >= 1; geometric sum 1/(sqrt 2 - 1)
    psi = il.PROFILES["psi_power"]()
    spec = spec_from_psi(psi)
    expect = 1.0 / (np.sqrt(2.0) - 1.0)
    # truncation below 1e-8 shaves a tail of comparable size off the sum
    np.testing.assert_allclose(spec.support_radius, expect, rtol=1e-7)


def test_zero_psi_is_trivial():
    spec = spec_from_psi(il.PROFILES["psi_zero"]())
    assert spec.is_trivial
    assert spec.support_radius == 0.0
    xi = np.linspace(-10, 10, 101)
    np.testing.assert_allclose(il.evaluate_product_fourier(spec, xi), 1.0)


def test_linear_psi_refused():
    with pytest.raises(il.DivergentProfileError):
        spec_from_psi(il.PROFILES["psi_linear"]())


def test_single_factor_transform_is_sinc():
    spec = spec_from_theta(_step_theta(3.0))
    xi = np.linspace(-30.0, 30.0, 601)
    got = il.evaluate_product_fourier(spec, xi)
    # normalized indicator of half-width 1: sin(xi)/xi
    expect = np.sinc(xi / np.pi)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def _plain_product(half_widths, xi):
    """The product as a plain loop of np.sinc, one fresh array per step."""
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    for a in half_widths:
        out = out * np.sinc((a * xi) / np.pi)
    return out


_HALF_WIDTHS = st.lists(
    st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
    max_size=40).map(lambda a: sorted(a, reverse=True))
_XI = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                              min_side=1, max_side=16),
                 elements=st.floats(-1e4, 1e4))


# the kernel against the plain loop where factors reach the series tail:
# the loop rounds once per factor, the kernel a few times in all
_TAIL_ULPS = 4
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


@settings(max_examples=200, deadline=None)
@given(half_widths=_HALF_WIDTHS, xi=_XI)
@example(half_widths=[], xi=np.array(0.0))
@example(half_widths=[2.5, 1.0, 1e-300], xi=np.array(0.0))
@example(half_widths=[1.0, 0.5, 0.5],
         xi=np.array([[-7.0, -0.0, 0.0], [1e-320, np.pi, 3e3]]))
def test_product_matches_plain_sinc_loop(half_widths, xi):
    # subnormal half-widths and xi underflow a * xi to 0, where the
    # factor must be exactly 1 as np.sinc makes it
    spec = il.SincProductSpec(tuple(half_widths))
    got = il.evaluate_product_fourier(spec, xi)
    want = np.asarray(_plain_product(spec.half_widths, xi))
    assert got.shape == np.shape(xi)
    m = np.max(np.abs(xi))
    if m == 0.0 or np.all(np.array(half_widths) * m > construct._TAIL_MAX):
        # no factor in the tail: the head loop is the plain loop
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        bound = _TAIL_ULPS * spec.n_factors * (_EPS * np.abs(want) + _TINY)
        assert np.all(np.abs(got - want) <= bound)
    if not half_widths:
        assert np.all(got == 1.0)
    # exact evenness: one call on xi and -xi together
    both = il.evaluate_product_fourier(spec, np.stack([xi, -xi]))
    assert np.array_equal(both[0].view(np.int64), both[1].view(np.int64))


def test_product_tail_is_closer_to_exact_product_than_plain_loop():
    mpmath = pytest.importorskip("mpmath")
    spec = spec_from_theta(il.theta_log_sq())
    assert spec.n_factors == 1023
    xi = np.linspace(0.37, 256.0, 16)
    got = il.evaluate_product_fourier(spec, xi)
    loop = _plain_product(spec.half_widths, xi)
    with mpmath.workdps(30):
        exact = []
        for x in xi:
            p = mpmath.mpf(1)
            for a in spec.half_widths:
                y = mpmath.mpf(a) * mpmath.mpf(x)
                p *= mpmath.sin(y) / y
            exact.append(float(p))
    exact = np.array(exact)
    assert np.max(np.abs(got - exact)) <= np.max(np.abs(loop - exact))


def _bernoulli(n):
    """B_0..B_n as exact fractions, from sum_k C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m))
                 / Fraction(m + 1))
    return b


def test_log_sinc_series_literals_are_the_rounded_exact_coefficients():
    # c_n = -zeta(2n)/(n pi^(2n)) = -2^(2n-1) |B_2n| / (n (2n)!)
    series = construct._LOG_SINC_SERIES
    b = _bernoulli(2 * len(series) + 2)
    exact = [-Fraction(2 ** (2 * n - 1)) * abs(b[2 * n])
             / (n * math.factorial(2 * n)) for n in range(1, len(series) + 2)]
    assert exact[:4] == [Fraction(-1, 6), Fraction(-1, 180),
                         Fraction(-1, 2835), Fraction(-1, 37800)]
    assert series == tuple(float(c) for c in exact[:-1])
    # the first dropped term, at a_k * max|xi| <= _TAIL_MAX, stays
    # below 2e-28 of T_1 = sum over the tail of (a_k * max|xi|)^2
    tau = Fraction(construct._TAIL_MAX)
    assert abs(exact[-1]) * tau ** (2 * len(series)) < Fraction(2, 10 ** 28)


def test_two_factor_convolution_oracle():
    # indicators of half-widths 1 and 1/2 convolve to a plateau of height
    # 1/2 on |x| <= 1/2 with linear ramps reaching 0 at |x| = 3/2
    spec = spec_from_theta(_step_theta(4.0, half=8.0))
    assert spec.half_widths == (1.0, 0.5)
    grid = il.Grid.symmetric(8.0, 2 ** 12)
    f = il.realize_function(spec, grid)
    x = grid.nodes
    expect = 0.5 * np.clip(1.5 - np.abs(x), 0.0, 1.0)
    assert np.max(np.abs(f.values.real - expect)) < 1e-3
    np.testing.assert_allclose(f.values.imag, 0.0, atol=1e-10)


def test_realized_function_mass_stays_inside_support():
    spec = spec_from_theta(il.theta_log_sq())
    grid = il.Grid.symmetric(16.0, 4096)
    f = il.realize_function(spec, grid)
    outside, total = il.support_mass_fractions(f, spec.support_radius)
    assert total > 0
    assert outside / total < 1e-6
    # product value 1 at xi = 0 pins unit mass
    mass = grid.step * np.sum(f.values.real)
    np.testing.assert_allclose(mass, 1.0, atol=1e-9)


def test_realize_needs_room_for_support():
    spec = spec_from_theta(il.theta_log_sq())
    small = il.Grid.symmetric(1.0, 256)
    with pytest.raises(il.GridTooSmallError):
        il.realize_function(spec, small)


def test_realize_rejects_trivial_spec():
    spec = spec_from_psi(il.PROFILES["psi_zero"]())
    with pytest.raises(ValueError):
        il.realize_function(spec, il.Grid.symmetric(4.0, 256))


def test_certificate_holds_for_convergent_theta():
    theta = il.theta_log_sq()
    spec = spec_from_theta(theta)
    cert = il.decay_certificate(spec, il.psi_from_theta(theta))
    assert cert.verdict == il.HOLDS
    assert len(cert.windows) == 3
    assert cert.meta["slack_exponent"] == 0.5


def test_certificate_fails_for_overclaimed_decay():
    # the product decays subexponentially, so an exp(-r/4) claim must
    # blow the window constants apart
    theta = il.theta_log_sq()
    spec = spec_from_theta(theta)
    cert = il.decay_certificate(spec, il.PROFILES["psi_linear"](slope=0.5))
    assert cert.verdict == il.FAILS
    assert cert.growth_factor > 10.0


def test_certificate_refuses_a_grid_past_the_cap(monkeypatch):
    # 30 windows from xi0 = 64 would need some 3.4e12 points (25 TiB);
    # the refusal must come before the product is evaluated
    def never(*args):
        raise AssertionError("product evaluated before the refusal")

    monkeypatch.setattr(construct, "evaluate_product_fourier", never)
    spec = spec_from_theta(il.theta_log_sq())
    psi = il.psi_from_theta(il.theta_log_sq())
    with pytest.raises(ValueError, match=r"3\.43597e\+12 points \(xi0 64, "
                       r"count 30, dxi 0\.01\) exceeds the cap of 4194304"):
        il.decay_certificate(spec, psi, n_windows=30)
    # the smallest refused count at xi0 = 64; 10 windows take 3,276,801
    with pytest.raises(ValueError, match="6.5536e[+]06 points"):
        il.decay_certificate(spec, psi, n_windows=11)
    with pytest.raises(ValueError, match="inf points"):
        il.decay_certificate(spec, psi, n_windows=2000)


def test_spec_json_dict():
    spec = spec_from_theta(il.theta_log_sq())
    blob = spec.to_json_dict()
    assert len(blob["half_widths"]) == spec.n_factors
    assert blob["support_radius"] == pytest.approx(spec.support_radius)
    # theta_log_sq never falls below TRUNCATION_TOL: the 1023-term cap ends it
    assert blob["stopped_by"] == "term cap"
    psi = il.PROFILES["psi_power"](exponent=0.6)
    assert spec_from_psi(psi).to_json_dict()["stopped_by"] == "tolerance"


def test_spec_validation():
    with pytest.raises(ValueError):
        il.SincProductSpec((0.5, 1.0))  # increasing
    with pytest.raises(ValueError):
        il.SincProductSpec((1.0, -0.5))
    with pytest.raises(ValueError):
        spec_from_theta(il.PROFILES["psi_linear"]())  # wrong kind
