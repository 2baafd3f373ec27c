import numpy as np
import pytest
from scipy.integrate import quad

import inghamlab.initialdata as idata


def test_registry_and_config():
    assert set(idata.INITIAL_PROFILES) == {"gaussian", "gaussian-hermite",
                                           "modulated", "gaussian-pair",
                                           "bump"}
    f = idata.profile_from_config("gaussian", {"width": 2.0})
    np.testing.assert_allclose(f(0.0), 1.0)
    with pytest.raises(ValueError):
        idata.profile_from_config("nope")


def test_gaussian_center_and_width():
    f = idata.gaussian(center=1.0, width=0.5)
    np.testing.assert_allclose(f(1.0), 1.0)
    # one width from the center: exp(-1/2)
    np.testing.assert_allclose(f(1.5), np.exp(-0.5))


def test_hermite_factor():
    f = idata.gaussian_hermite(order=2, width=1.0)
    x = np.array([0.0, 0.5, 1.3])
    # H_2(x) = 4x^2 - 2 against the physicists' convention
    np.testing.assert_allclose(f(x), (4 * x ** 2 - 2) * np.exp(-0.5 * x ** 2))


def test_pair_is_even():
    f = idata.gaussian_pair(separation=3.0, width=1.0)
    x = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(f(x), f(-x), atol=1e-15)


def test_bump_support_and_mass():
    lo, hi = 0.25, 1.0
    f = idata.smooth_bump(lo, hi)
    assert f(lo - 1e-9) == 0.0
    assert f(hi + 1e-9) == 0.0
    assert f(0.5 * (lo + hi)) > 0.0
    mass = quad(lambda x: float(f(x).real), lo, hi, epsabs=1e-12)[0]
    np.testing.assert_allclose(mass, 1.0, atol=1e-9)


def test_unit_bump_mass_matches_quadrature():
    mass, _ = quad(lambda y: float(np.exp(-1.0 / (1.0 - y * y))), -1.0, 1.0,
                   epsabs=1e-14, epsrel=1e-13)
    assert idata._UNIT_BUMP_MASS == pytest.approx(mass, rel=1e-15)


def test_bump_rejects_bad_interval():
    with pytest.raises(ValueError):
        idata.smooth_bump(1.0, 0.5)


def test_bump_profile_base_shape():
    y = np.array([-1.0, 0.0, 1.0])
    vals = idata.bump_profile(y)
    assert vals[0] == 0.0 and vals[2] == 0.0
    np.testing.assert_allclose(vals[1], np.exp(-1.0))
