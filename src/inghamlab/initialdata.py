"""Stock initial profiles for the evolution experiments."""
from __future__ import annotations

import numpy as np

from .profiles import registry_lookup

# integral of exp(-1/(1-y^2)) over (-1, 1) as quadrature returned it, one
# ulp below the correctly rounded 0.4439938161680794, so bump and witness
# artifacts keep their bits; a literal, so importing computes nothing
_UNIT_BUMP_MASS = 0.44399381616807937


def gaussian(center: float = 0.0, width: float = 1.0):
    if width <= 0:
        raise ValueError("width must be positive")

    def profile(x):
        z = (np.asarray(x, dtype=float) - center) / width
        return np.exp(-0.5 * z * z).astype(complex)

    return profile


def gaussian_hermite(order: int = 1, width: float = 1.0):
    """Hermite function H_n(x/w) * exp(-x^2/(2 w^2)); odd orders vanish at 0."""
    if width <= 0:
        raise ValueError("width must be positive")
    if order < 0 or int(order) != order:
        raise ValueError("order must be a nonnegative integer")
    coeffs = np.zeros(int(order) + 1)
    coeffs[-1] = 1.0

    def profile(x):
        z = np.asarray(x, dtype=float) / width
        return (np.polynomial.hermite.hermval(z, coeffs)
                * np.exp(-0.5 * z * z)).astype(complex)

    return profile


def gaussian_modulated(freq: float = 4.0, center: float = 0.0,
                       width: float = 1.0):
    base = gaussian(center, width)

    def profile(x):
        x = np.asarray(x, dtype=float)
        return np.exp(1j * freq * x) * base(x)

    return profile


def gaussian_pair(separation: float = 4.0, width: float = 1.0):
    left = gaussian(-0.5 * separation, width)
    right = gaussian(0.5 * separation, width)

    def profile(x):
        return left(x) + right(x)

    return profile


def bump_profile(y) -> np.ndarray:
    """exp(-1/(1-y^2)) inside |y| < 1, identically zero outside."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    yi = y[inside]
    out[inside] = np.exp(-1.0 / (1.0 - yi * yi))
    return out


def smooth_bump(lo: float, hi: float):
    """Smooth function supported exactly on [lo, hi] that integrates to 1.

    The normalising constant is the literal ``_UNIT_BUMP_MASS``.
    """
    if not hi > lo:
        raise ValueError("need lo < hi")
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    scale = 1.0 / (_UNIT_BUMP_MASS * half)

    def profile(x):
        y = (np.asarray(x, dtype=float) - mid) / half
        return (scale * bump_profile(y)).astype(complex)

    return profile


INITIAL_PROFILES = {
    "gaussian": gaussian,
    "gaussian-hermite": gaussian_hermite,
    "modulated": gaussian_modulated,
    "gaussian-pair": gaussian_pair,
    "bump": smooth_bump,
}


def profile_from_config(name: str, params: dict | None = None):
    return registry_lookup(INITIAL_PROFILES, "initial profile", name, params)
