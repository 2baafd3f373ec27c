"""Compactly supported functions with prescribed transform decay.

The construction multiplies normalized sinc factors sin(a_k xi)/(a_k xi)
on the transform side, which is an infinite convolution of scaled
indicator bumps on the function side.  With half-widths a_k drawn from a
decreasing modulation theta on the dyadic schedule a_k = theta(2**k),
the half-width sum converges exactly when the theta integral does, the
realized function is supported in [-sum a_k, sum a_k], and its transform
obeys the envelope exp(-psi/2) with the declared slack 1/2 on windows a
certificate can check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopeReport, fit_nested
from .fourier import inverse_fourier_transform, sin_ratio
from .grids import Grid, SampledFunction, SpectralFunction
from .profiles import DecayProfile, ProfileError, ProfileKind

TRUNCATION_TOL = 1e-8
_MAX_TERMS = 1023  # last k with 2.0**k finite in float64
_BLOCK_RATIO_MAX = 0.8
# certificate grid cap: about 235 MB across the product's three buffers,
# xi, psi and the ratio
_MAX_CERTIFICATE_POINTS = 2 ** 22


class DivergentProfileError(ValueError):
    """Half-width partial sums show no sign of converging."""


class GridTooSmallError(ValueError):
    """The target grid does not cover the support with a margin."""


@dataclass(frozen=True)
class SincProductSpec:
    """Finite schedule of positive, nonincreasing sinc half-widths."""

    half_widths: tuple
    source_name: str = ""

    def __post_init__(self):
        a = np.asarray(self.half_widths, dtype=float)
        if a.size:
            if not np.all(np.isfinite(a)) or not np.all(a > 0):
                raise ValueError("half-widths must be finite and strictly positive")
            if np.any(np.diff(a) > 1e-12 * a[0]):
                raise ValueError("half-widths must be nonincreasing")
        object.__setattr__(self, "half_widths", tuple(float(v) for v in a))

    @property
    def n_factors(self) -> int:
        return len(self.half_widths)

    @property
    def is_trivial(self) -> bool:
        return not self.half_widths

    @property
    def support_radius(self) -> float:
        return float(np.sum(self.half_widths))

    def to_json_dict(self) -> dict:
        return {"half_widths": list(self.half_widths),
                "source": self.source_name,
                "support_radius": self.support_radius}


def _block_sums_converge(a: np.ndarray) -> bool:
    # partial sums over dyadic index blocks; geometric decay of the block
    # sums is the Cauchy signature of a convergent schedule
    sums = []
    j = 0
    while 2 ** (j + 1) <= a.size:
        sums.append(float(np.sum(a[2 ** j:2 ** (j + 1)])))
        j += 1
    if len(sums) < 5:
        return False
    tail = sums[-4:]
    ratios = [tail[i + 1] / tail[i] if tail[i] > 0 else 0.0 for i in range(3)]
    return all(r <= _BLOCK_RATIO_MAX for r in ratios)


def spec_from_theta(theta: DecayProfile, trunc_tol: float = TRUNCATION_TOL,
                    max_terms: int = _MAX_TERMS) -> SincProductSpec:
    """Half-width schedule a_k = theta(2**k), truncated below ``trunc_tol``.

    Terms below the truncation threshold multiply the product by factors
    that are numerically the identity on any usable window, so the
    schedule stops there.  A schedule that never reaches the threshold
    must show geometrically decaying dyadic block sums; otherwise the
    half-width series is treated as divergent and rejected.
    """
    if theta.kind is not ProfileKind.THETA_DECREASING:
        raise ValueError("spec_from_theta requires a theta-kind profile")
    half_widths = []
    truncated = False
    for k in range(1, max_terms + 1):
        a_k = float(theta(2.0 ** k))
        if not np.isfinite(a_k) or a_k < 0:
            raise ProfileError(f"{theta.name}: invalid half-width at k={k}")
        if a_k < trunc_tol:
            truncated = True
            break
        if half_widths and a_k > half_widths[-1] * (1 + 1e-12):
            raise ProfileError(f"{theta.name}: half-widths increase at k={k}")
        half_widths.append(a_k)
    a = np.asarray(half_widths)
    if not truncated and not _block_sums_converge(a):
        raise DivergentProfileError(
            f"{theta.name}: partial sums of theta(2**k) fail the convergence "
            f"test after {len(half_widths)} terms (sum so far {np.sum(a):.3g})")
    return SincProductSpec(tuple(half_widths), source_name=theta.name)


def spec_from_psi(psi: DecayProfile, trunc_tol: float = TRUNCATION_TOL,
                  max_terms: int = _MAX_TERMS) -> SincProductSpec:
    """Schedule derived from a nondecreasing envelope via theta(r) = psi(r)/r.

    The quotient is clamped at r = 1 so the derived modulation is defined
    down to 0; admissibility is enforced by the schedule itself rather
    than by profile validation.
    """
    if psi.kind is not ProfileKind.PSI_NONDECREASING:
        raise ValueError("spec_from_psi requires a psi-kind profile")

    def quotient(r):
        rr = np.maximum(np.asarray(r, dtype=float), 1.0)
        return np.asarray(psi(rr), dtype=float) / rr

    derived = DecayProfile(f"theta[{psi.name}]", ProfileKind.THETA_DECREASING,
                           quotient, validate=False)
    spec = spec_from_theta(derived, trunc_tol=trunc_tol, max_terms=max_terms)
    return SincProductSpec(spec.half_widths, source_name=psi.name)


def evaluate_product_fourier(spec: SincProductSpec, xi) -> np.ndarray:
    """Pointwise product of sinc factors; the empty product is 1.

    A schedule that never reaches the truncation threshold has 1023
    factors, and a fresh array for each of the half-dozen steps of every
    factor took more than half the time, so the loop reuses three
    buffers of xi's shape allocated once per call.  Each factor is still
    rounded as in out = out * sin_ratio(a_k * xi), pi round trip
    included, so the values match that plain loop bit for bit.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    factor, work = np.empty_like(xi), np.empty_like(xi)
    for a_k in spec.half_widths:
        np.multiply(a_k, xi, out=factor)
        sin_ratio(factor, out=factor, work=work)
        np.multiply(out, factor, out=out)
    return out


def realize_function(spec: SincProductSpec, grid: Grid,
                     product=None) -> SampledFunction:
    """Realize the construction on a grid by inverting its transform.

    The grid must cover the support radius with a margin; the result is
    real, even, nonnegative up to spectral truncation, integrates to 1,
    and is supported in [-support_radius, support_radius].  ``product``,
    the transform already evaluated on ``grid.dual_frequencies()``,
    spares a caller that also needs those values a second evaluation.
    """
    if spec.is_trivial:
        raise ValueError("trivial spec (zero envelope) has no realizable profile")
    R = spec.support_radius
    margin = max(4.0 * grid.step, 0.02 * R)
    if grid.x_min > -(R + margin) or grid.x_max < R + margin:
        raise GridTooSmallError(
            f"grid [{grid.x_min:g}, {grid.x_max:g}] does not cover support "
            f"radius {R:g} with margin {margin:g}")
    xi = grid.dual_frequencies()
    if product is None:
        product = evaluate_product_fourier(spec, xi)
    F = SpectralFunction(xi, product, label=f"sinc_product[{spec.source_name}]")
    return inverse_fourier_transform(F, grid)


def support_mass_fractions(f: SampledFunction, radius: float) -> tuple[float, float]:
    """(mass outside |x| > radius + h, total mass), trapezoid weighted."""
    x = f.grid.nodes
    h = f.grid.step
    absv = np.abs(f.values)
    total = float(h * np.sum(absv))
    outside = float(h * np.sum(absv[np.abs(x) > radius + h]))
    return outside, total


def decay_certificate(spec: SincProductSpec, psi, xi0: float = 64.0,
                      n_windows: int = 3, slack: float = 0.10) -> EnvelopeReport:
    """Certify |product(xi)| <= C exp(-psi(|xi|)/2) on nested dyadic windows.

    The fitted constant is the window maximum of |product| * exp(psi/2);
    a stable constant across windows certifies the envelope with the
    declared slack 1/2 in the exponent.
    """
    if spec.is_trivial:
        raise ValueError("trivial spec has no decay certificate")
    try:
        xi_max = xi0 * 2.0 ** (n_windows - 1)
    except OverflowError:
        xi_max = math.inf
    dxi = min(0.01, np.pi / (16.0 * spec.support_radius))
    # np.arange's length before its ceil, checked before anything the
    # size of the grid exists: it doubles with every window
    n_points = (xi_max + dxi) / dxi
    if not n_points <= _MAX_CERTIFICATE_POINTS:
        raise ValueError(
            f"certificate grid of {n_points:.6g} points (xi0 {xi0:g}, count "
            f"{n_windows}, dxi {dxi:g}) exceeds the cap of "
            f"{_MAX_CERTIFICATE_POINTS} points; lower xi0 or count")
    xi = np.arange(0.0, xi_max + dxi, dxi)
    ratio = np.abs(evaluate_product_fourier(spec, xi)) * np.exp(
        0.5 * np.asarray(psi(xi), dtype=float))
    return fit_nested(xi, ratio, xi0, n_windows=n_windows, slack=slack,
                      meta={"source": spec.source_name, "slack_exponent": 0.5,
                            "xi0": xi0})
