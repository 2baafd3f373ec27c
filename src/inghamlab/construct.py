"""Compactly supported functions with prescribed transform decay.

The construction multiplies normalized sinc factors sin(a_k xi)/(a_k xi)
on the transform side, which is an infinite convolution of scaled
indicator bumps on the function side.  With half-widths a_k drawn from a
decreasing modulation theta on the dyadic schedule a_k = theta(2**k),
the half-width sum converges exactly when the theta integral does (the
dyadic test of :mod:`inghamlab.profiles` decides which), the realized
function is supported in [-sum a_k, sum a_k], and its transform obeys
the envelope exp(-psi/2) with the declared slack 1/2 on windows a
certificate can check.

The product is evaluated as its few large factors times the exponential
of a short series for the rest (see evaluate_product_fourier), since
schedules that reach the 1023-term cap have mostly tiny factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .envelopes import EnvelopeReport, fit_nested
from .fourier import inverse_fourier_transform, sin_ratio
from .grids import Grid, SampledFunction, SpectralFunction
from .profiles import DecayProfile, dyadic_series, theta_from_psi

# evaluate_product_fourier sums the log-series for the factors with
# a_k * max|xi| up to this and multiplies in the others one by one
_TAIL_MAX = 0.5
# c_n = -zeta(2n) / (n pi^(2n)), n = 1..16: log(sin(x)/x) =
# sum_n c_n x^(2n) for |x| < pi; literals, so importing computes nothing
_LOG_SINC_SERIES = (
    -0.16666666666666666, -0.005555555555555556, -0.0003527336860670194,
    -2.6455026455026456e-05, -2.1377799155576935e-06,
    -1.803670234005331e-07, -1.5661391322766983e-08,
    -1.3884130493737299e-09, -1.2504359176004997e-10,
    -1.1402575602296091e-11, -1.0502923908637557e-12,
    -9.754877841593701e-14, -9.123468230859098e-15,
    -8.5837197618956095e-16, -8.117318009727789e-17,
    -7.710527514116273e-18)
# certificate grid cap: at most xi and the product's three buffers (and
# its one-byte zero mask) are alive at once, about 140 MB at the cap
_MAX_CERTIFICATE_POINTS = 2 ** 22


class DivergentProfileError(ValueError):
    """Half-width partial sums show no sign of converging."""


class GridTooSmallError(ValueError):
    """The target grid does not cover the support with a margin."""


@dataclass(frozen=True)
class SincProductSpec:
    """Finite schedule of positive, nonincreasing sinc half-widths.

    ``stopped_by`` says how a derived schedule ended: "tolerance" when a
    half-width fell below the truncation threshold, "term cap" when the
    schedule ran to its last allowed term; None for a schedule given
    directly.
    """

    half_widths: tuple
    source_name: str = ""
    stopped_by: str | None = None

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
                "stopped_by": self.stopped_by,
                "support_radius": self.support_radius}


def spec_from_theta(theta: DecayProfile) -> SincProductSpec:
    """Half-width schedule a_k = theta(2**k), the terms of the dyadic test.

    The schedule stops where a term falls below the truncation
    tolerance, since smaller factors are numerically the identity on any
    usable window, or at the term cap.  A theta that fails the test of
    :func:`inghamlab.profiles.dyadic_series` is divergent and refused;
    the spec's ``stopped_by`` records how the schedule ended.
    """
    series = dyadic_series(theta)
    if not series.converges:
        raise DivergentProfileError(
            f"{theta.name}: partial sums of theta(2**k) fail the convergence "
            f"test after {len(series.terms)} terms, stopped by "
            f"{series.stopped_by} (sum so far {np.sum(series.terms):.3g})")
    return SincProductSpec(series.terms, source_name=theta.name,
                           stopped_by=series.stopped_by)


def spec_from_psi(psi: DecayProfile) -> SincProductSpec:
    """Schedule derived from a nondecreasing envelope, theta(r) = psi(r)/r."""
    spec = spec_from_theta(theta_from_psi(psi))
    return replace(spec, source_name=psi.name)


def evaluate_product_fourier(spec: SincProductSpec, xi) -> np.ndarray:
    """Pointwise product of sinc factors; the empty product is 1.

    The split depends on m = max|xi| of the call.  The head, the factors
    with a_k * m > _TAIL_MAX, holds every factor that can change sign.
    Its factors are multiplied in one by one, each rounded as in
    out = out * sin_ratio(a_k * xi), pi round trip included, and where
    the head is the whole schedule the values match that plain loop bit
    for bit.  Every other factor has |a_k xi| <= _TAIL_MAX < pi, and
    the tail's product is exp(sum_n c_n T_n u^n), with u = (xi/m)^2,
    T_n = sum over the tail of (a_k m)^(2n), computed once per call, and
    c_n the coefficients of the series of log(sin(x)/x), evaluated by
    Horner in u.  Each term of the series is at most (_TAIL_MAX/pi)^2 of
    the one before, so the first dropped term, below 2e-28 * T_1, bounds
    the truncation; what is left is the rounding of a few operations per
    point, where the plain loop rounds once per factor (1023 times on a
    schedule that stops at the term cap).  The same xi inside arrays of
    different max|xi| may therefore differ in the last bits.  u is
    exactly even in xi, and so is the product.  The whole call works in
    three buffers of xi's shape.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.ones_like(xi)
    factor, work = np.empty_like(xi), np.empty_like(xi)
    m = float(np.abs(xi, out=factor).max(initial=0.0))
    if m == 0.0:
        return out
    a = np.asarray(spec.half_widths)
    head = a * m > _TAIL_MAX
    for a_k in a[head]:
        np.multiply(a_k, xi, out=factor)
        sin_ratio(factor, out=factor, work=work)
        np.multiply(out, factor, out=out)
    t = (a[~head] * m) ** 2
    if t.size:
        power, terms = np.ones_like(t), []
        for c_n in _LOG_SINC_SERIES:
            power *= t
            terms.append(c_n * float(np.sum(power)))
        u = np.divide(xi, m, out=factor)
        np.multiply(u, u, out=u)
        work.fill(terms.pop())
        for term in reversed(terms):
            np.multiply(work, u, out=work)
            np.add(work, term, out=work)
        np.multiply(work, u, out=work)
        np.multiply(out, np.exp(work, out=work), out=out)
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
