"""Compactly supported functions with prescribed transform decay.

The construction multiplies normalized sinc factors sin(a_k xi)/(a_k xi)
on the transform side, which is an infinite convolution of scaled
indicator bumps on the function side.  With half-widths a_k drawn from a
decreasing modulation theta on the dyadic schedule a_k = theta(2**k),
the half-width sum converges exactly when the theta integral does, the
realized function is supported in [-sum a_k, sum a_k], and its transform
obeys the envelope exp(-psi/2) with the declared slack 1/2 on windows a
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
from .profiles import DecayProfile, ProfileError, ProfileKind

TRUNCATION_TOL = 1e-8
_MAX_TERMS = 1023  # last k with 2.0**k finite in float64
_BLOCK_RATIO_MAX = 0.8
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
    half-width series is treated as divergent and rejected.  The spec's
    ``stopped_by`` records which of the two ended the schedule.
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
    return SincProductSpec(tuple(half_widths), source_name=theta.name,
                           stopped_by="tolerance" if truncated else "term cap")


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
