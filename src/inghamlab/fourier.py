"""Continuous Fourier transforms by quadrature on uniform grids.

Convention: F(xi) = integral of f(x) exp(-i x xi) dx, and the inverse
carries the factor 1/(2 pi).  Integrals are evaluated with the periodic
trapezoid rule on the grid (uniform weights h; for samples that decay at
the grid boundary this coincides with the classical trapezoid rule).

The sum runs on one of three paths.  When the requested frequencies
form the grid's FFT dual it is an FFT.  When they are any other uniform
set (the closed-form flows ask for xi = c x) it is a chirp-z transform
(Bluestein's algorithm): with both sets indexed about their centres,
p = n - (N-1)/2 and q = k - (M-1)/2, the phase splits as

    xi_k x_n = c_xi c_x + c_xi dx p + c_x dxi q
               + dx dxi (q^2 + p^2 - (q - p)^2) / 2,

and the (q - p)^2 term turns the sum into a convolution done by FFT.
The quadratic arguments reach some 1e4 rad at 2**14 points, and their
rounding errors do not cancel as the three terms combine, so each is
formed as an exact two-term product and reduced mod 2 pi with a
three-part constant before it meets exp.  A textbook chirp-z, indexed
from the first node in plain float64, loses two digits at the far
nodes of the group flow (7e-8 against 4e-10 relative).  The
convolution itself takes the leading bits of both operands as
integers, whose convolution the FFT recovers exactly after rounding,
so FFT rounding is confined to the small remainders.  Every other set goes through a direct sum in
blocks of at most 32 MiB.  The inverse shares the non-dual
paths with the roles of nodes and frequencies swapped.  The direct sum,
called on its own, is the oracle for the two fast paths.  The module
also holds sin_ratio, the sin(x)/x that the sinc products and the
spherical functions both evaluate.

Aliasing bound: the quadrature error at frequency xi equals the sum of
the true transform over the images xi + 2*pi*m/h, so samples whose
spectrum has decayed by the Nyquist frequency pi/h are required for
accurate values.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import (Grid, SampledFunction, SpectralFunction,
                    validated_frequencies)

# the direct sum's phase block stays under this many bytes at any grid size
_BLOCK_BYTES = 32 * 2 ** 20

# 2 pi = _TWO_PI_1 + _TWO_PI_2 + _TWO_PI_3 to 4e-37 (Cody-Waite); the first
# two parts carry 31 and 32 significant bits, so k * part is exact for
# |k| < 2**21, i.e. for arguments up to about 1.3e7 rad
_TWO_PI_1 = 6.2831853069365025
_TWO_PI_2 = 2.4308402025215864e-10
_TWO_PI_3 = 8.089064995183803e-21
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split into 26 + 27 bits
_EPS = float(np.finfo(float).eps)  # np.sinc's stand-in for y = 0


def _is_dual(xi: np.ndarray, grid: Grid) -> bool:
    if xi.size != grid.n_points:
        return False
    dual = grid.dual_frequencies()
    scale = max(1.0, float(np.max(np.abs(dual))))
    return bool(np.max(np.abs(xi - dual)) <= 1e-12 * scale)


def _is_uniform(a: np.ndarray) -> bool:
    """Two or more points, evenly spaced to 1e-12 of max |a|."""
    if a.size < 2:
        return False
    ideal = np.linspace(a[0], a[-1], a.size)
    return bool(np.max(np.abs(a - ideal)) <= 1e-12 * np.max(np.abs(a)))


def sin_ratio(x, out=None, *, work=None) -> np.ndarray:
    """sin(x)/x with the removable singularity at 0 filled in.

    np.sinc(x / pi) written out: y = pi * (x / pi), exact zeros of y
    set to machine epsilon (sin(eps)/eps is exactly 1), then sin(y)/y.
    The pi round trip does nothing mathematically but can move y by an
    ulp, and the spherical functions and the large factors of the sinc
    products (the rest go through a series) have always been computed
    through it, so it stays; written out, the bits no longer depend on
    how a numpy version spells np.sinc.  ``out`` takes the result as a
    ufunc's would and may be ``x``; ``work``, shaped like x, receives
    sin(y).  With both given, only a one-byte-per-point zero mask is
    allocated, so a loop over many factors reuses its float buffers.
    """
    x = np.asarray(x, dtype=float)
    y = np.divide(x, np.pi, out=np.empty_like(x) if out is None else out)
    np.multiply(np.pi, y, out=y)
    np.copyto(y, _EPS, where=y == 0.0)
    return np.divide(np.sin(y, out=work), y, out=y)


def _direct_sum(x: np.ndarray, values: np.ndarray, h: float, xi: np.ndarray,
                sign: float) -> np.ndarray:
    rows = max(1, _BLOCK_BYTES // (16 * x.size))
    out = np.empty(xi.size, dtype=complex)
    for start in range(0, xi.size, rows):
        arg = np.outer(xi[start:start + rows], x)
        # exp(sign i arg) from cos and sin: the same bits, without complex exp
        phases = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=phases.real)
        np.sin(arg, out=phases.imag)
        if sign < 0:
            np.negative(phases.imag, out=phases.imag)
        out[start:start + rows] = phases @ values
    return h * out


def _split(a):
    hi = _SPLITTER * a
    hi = hi - (hi - a)
    return hi, a - hi


def _chirp(alpha: float, j: np.ndarray, sign: float) -> np.ndarray:
    """exp(sign i alpha j^2) with alpha j^2 reduced mod 2 pi exactly.

    j^2 is exact (j is an integer or half-integer well below 2**26), so
    Dekker's product gives alpha j^2 = hi + lo with no rounding, and the
    Cody-Waite steps take whole turns off hi with exact products.
    """
    jj = j * j
    hi = alpha * jj
    a_hi, a_lo = _split(alpha)
    j_hi, j_lo = _split(jj)
    lo = ((a_hi * j_hi - hi) + a_hi * j_lo + a_lo * j_hi) + a_lo * j_lo
    turns = np.rint(hi / (2.0 * np.pi))
    r = ((hi - turns * _TWO_PI_1) - turns * _TWO_PI_2) + (lo - turns * _TWO_PI_3)
    return np.exp(sign * 1j * r)


def _leading_bits(u: np.ndarray, bits: int):
    """u = scale * top + rest, with top's parts integers of at most ``bits`` bits."""
    scale = 2.0 ** (math.frexp(float(np.max(np.abs(u.view(float)))))[1] - bits)
    top = np.rint(u / scale)
    return scale, top, u - scale * top


def _scaled(z: np.ndarray, k: int) -> np.ndarray:
    """z * 2**k, part by part; exact unless a part leaves the normal range."""
    out = np.empty_like(z)
    out.real, out.imag = np.ldexp(z.real, k), np.ldexp(z.imag, k)
    return out


def _convolve(a: np.ndarray, kernel: np.ndarray, m: int) -> np.ndarray:
    """First m entries of the circular convolution of a, zero padded, with kernel.

    The leading bits of each operand are convolved as integers, whose
    sums stay below 2**42, so the FFT result rounds back to them exactly;
    FFT rounding then only touches the products with the remainders,
    which are 2**-bits of the whole.  A plain FFT convolution is off by
    a few 1e-16 of the 2-norm of a at every entry; next to the wall of
    the group flow the sum cancels to 1e-7 of that norm, which left
    errors near 1e-8 relative.
    """
    size = kernel.size
    bits = (41 - size.bit_length()) // 2
    sa, ta, ra = _leading_bits(a, bits)
    sk, tk, rk = _leading_bits(kernel, bits)
    ta_hat = np.fft.fft(ta, size)
    tk_hat, rk_hat = np.fft.fft(tk), np.fft.fft(rk)
    exact = np.rint(np.fft.ifft(ta_hat * tk_hat)[:m])
    rest = np.fft.ifft(sa * ta_hat * rk_hat
                       + np.fft.fft(ra, size) * (sk * tk_hat + rk_hat))[:m]
    return sa * sk * exact + rest


def _chirp_sum(x: np.ndarray, values: np.ndarray, h: float, xi: np.ndarray,
               sign: float) -> np.ndarray:
    """The sum of :func:`_direct_sum` for uniform x and xi, in O((N+M) log).

    Either set may run downwards; each is taken as the uniform set
    through its end points.  Values all below 1/2 in size are summed
    scaled up by an exact power of two: in :func:`_leading_bits` a
    subnormal scale would turn the integer split into inf and NaN.
    """
    e = math.frexp(float(np.max(np.abs(values))))[1]
    if e < 0:
        return _scaled(_chirp_sum(x, _scaled(values, -e), h, xi, sign), e)
    n, m = x.size, xi.size
    cx, dx = 0.5 * (x[0] + x[-1]), (x[-1] - x[0]) / (n - 1)
    cxi, dxi = 0.5 * (xi[0] + xi[-1]), (xi[-1] - xi[0]) / (m - 1)
    p = np.arange(n) - 0.5 * (n - 1)
    q = np.arange(m) - 0.5 * (m - 1)
    alpha = 0.5 * dx * dxi
    a = values * np.exp(sign * 1j * (cxi * dx) * p) * _chirp(alpha, p, sign)
    # q - p over every index lag k - n in [-(n - 1), m - 1]
    lag = np.arange(1 - n, m) - 0.5 * (m - n)
    b = _chirp(alpha, lag, -sign)
    size = 1 << (n + m - 2).bit_length()  # n + m - 1 or more: no wrap-around
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = b[n - 1:]
    kernel[size - n + 1:] = b[:n - 1]
    conv = _convolve(a, kernel, m)
    outer = np.exp(sign * 1j * (cxi * cx + (cx * dxi) * q)) * _chirp(alpha, q, sign)
    return h * outer * conv


def _nondual_sum(x: np.ndarray, values: np.ndarray, h: float, xi: np.ndarray,
                 sign: float) -> np.ndarray:
    """h * sum_n values_n exp(sign i xi_k x_n): chirp-z when both sets are
    uniform, otherwise the direct sum."""
    if _is_uniform(x) and _is_uniform(xi):
        return _chirp_sum(x, values, h, xi, sign)
    return _direct_sum(x, values, h, xi, sign)


def fourier_transform(f: SampledFunction, xi_grid=None) -> SpectralFunction:
    """Transform of the sampled function at the requested frequencies.

    With ``xi_grid`` omitted the FFT dual grid of ``f.grid`` is used and
    the sum is FFT-accelerated; an explicit frequency set must be
    strictly increasing.  It is summed by FFT when it matches the dual
    grid, by the chirp-z transform when it is otherwise uniform, and
    directly when it is not.
    """
    grid = f.grid
    h = grid.step
    x0 = grid.nodes[0]
    if xi_grid is None:
        xi = grid.dual_frequencies()
        use_fft = True
    else:
        xi = validated_frequencies(np.atleast_1d(xi_grid))
        use_fft = _is_dual(xi, grid)
    if use_fft:
        vals = np.fft.fftshift(np.fft.fft(f.values)) * h * np.exp(-1j * x0 * xi)
    else:
        vals = _nondual_sum(grid.nodes, f.values, h, xi, -1.0)
    return SpectralFunction(xi, vals, label=f.label)


def fourier_transform_direct(f: SampledFunction, xi_grid) -> SpectralFunction:
    """Slow direct-sum oracle for :func:`fourier_transform`."""
    xi = validated_frequencies(np.atleast_1d(xi_grid))
    vals = _direct_sum(f.grid.nodes, f.values, f.grid.step, xi, -1.0)
    return SpectralFunction(xi, vals, label=f.label)


def _trapezoid_weights(xi: np.ndarray) -> np.ndarray:
    if xi.size == 1:
        return np.ones(1)
    w = np.empty(xi.size)
    w[1:-1] = 0.5 * (xi[2:] - xi[:-2])
    w[0] = 0.5 * (xi[1] - xi[0])
    w[-1] = 0.5 * (xi[-1] - xi[-2])
    return w


def inverse_fourier_transform(F: SpectralFunction, grid: Grid) -> SampledFunction:
    """Inverse transform of spectral samples onto the target grid.

    On the exact FFT dual of ``grid`` this inverts
    :func:`fourier_transform` to rounding error.  Other frequency sets
    are integrated with trapezoid weights in xi, by the chirp-z
    transform when the set is uniform and directly when it is not.
    """
    xi = F.xi_values
    if _is_dual(xi, grid):
        x0 = grid.nodes[0]
        a = np.fft.ifftshift(F.values * np.exp(1j * x0 * xi))
        vals = np.fft.ifft(a) / grid.step
    else:
        # the forward sum with nodes and frequencies swapped; h = 1.0 is exact
        weighted = F.values * _trapezoid_weights(xi)
        vals = _nondual_sum(xi, weighted, 1.0, grid.nodes, +1.0) / (2.0 * np.pi)
    return SampledFunction(grid, vals, label=F.label)


def l2_norm(f: SampledFunction) -> float:
    """Trapezoidal L2 norm of the samples."""
    return float(np.sqrt(f.grid.step * np.sum(np.abs(f.values) ** 2)))


def spectral_l2_norm(F: SpectralFunction) -> float:
    """Trapezoidal L2 norm over the frequency set, Plancherel-normalized.

    Carries the 1/sqrt(2 pi) of the inversion so that for a well
    sampled function the transform is an isometry: l2_norm(f) equals
    spectral_l2_norm(fourier_transform(f)).
    """
    w = _trapezoid_weights(F.xi_values)
    return float(np.sqrt(np.sum(w * np.abs(F.values) ** 2) / (2.0 * np.pi)))
