"""Continuous Fourier transforms by quadrature on uniform grids.

Convention: F(xi) = integral of f(x) exp(-i x xi) dx, and the inverse
carries the factor 1/(2 pi).  Integrals are evaluated with the periodic
trapezoid rule on the grid (uniform weights h; for samples that decay at
the grid boundary this coincides with the classical trapezoid rule).
When the requested frequencies form the grid's FFT dual the sum is
evaluated with an FFT; any other frequency set goes through one chunked
direct sum, which the inverse shares with the roles of nodes and
frequencies swapped.  The same direct sum, called on its own, is the
oracle for the FFT path.  The module also holds sin_ratio, the sin(x)/x
that the sinc products and the spherical functions both evaluate.

Aliasing bound: the quadrature error at frequency xi equals the sum of
the true transform over the images xi + 2*pi*m/h, so samples whose
spectrum has decayed by the Nyquist frequency pi/h are required for
accurate values.
"""
from __future__ import annotations

import numpy as np

from .grids import (Grid, SampledFunction, SpectralFunction,
                    validated_frequencies)

_CHUNK = 512


def _is_dual(xi: np.ndarray, grid: Grid) -> bool:
    if xi.size != grid.n_points:
        return False
    dual = grid.dual_frequencies()
    scale = max(1.0, float(np.max(np.abs(dual))))
    return bool(np.max(np.abs(xi - dual)) <= 1e-12 * scale)


def sin_ratio(x) -> np.ndarray:
    """sin(x)/x with the removable singularity at 0 filled in."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _direct_sum(x: np.ndarray, values: np.ndarray, h: float, xi: np.ndarray,
                sign: float) -> np.ndarray:
    out = np.empty(xi.size, dtype=complex)
    for start in range(0, xi.size, _CHUNK):
        block = xi[start:start + _CHUNK]
        phases = np.exp(sign * 1j * np.outer(block, x))
        out[start:start + _CHUNK] = phases @ values
    return h * out


def fourier_transform(f: SampledFunction, xi_grid=None) -> SpectralFunction:
    """Transform of the sampled function at the requested frequencies.

    With ``xi_grid`` omitted the FFT dual grid of ``f.grid`` is used and
    the sum is FFT-accelerated; an explicit frequency set must be
    strictly increasing and is evaluated by direct summation unless it
    matches the dual grid.
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
        vals = _direct_sum(grid.nodes, f.values, h, xi, -1.0)
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
    are integrated with trapezoid weights in xi.
    """
    xi = F.xi_values
    if _is_dual(xi, grid):
        x0 = grid.nodes[0]
        a = np.fft.ifftshift(F.values * np.exp(1j * x0 * xi))
        vals = np.fft.ifft(a) / grid.step
    else:
        # the forward sum with nodes and frequencies swapped; h = 1.0 is exact
        weighted = F.values * _trapezoid_weights(xi)
        vals = _direct_sum(xi, weighted, 1.0, grid.nodes, +1.0) / (2.0 * np.pi)
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
