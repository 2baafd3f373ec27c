"""Free Schrodinger flows on the line and on the rank-one model space.

Conventions.  On the line the equation is

    i du/dt = -u'' + c u,

so the spectral multiplier is exp(-i t (xi^2 + c)) in the transform
convention of :mod:`inghamlab.fourier`, and the fundamental solution is

    gamma_{c,t}(x) = (4 pi |t|)^{-n/2} exp(-i c t)
                     * exp(-i sign(t) pi n / 4) * exp(i |x|^2 / (4 t)).

On the model space the multiplier is exp(-i t (|lambda|_B^2 + |rho|_B^2))
against the spherical transform; in physical coordinates the generator is
the invariant Laplacian

    L u = phi^{-1} [ (1/b^2) (u phi)'' - |rho|_B^2 (u phi) ],

with i du/dt = -L u.  The group flow also has a closed form: u phi is a
Euclidean-style chirp transform of g_f = exp(i |Y|_B^2 / (4t)) f phi.
Its scalar prefactor is not hard coded; it is calibrated once per model
against the spectral path and cached, which keeps the two paths honest
against each other.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fourier import fourier_transform, inverse_fourier_transform
from .grids import Grid, SampledFunction, SpectralFunction
from .groups import (GroupModel, SphericalTransform, WallSingularityError,
                     c_inverse, inverse_spherical, phi_weight,
                     require_rank_one, spherical_transform_reduced)


class InvalidTimeError(ValueError):
    """Evolution time unusable for the requested path."""


class AliasingWarning(UserWarning):
    """Spectral mass near the grid's frequency edge; results may alias."""


_TAIL_FRACTION_TOL = 1e-8


@dataclass(frozen=True)
class SchrodingerParams:
    """Evolution time t0, zeroth-order coefficient c, and dimension n.

    ``c`` and ``n`` only apply on the line; the model-space flow fixes
    the zeroth-order term to |rho|_B^2 and lives in the rank of the
    model.
    """

    t0: float
    c: float = 0.0
    n: int = 1

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise InvalidTimeError("t0 must be finite")
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")


def _require_nonzero_time(params: SchrodingerParams):
    if params.t0 == 0.0:
        raise InvalidTimeError("closed-form path needs t0 != 0; "
                               "the spectral path handles t0 = 0")


def kernel_gamma(params: SchrodingerParams, x) -> np.ndarray:
    """Fundamental solution gamma_{c,t} sampled at |x| values."""
    _require_nonzero_time(params)
    t, n = params.t0, params.n
    x = np.asarray(x, dtype=float)
    amp = (4.0 * np.pi * abs(t)) ** (-0.5 * n)
    phase = np.exp(-1j * params.c * t) * np.exp(-1j * np.sign(t) * np.pi * n / 4.0)
    return amp * phase * np.exp(1j * x * x / (4.0 * t))


def _warn_on_tail(xi: np.ndarray, spectral_values: np.ndarray, what: str):
    power = np.abs(spectral_values) ** 2
    total = float(power.sum())
    if total == 0.0:
        return
    cutoff = 0.875 * float(np.max(np.abs(xi)))
    frac = float(power[np.abs(xi) >= cutoff].sum() / total)
    if frac > _TAIL_FRACTION_TOL:
        warnings.warn(
            f"{what}: fraction {frac:.2e} of spectral mass sits in the top "
            f"eighth of the frequency range; refine the grid",
            AliasingWarning, stacklevel=3)


def evolve_spectral(f: SampledFunction, params: SchrodingerParams,
                    check_aliasing: bool = True) -> SampledFunction:
    """Exact flow on the line via the dual-grid multiplier."""
    if params.n != 1:
        raise ValueError("grid evolution is one dimensional")
    fhat = fourier_transform(f)
    if check_aliasing:
        _warn_on_tail(fhat.xi_values, fhat.values, "initial data")
    mult = np.exp(-1j * params.t0 * (fhat.xi_values ** 2 + params.c))
    uhat = SpectralFunction(fhat.xi_values, fhat.values * mult, label=f.label)
    return inverse_fourier_transform(uhat, f.grid)


def evolve_closed_form(f: SampledFunction,
                       params: SchrodingerParams) -> SampledFunction:
    """Chirp-transform-chirp form of the line flow, t0 != 0.

    u(x) = gamma-prefactor * exp(i x^2/4t) * hhat(x/2t) with
    h(y) = exp(i y^2/4t) f(y).  Exercises the arbitrary-frequency
    transform path, so it is a genuine second opinion on the spectral
    route rather than a reshuffling of the same FFT.
    """
    if params.n != 1:
        raise ValueError("grid evolution is one dimensional")
    _require_nonzero_time(params)
    t = params.t0
    x = f.grid.nodes
    chirp = np.exp(1j * x * x / (4.0 * t))
    h_vals = chirp * f.values
    xi = x / (2.0 * t)
    flip = t < 0.0
    hhat = fourier_transform(SampledFunction(f.grid, h_vals),
                             xi[::-1] if flip else xi)
    vals = hhat.values[::-1] if flip else hhat.values
    pref = ((4.0 * np.pi * abs(t)) ** -0.5 * np.exp(-1j * params.c * t)
            * np.exp(-1j * np.sign(t) * np.pi / 4.0))
    return f.with_values(pref * chirp * vals)


def _require_group_usable(G: GroupModel, params: SchrodingerParams):
    require_rank_one(G, "gridded group evolution")
    if params.c != 0.0:
        raise ValueError("the model-space flow fixes the zeroth-order term "
                         "to |rho|_B^2; set c = 0")


def evolve_group_spectral(G: GroupModel, f: SampledFunction,
                          params: SchrodingerParams,
                          check_aliasing: bool = True) -> SampledFunction:
    """Model-space flow through the spherical transform and back."""
    _require_group_usable(G, params)
    F = spherical_transform_reduced(G, f)
    lam = F.lambda_values
    if check_aliasing:
        ghat = F.values * c_inverse(G, lam) / G.weyl_order
        _warn_on_tail(lam, ghat, "initial data")
    mult = np.exp(-1j * params.t0 * (G.b_norm_dual(lam) ** 2
                                     + G.rho_b_norm_sq))
    U = SphericalTransform(lam, F.values * mult, label=f.label)
    return inverse_spherical(G, U, f.grid)


_CALIBRATION_GRID = (24.0, 4096)
_calibration_cache: dict[tuple, complex] = {}


def calibrate_group_constant(G: GroupModel, time_sign: float = 1.0) -> complex:
    """Scalar prefactor of the closed-form model-space flow.

    Determined by matching the closed form against the spectral path on
    a reference Gaussian at the node where |u phi| peaks, then cached
    per model and time direction.  The modulus lands on b/(2 sqrt(pi))
    and the phase on -sign(t) pi/4; tests pin both.
    """
    require_rank_one(G, "calibration")
    sign = 1.0 if time_sign >= 0.0 else -1.0
    key = (G.name, G.root_coeffs, G.b_scales, sign)
    if key in _calibration_cache:
        return _calibration_cache[key]

    radius, n_points = _CALIBRATION_GRID
    grid = Grid.symmetric(radius, n_points, offset=True)
    f = SampledFunction.from_callable(
        grid, lambda H: np.exp(-H * H).astype(complex), label="calibration")
    t = sign * 1.0
    params = SchrodingerParams(t0=t)
    u_sp = evolve_group_spectral(G, f, params, check_aliasing=False)

    H = grid.nodes
    phi = phi_weight(G, H)
    peak = int(np.argmax(np.abs(u_sp.values * phi)))
    H_star = float(H[peak])

    b = G.b_scales[0]
    chirp = np.exp(1j * G.b_norm(H) ** 2 / (4.0 * t))
    g_f = chirp * f.values * phi
    xi_star = b * b * H_star / (2.0 * t)
    ghat = fourier_transform(SampledFunction(grid, g_f),
                             np.asarray([xi_star]))
    raw = (abs(t) ** -0.5 * np.exp(-1j * t * G.rho_b_norm_sq)
           * np.exp(1j * G.b_norm(H_star) ** 2 / (4.0 * t))
           * ghat.values[0]) / phi[peak]
    constant = complex(u_sp.values[peak] / raw)
    _calibration_cache[key] = constant
    return constant


def evolve_group_closed_form(G: GroupModel, f: SampledFunction,
                             params: SchrodingerParams) -> SampledFunction:
    """Chirp form of the model-space flow, t0 != 0.

    Keeps relative accuracy out to the far nodes, where the spectral
    path drowns in the additive noise floor of the inverse transform;
    the decay pipelines therefore run on this path.
    """
    _require_group_usable(G, params)
    _require_nonzero_time(params)
    if f.grid.has_zero_node:
        raise WallSingularityError(
            "closed-form flow divides by phi; use a half-step grid")
    t = params.t0
    H = f.grid.nodes
    phi = phi_weight(G, H)
    b = G.b_scales[0]
    chirp = np.exp(1j * G.b_norm(H) ** 2 / (4.0 * t))
    g_f = chirp * f.values * phi
    xi = b * b * H / (2.0 * t)
    flip = t < 0.0
    ghat = fourier_transform(SampledFunction(f.grid, g_f),
                             xi[::-1] if flip else xi)
    vals = ghat.values[::-1] if flip else ghat.values
    constant = calibrate_group_constant(G, np.sign(t))
    u_phi = (constant * abs(t) ** -0.5
             * np.exp(-1j * t * G.rho_b_norm_sq) * chirp * vals)
    return f.with_values(u_phi / phi)


@dataclass(frozen=True)
class ResidualReport:
    """How well three time slices satisfy the equation, in L2."""

    mode: str
    delta_t: float
    grid_step: float
    residual_l2: float
    scale_l2: float

    @property
    def relative(self) -> float:
        if self.scale_l2 == 0.0:
            return 0.0 if self.residual_l2 == 0.0 else np.inf
        return self.residual_l2 / self.scale_l2

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "delta_t": self.delta_t,
            "grid_step": self.grid_step,
            "residual_l2": self.residual_l2,
            "scale_l2": self.scale_l2,
            "relative": float(self.relative),
        }


def pde_residual(u_minus: SampledFunction, u_mid: SampledFunction,
                 u_plus: SampledFunction, delta: float,
                 params: SchrodingerParams, mode: str = "euclidean",
                 G: GroupModel | None = None) -> ResidualReport:
    """Central-difference residual of i du/dt = -(Laplacian) u + c u.

    The three slices are the solution at t0 - delta, t0, t0 + delta on
    one grid.  Second order in both delta and the grid step; edge nodes
    are excluded from the norms.
    """
    grid = u_mid.grid
    if u_minus.grid != grid or u_plus.grid != grid:
        raise ValueError("time slices must share one grid")
    if delta <= 0:
        raise InvalidTimeError("delta must be positive")
    h = grid.step
    dudt = (u_plus.values - u_minus.values) / (2.0 * delta)
    if mode == "euclidean":
        w = u_mid.values
        lap = (np.roll(w, -1) - 2.0 * w + np.roll(w, 1)) / (h * h)
        spatial = lap - params.c * w
    elif mode == "group":
        if G is None:
            raise ValueError("group mode needs a model")
        require_rank_one(G, "group mode")
        if grid.has_zero_node:
            raise WallSingularityError(
                "group residual divides by phi; use a half-step grid")
        phi = phi_weight(G, grid.nodes)
        w = u_mid.values * phi
        wpp = (np.roll(w, -1) - 2.0 * w + np.roll(w, 1)) / (h * h)
        spatial = (wpp / G.b_scales[0] ** 2 - G.rho_b_norm_sq * w) / phi
    else:
        raise ValueError(f"unknown mode {mode!r}")
    residual = 1j * dudt + spatial
    core = slice(1, -1)

    def _norm(vals):
        return float(np.sqrt(h * np.sum(np.abs(vals[core]) ** 2)))

    return ResidualReport(
        mode=mode, delta_t=float(delta), grid_step=h,
        residual_l2=_norm(residual),
        scale_l2=max(_norm(1j * dudt), _norm(spatial)),
    )
