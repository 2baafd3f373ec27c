"""Rank-one symmetric-space model and its spherical transform.

The model is the radial picture of a complex semisimple group: an
abelian slice with coordinates H, a Weyl group of sign flips, and a
density weight

    phi(H) = sum over Weyl elements of det(s) * exp(s rho(H)),

which for the concrete rank-one instance is 2 sinh(2H); the invariant
volume density is phi**2.  Spherical functions come out in closed form,

    phi_lambda(H) = prod_i rho_i sin(lambda_i H_i) / (lambda_i sinh(rho_i H_i)),

normalized to phi_lambda(0) = 1, which pins every constant downstream.
Norms are measured in the invariant bilinear form: |H|_B = 4|H| per
rank-one factor, with the dual norm |lambda|_B = |lambda|/4.

The spherical transform of a Weyl-invariant profile f reduces to a
Euclidean transform of g = f * phi:

    F(lambda) = c(lambda) * |W| * g_hat(lambda),      c(lambda) = i rho / lambda,

and the two evaluation paths (direct weighted integral versus the
reduction) are kept side by side so each can audit the other.  Gridded
transforms operate on rank-one models; the pointwise model functions
support direct products of rank-one factors as well.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import fourier_transform, inverse_fourier_transform, sin_ratio
from .grids import Grid, SampledFunction, SpectralFunction
from .profiles import registry_lookup


class WallSingularityError(ValueError):
    """Evaluation or division pinned on a Weyl wall."""


class BoundaryLeakError(ValueError):
    """The weighted integrand has not decayed at the grid boundary."""


_BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class GroupModel:
    """Direct product of complex rank-one factors.

    Per factor: one positive root with coefficient ``root`` (the root
    acts as H -> root * H), multiplicity 2, so rho carries the same
    coefficient; the invariant form scales as |H|_B = b * |H|.
    """

    name: str
    root_coeffs: tuple
    b_scales: tuple

    def __post_init__(self):
        if len(self.root_coeffs) != len(self.b_scales) or not self.root_coeffs:
            raise ValueError("need one root and one scale per factor")
        object.__setattr__(self, "root_coeffs",
                           tuple(float(v) for v in self.root_coeffs))
        object.__setattr__(self, "b_scales",
                           tuple(float(v) for v in self.b_scales))

    @property
    def rank(self) -> int:
        return len(self.root_coeffs)

    @property
    def rho(self) -> np.ndarray:
        # single positive root with multiplicity 2 per factor: rho = root
        return np.asarray(self.root_coeffs)

    @property
    def weyl_order(self) -> int:
        return 2 ** self.rank

    def b_norm(self, H) -> np.ndarray:
        H = np.asarray(H, dtype=float)
        if self.rank == 1:
            return self.b_scales[0] * np.abs(H)
        return np.sqrt(np.sum((np.asarray(self.b_scales) * H) ** 2, axis=-1))

    def b_norm_dual(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.rank == 1:
            return np.abs(lam) / self.b_scales[0]
        return np.sqrt(np.sum((lam / np.asarray(self.b_scales)) ** 2, axis=-1))

    @property
    def rho_b_norm_sq(self) -> float:
        return float(np.sum((self.rho / np.asarray(self.b_scales)) ** 2))


def sl2c() -> GroupModel:
    return GroupModel("sl2c", (2.0,), (4.0,))


def sl2c_product() -> GroupModel:
    return GroupModel("sl2c_x_sl2c", (2.0, 2.0), (4.0, 4.0))


_PRESETS = {
    "sl2c": sl2c,
    "sl2c_x_sl2c": sl2c_product,
}


def preset(name: str) -> GroupModel:
    return registry_lookup(_PRESETS, "group preset", name)


def _sinh_ratio(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)


def phi_weight(G: GroupModel, H) -> np.ndarray:
    """Weyl-alternating density weight; 2 sinh(2H) per rank-one factor."""
    H = np.asarray(H, dtype=float)
    if G.rank == 1:
        return 2.0 * np.sinh(G.root_coeffs[0] * H)
    return np.prod(2.0 * np.sinh(np.asarray(G.root_coeffs) * H), axis=-1)


def spherical_function(G: GroupModel, lam, H) -> np.ndarray:
    """phi_lambda(H) with the normalization phi_lambda(0) = 1.

    Inputs broadcast; for product models the last axis of ``lam`` and
    ``H`` indexes the factors.
    """
    lam = np.asarray(lam, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.rank == 1:
        return sin_ratio(lam * H) / _sinh_ratio(G.root_coeffs[0] * H)
    factors = sin_ratio(lam * H) / _sinh_ratio(np.asarray(G.root_coeffs) * H)
    return np.prod(factors, axis=-1)


def phi0(G: GroupModel, H) -> np.ndarray:
    """Basic spherical function, the lambda -> 0 limit of phi_lambda."""
    zero = np.zeros(G.rank) if G.rank > 1 else 0.0
    return spherical_function(G, zero, H)


def c_function(G: GroupModel, lam) -> np.ndarray:
    """Plancherel-normalizing factor prod_i i*rho_i/lambda_i.

    Singular on the Weyl walls; callers needing the wall value use the
    limit built into the reduced transform instead.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam == 0.0):
        raise WallSingularityError("c-function pole: lambda on a Weyl wall")
    if G.rank == 1:
        return 1j * G.root_coeffs[0] / lam
    return np.prod(1j * np.asarray(G.root_coeffs) / lam, axis=-1)


def c_inverse(G: GroupModel, lam) -> np.ndarray:
    """1/c(lambda) = prod_i lambda_i/(i rho_i); polynomial, no poles."""
    lam = np.asarray(lam, dtype=float)
    if G.rank == 1:
        return lam / (1j * G.root_coeffs[0])
    return np.prod(lam / (1j * np.asarray(G.root_coeffs)), axis=-1)


class SphericalTransform(SpectralFunction):
    """Spectral samples whose frequencies are the spectral parameters lambda."""

    @property
    def lambda_values(self) -> np.ndarray:
        return self.xi_values

    def weyl_invariance_defect(self) -> float:
        """max |F(-lambda) - F(lambda)| relative to max |F|.

        Requires a lambda set closed under sign flip, except that the
        single unpaired end frequency of an FFT dual grid is skipped.
        Sets with more than one unpaired entry raise.
        """
        lam, vals = self.lambda_values, self.values
        tol = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
        ins = np.searchsorted(lam, -lam)
        lo = np.clip(ins - 1, 0, lam.size - 1)
        hi = np.clip(ins, 0, lam.size - 1)
        pos = np.where(np.abs(lam[lo] + lam) <= np.abs(lam[hi] + lam), lo, hi)
        matched = np.abs(lam[pos] + lam) <= tol
        if np.count_nonzero(~matched) > 1:
            raise ValueError("lambda set is not symmetric under sign flip")
        scale = float(np.max(np.abs(vals)))
        if scale == 0.0:
            return 0.0
        defect = np.abs(vals[pos[matched]] - vals[matched])
        return float(np.max(defect) / scale)


def require_rank_one(G: GroupModel, what: str):
    """Reject product models where only rank one is implemented."""
    if G.rank != 1:
        raise ValueError(f"{what} operates on rank-one models; "
                         f"got rank {G.rank}")


def _check_boundary(G: GroupModel, f: SampledFunction):
    weighted = np.abs(f.values * phi_weight(G, f.grid.nodes) ** 2)
    peak = float(np.max(weighted))
    if peak == 0.0:
        return
    edge = max(float(np.max(weighted[:2])), float(np.max(weighted[-2:])))
    if edge > _BOUNDARY_TOL * peak:
        raise BoundaryLeakError(
            f"weighted samples at the grid edge are {edge / peak:.2e} of the "
            f"peak; the transform would alias")


def symmetrize(f: SampledFunction) -> SampledFunction:
    """Weyl average (f(H) + f(-H))/2 on a symmetric grid."""
    if not f.grid.is_symmetric:
        raise ValueError("symmetrization needs a sign-symmetric grid")
    mirrored = f.grid.reflect_values(f.values)
    return f.with_values(0.5 * (f.values + mirrored))


def spherical_transform_direct(G: GroupModel, f: SampledFunction,
                               lam=None) -> SphericalTransform:
    """Weighted integral of f * phi_lambda * phi**2, the slow oracle path."""
    require_rank_one(G, "spherical_transform_direct")
    _check_boundary(G, f)
    lam_arr = f.grid.dual_frequencies() if lam is None else np.asarray(lam, dtype=float)
    H = f.grid.nodes
    weight = f.values * phi_weight(G, H) ** 2 * f.grid.step
    out = np.empty(lam_arr.size, dtype=complex)
    chunk = 256
    for start in range(0, lam_arr.size, chunk):
        block = lam_arr[start:start + chunk]
        phi_block = spherical_function(G, block[:, None], H[None, :])
        out[start:start + chunk] = phi_block @ weight
    return SphericalTransform(lam_arr, out, label=f.label)


def spherical_transform_reduced(G: GroupModel, f: SampledFunction,
                                lam=None) -> SphericalTransform:
    """Fast path via g = f_sym * phi and a Euclidean transform.

    The Weyl-wall value is filled with the limit
    F(0) = |W| * rho * integral of H * g(H) dH, which the direct path
    reproduces without any limit.
    """
    require_rank_one(G, "spherical_transform_reduced")
    _check_boundary(G, f)
    f_sym = symmetrize(f)
    H = f.grid.nodes
    g = f_sym.values * phi_weight(G, H)
    ghat = fourier_transform(SampledFunction(f.grid, g), lam)
    lam_arr = ghat.xi_values
    nonzero = lam_arr != 0.0
    vals = np.empty(lam_arr.size, dtype=complex)
    vals[nonzero] = (G.weyl_order * c_function(G, lam_arr[nonzero])
                     * ghat.values[nonzero])
    if np.any(~nonzero):
        first_moment = f.grid.step * np.sum(H * g)
        vals[~nonzero] = G.weyl_order * G.root_coeffs[0] * first_moment
    return SphericalTransform(lam_arr, vals, label=f.label)


def inverse_spherical(G: GroupModel, F: SphericalTransform,
                      grid: Grid) -> SampledFunction:
    """Invert the reduced transform back to a profile on the grid.

    The transform must be Weyl invariant within tolerance and the grid
    must keep its nodes off the wall H = 0 so the division by phi is
    defined.
    """
    require_rank_one(G, "inverse_spherical")
    defect = F.weyl_invariance_defect()
    if defect > 1e-6:
        raise WallSingularityError(
            f"transform is not Weyl invariant (defect {defect:.2e})")
    if grid.has_zero_node:
        raise WallSingularityError(
            "grid places a node on the wall H = 0; use a half-step grid")
    ghat_vals = F.values * c_inverse(G, F.lambda_values) / G.weyl_order
    ghat = SpectralFunction(F.lambda_values, ghat_vals, label=F.label)
    g = inverse_fourier_transform(ghat, grid)
    return g.with_values(g.values / phi_weight(G, grid.nodes))
