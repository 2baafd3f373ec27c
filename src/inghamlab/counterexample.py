"""Sharpness witnesses for the model-space decay principles.

Builds nonzero, compactly supported initial data whose evolved solution
obeys a weakened pointwise envelope

    |u(H, t0)| <= C * phi0(H)^alpha * exp(-decay(|H|_B)),  0 <= alpha < 1,

and verifies it numerically by fitting the constant on dyadic windows.
The full-weight envelope (alpha = 1) must fail for the same data; that
contrast is the dichotomy experiment.

The construction: a smooth unit-mass bump h supported in [beta', beta]
with beta = 1 - alpha - eta, turned into initial data

    f(H) = (1/2 t0) exp(-i |H|_B^2 / (4 t0)) h(|H| / 2 t0) / phi(|H|),

so that g_f = exp(+i |H|_B^2/(4 t0)) f phi collapses to (1/2t0) h(H/2t0)
on H > 0 with the phases cancelling by construction.  The envelope
argument runs through three separately checkable links: a growth bound
exp(beta |H|_B) on |u phi|, the threshold where theta(|H|_B) drops
under eta/4, and the domination of exp|H| by sinh 2|H|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .envelopes import HOLDS, EnvelopeReport, fit_dyadic
from .grids import Grid, SampledFunction
from .groups import (GroupModel, WallSingularityError, phi0, phi_weight,
                     require_rank_one, sl2c)
from .initialdata import smooth_bump
from .profiles import DecayProfile, ProfileKind, theta_log
from .schrodinger import SchrodingerParams, evolve_group_closed_form

MODE_THETA = "theta-decay"
MODE_LINEAR = "linear-decay"

DEFAULT_GRID_RADIUS = 32.0
DEFAULT_GRID_POINTS = 2 ** 14

# window fallback when the theta threshold radius is far off the grid;
# past the data's support and the phi0 transition at desk scale
_PRACTICAL_START = 2.0
_M1_SEARCH_CAP = 1e9


class SupportTouchesZeroError(ValueError):
    """Scaled bump support reaches below the first positive grid node."""


@dataclass(frozen=True)
class CounterexampleParams:
    """Weights of the witness envelope; always alpha + eta + beta = 1."""

    alpha: float
    eta: float
    t0: float = 1.0
    beta_prime: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        if not (0.0 < self.eta < 1.0 - self.alpha):
            raise ValueError("eta must lie in (0, 1 - alpha)")
        if not (np.isfinite(self.t0) and self.t0 > 0.0):
            raise ValueError("t0 must be a positive real")
        if self.beta_prime is None:
            object.__setattr__(self, "beta_prime", 0.5 * self.beta)
        if not (0.0 < self.beta_prime < self.beta):
            raise ValueError("beta_prime must lie in (0, beta)")

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha - self.eta

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "eta": self.eta,
            "beta": self.beta,
            "beta_prime": self.beta_prime,
            "t0": self.t0,
        }


def default_grid() -> Grid:
    return Grid.symmetric(DEFAULT_GRID_RADIUS, DEFAULT_GRID_POINTS,
                          offset=True)


def build_bump(beta_prime: float, beta: float, grid: Grid) -> SampledFunction:
    """Unit-mass smooth bump supported exactly in [beta_prime, beta]."""
    if not (0.0 < beta_prime < beta):
        raise ValueError("need 0 < beta_prime < beta")
    return SampledFunction.from_callable(grid, smooth_bump(beta_prime, beta),
                                         label="bump")


def build_initial_data(params: CounterexampleParams, G: GroupModel,
                       grid: Grid) -> SampledFunction:
    """Witness initial data; even, compactly supported away from 0."""
    require_rank_one(G, "witness construction")
    if grid.has_zero_node:
        raise WallSingularityError(
            "initial data divides by phi; use a half-step grid")
    H = grid.nodes
    first_positive = float(np.min(H[H > 0]))
    lower_edge = 2.0 * params.t0 * params.beta_prime
    if lower_edge < first_positive:
        raise SupportTouchesZeroError(
            f"support edge 2 t0 beta' = {lower_edge:.3g} falls below the "
            f"first positive node {first_positive:.3g}; refine the grid or "
            f"grow beta'")
    h_func = smooth_bump(params.beta_prime, params.beta)
    absH = np.abs(H)
    chirp = np.exp(-1j * G.b_norm(H) ** 2 / (4.0 * params.t0))
    vals = (chirp * h_func(absH / (2.0 * params.t0))
            / (2.0 * params.t0 * phi_weight(G, absH)))
    return SampledFunction(grid, vals, label="witness-initial")


@dataclass(frozen=True)
class Thresholds:
    """Radii beyond which the envelope links kick in.

    ``m1`` is where theta(|H|_B) drops below eta/4 (None in linear mode,
    inf when no radius below the search cap works); ``m2`` where
    sinh 2|H| dominates exp |H|.  When m1 does not fit on the grid the
    window start falls back to a practical radius and ``m1_truncated``
    records that.
    """

    m1: float | None
    m2: float
    window_start: float
    m1_truncated: bool

    def to_json_dict(self) -> dict:
        m1 = self.m1
        if m1 is not None and not np.isfinite(m1):
            m1 = "inf"
        return {
            "m1": m1,
            "m2": self.m2,
            "window_start": self.window_start,
            "m1_truncated": self.m1_truncated,
        }


def _sinh_domination_radius() -> float:
    root = brentq(lambda x: np.sinh(2.0 * x) - np.exp(x), 0.3, 1.5,
                  xtol=1e-12)
    return max(1.0, float(root))


def compute_thresholds(params: CounterexampleParams,
                       theta: DecayProfile | None, grid: Grid,
                       mode: str = MODE_THETA) -> Thresholds:
    m2 = _sinh_domination_radius()
    if mode == MODE_LINEAR:
        return Thresholds(m1=None, m2=m2,
                          window_start=max(m2, _PRACTICAL_START),
                          m1_truncated=False)
    if mode != MODE_THETA:
        raise ValueError(f"unknown mode {mode!r}")
    if theta is None:
        raise ValueError("theta-decay mode needs a theta profile")
    if theta.kind is not ProfileKind.THETA_DECREASING:
        raise ValueError("threshold search needs a decreasing profile")
    target = params.eta / 4.0
    if float(theta(4.0)) < target:
        return Thresholds(m1=1.0, m2=m2,
                          window_start=max(1.0, m2, _PRACTICAL_START),
                          m1_truncated=False)
    if float(theta(4.0 * _M1_SEARCH_CAP)) >= target:
        return Thresholds(m1=np.inf, m2=m2,
                          window_start=max(m2, _PRACTICAL_START),
                          m1_truncated=True)
    root = float(brentq(lambda M: target - float(theta(4.0 * M)),
                        1.0, _M1_SEARCH_CAP, xtol=1e-10))
    usable = min(-grid.x_min, grid.x_max)
    if root >= usable - grid.step:
        return Thresholds(m1=root, m2=m2,
                          window_start=max(m2, _PRACTICAL_START),
                          m1_truncated=True)
    h = grid.step
    snapped = h * np.ceil(root / h)
    while float(theta(4.0 * snapped)) >= target:
        snapped += h
    return Thresholds(m1=float(snapped), m2=m2,
                      window_start=max(float(snapped), m2),
                      m1_truncated=False)


def _envelope_ratio(G: GroupModel, u: SampledFunction, alpha: float,
                    decay) -> np.ndarray:
    """|u| * phi0^(-alpha) * exp(decay(|H|_B)) at the nodes of u's grid."""
    H = u.grid.nodes
    return (np.abs(u.values) * phi0(G, H) ** (-alpha)
            * np.exp(decay(G.b_norm(H))))


def verify_envelope(params: CounterexampleParams, G: GroupModel,
                    u_t0: SampledFunction, mode: str = MODE_THETA, *,
                    theta: DecayProfile | None = None,
                    alpha_override: float | None = None,
                    window_start: float | None = None,
                    n_windows: int = 3, slack: float = 0.10) -> EnvelopeReport:
    """Fit |u| * phi0^(-alpha) * exp(+decay) on dyadic windows.

    ``alpha_override`` substitutes the envelope exponent only (the data
    keeps its construction alpha); override 1.0 probes the full-weight
    envelope that the uniqueness principle makes unattainable for
    nonzero data.
    """
    if mode == MODE_THETA and theta is None:
        theta = theta_log()
    thresholds = compute_thresholds(params, theta, u_t0.grid, mode)
    start = thresholds.window_start if window_start is None else window_start
    alpha = params.alpha if alpha_override is None else float(alpha_override)
    if mode == MODE_LINEAR:
        ratio = _envelope_ratio(G, u_t0, alpha, lambda b: params.eta * b)
    else:
        ratio = _envelope_ratio(G, u_t0, alpha, lambda b: b * theta(b))
    meta = {
        "mode": mode,
        "alpha_fit": alpha,
        "alpha_override": alpha_override is not None,
        "params": params.to_json_dict(),
        "theta": None if theta is None else theta.name,
        "thresholds": thresholds.to_json_dict(),
    }
    return fit_dyadic(u_t0.grid.nodes, ratio, start, n_windows=n_windows,
                      slack=slack, meta=meta)


@dataclass(frozen=True)
class ChainLink:
    name: str
    ok: bool
    detail: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class ChainReport:
    """The three envelope links, each certified on the grid."""

    links: tuple
    thresholds: Thresholds

    @property
    def all_ok(self) -> bool:
        return all(link.ok for link in self.links)

    def to_json_dict(self) -> dict:
        return {
            "links": [link.to_json_dict() for link in self.links],
            "thresholds": self.thresholds.to_json_dict(),
            "all_ok": self.all_ok,
        }


def certify_decay_chain(params: CounterexampleParams, G: GroupModel,
                        theta: DecayProfile, u_t0: SampledFunction, *,
                        n_windows: int = 3,
                        slack: float = 0.10) -> ChainReport:
    """Certify the three inequality links behind the witness envelope.

    1. |u phi| exp(-beta |H|_B) has stable window constants (growth
       bound on the transform of the bump).
    2. theta(|H|_B) < eta/4 pointwise beyond m1.
    3. exp|H| <= sinh 2|H| pointwise beyond m2, checked in log space.
    """
    grid = u_t0.grid
    thresholds = compute_thresholds(params, theta, grid, MODE_THETA)
    H = grid.nodes
    absH = np.abs(H)

    u_phi = np.abs(u_t0.values * phi_weight(G, H))
    ratio = u_phi * np.exp(-params.beta * G.b_norm(H))
    growth_fit = fit_dyadic(H, ratio,
                            max(thresholds.m2, _PRACTICAL_START),
                            n_windows=n_windows, slack=slack)
    link1 = ChainLink(
        name="transform-growth", ok=growth_fit.verdict == HOLDS,
        detail={"constants": [float(c) for c in growth_fit.constants],
                "windows": [[w.lo, w.hi] for w in growth_fit.windows]})

    target = params.eta / 4.0
    mask2 = absH > (thresholds.m1 if np.isfinite(thresholds.m1) else np.inf)
    if np.any(mask2):
        worst = float(np.max(theta(4.0 * absH[mask2])))
        link2 = ChainLink(
            name="theta-threshold", ok=worst < target,
            detail={"max_theta": worst, "target": target,
                    "n_nodes": int(np.count_nonzero(mask2)),
                    "vacuous": False})
    else:
        link2 = ChainLink(
            name="theta-threshold", ok=True,
            detail={"target": target, "n_nodes": 0, "vacuous": True})

    mask3 = absH > thresholds.m2
    # log sinh(2x) = 2x + log1p(-exp(-4x)) - log 2, safe from overflow
    log_sinh = (2.0 * absH[mask3] + np.log1p(-np.exp(-4.0 * absH[mask3]))
                - np.log(2.0))
    margin = float(np.max(absH[mask3] - log_sinh))
    link3 = ChainLink(
        name="sinh-domination", ok=margin <= 0.0,
        detail={"max_log_margin": margin,
                "n_nodes": int(np.count_nonzero(mask3))})

    return ChainReport(links=(link1, link2, link3), thresholds=thresholds)


def theorem_dichotomy_experiment(G: GroupModel, theta: DecayProfile,
                                 f: SampledFunction, t0: float, *,
                                 window_start: float = _PRACTICAL_START,
                                 n_windows: int = 3,
                                 slack: float = 0.10) -> EnvelopeReport:
    """Probe the full-weight envelope |u| <= C phi0 exp(-|H|_B theta).

    Nonzero compactly supported data with a divergent-integral theta
    must refute it: window constants grow without bound.  Zero data or
    a convergent theta with matched data can satisfy it.
    """
    u = evolve_zero_safe(G, f, t0)
    ratio = _envelope_ratio(G, u, 1.0, lambda b: b * theta(b))
    report = fit_dyadic(u.grid.nodes, ratio, window_start,
                        n_windows=n_windows, slack=slack,
                        meta={"theta": theta.name, "t0": float(t0),
                              "alpha_fit": 1.0, "source": f.label})
    return report


def evolve_zero_safe(G: GroupModel, f: SampledFunction,
                     t0: float) -> SampledFunction:
    """Closed-form flow that also accepts identically zero data."""
    if not np.any(f.values):
        return f.with_values(np.zeros_like(f.values))
    return evolve_group_closed_form(G, f, SchrodingerParams(t0=float(t0)))


@dataclass(frozen=True, eq=False)
class PipelineResult:
    params: CounterexampleParams
    mode: str
    initial: SampledFunction
    solution: SampledFunction
    report: EnvelopeReport
    companion: EnvelopeReport | None

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "mode": self.mode,
            "report": self.report.to_json_dict(),
            "companion": (None if self.companion is None
                          else self.companion.to_json_dict()),
        }


def run_pipeline(params: CounterexampleParams, mode: str = MODE_THETA, *,
                 G: GroupModel | None = None,
                 theta: DecayProfile | None = None,
                 grid: Grid | None = None, n_windows: int = 3,
                 slack: float = 0.10,
                 with_companion: bool = True) -> PipelineResult:
    """Build the witness, evolve it, and verify both envelopes."""
    if G is None:
        G = sl2c()
    if grid is None:
        grid = default_grid()
    f = build_initial_data(params, G, grid)
    u = evolve_group_closed_form(G, f, SchrodingerParams(t0=params.t0))
    report = verify_envelope(params, G, u, mode, theta=theta,
                             n_windows=n_windows, slack=slack)
    companion = None
    if with_companion:
        companion = verify_envelope(params, G, u, mode, theta=theta,
                                    alpha_override=1.0, n_windows=n_windows,
                                    slack=slack)
    return PipelineResult(params=params, mode=mode, initial=f, solution=u,
                          report=report, companion=companion)
