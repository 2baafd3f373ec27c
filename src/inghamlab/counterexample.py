"""Sharpness witnesses for the model-space decay principles.

Builds nonzero, compactly supported initial data whose evolved solution
obeys a weakened pointwise envelope

    |u(H, t0)| <= C * phi0(H)^alpha * exp(-decay(|H|_B)),  0 <= alpha < 1,

and verifies it numerically by fitting the constant on the dyadic
windows 2 * 2^j <= |H| < 2 * 2^(j+1).  The full-weight envelope
(alpha = 1) must fail for the same data; that contrast is the dichotomy
experiment.

The construction: a smooth unit-mass bump h supported in [beta', beta]
with beta = 1 - alpha - eta, turned into initial data

    f(H) = (1/2 t0) exp(-i |H|_B^2 / (4 t0)) h(|H| / 2 t0) / phi(|H|),

so that g_f = exp(+i |H|_B^2/(4 t0)) f phi collapses to (1/2t0) h(H/2t0)
on H > 0 with the phases cancelling by construction.

What the fit sees follows from the closed form the code evolves with
(the line kernel at t' = t0/b^2, conjugated by phi); the paper's own
normalisation of phi0 and |H|_B has not been checked against it.  The
witness chirp cancels the kernel's chirp, so for real H

    |u phi(H)| = (4 pi t')^(-1/2) |g_hat(b^2 H / 2 t0)|,

where g is the odd extension of h(|y|/2t0)/2t0.  For sl2c,
phi ~ exp(|H|_B/2) and phi0 ~ |H|_B exp(-|H|_B/2), so the fitted ratio
behaves like

    |g_hat| * |H|_B^(-alpha) * exp((decay(|H|_B)/|H|_B - (1-alpha)/2) |H|_B).

g is smooth, compactly supported and nonzero, so g_hat decays faster
than any power but, by Paley-Wiener, not exponentially.  Linear-decay
mode (decay = eta |H|_B) can therefore only show HOLDS for
eta <= (1-alpha)/2; a HOLDS above that is a finite-window effect.  In
theta-decay mode decay/|H|_B = theta tends to 0, and the full-weight
companion grows once exp(|H|_B theta) outruns the decay of g_hat,
which may lie past the last window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelopes import EnvelopeReport, fit_dyadic
from .grids import Grid, SampledFunction
from .groups import (GroupModel, WallSingularityError, default_grid, phi0,
                     phi_weight, sl2c)
from .initialdata import smooth_bump
from .profiles import DecayProfile, ProfileKind, theta_log
from .schrodinger import SchrodingerParams, evolve_group_closed_form

MODE_THETA = "theta-decay"
MODE_LINEAR = "linear-decay"

# where every envelope window family starts: past the data's support
# and the phi0 transition at desk scale
_WINDOW_START = 2.0


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


def build_initial_data(params: CounterexampleParams, G: GroupModel,
                       grid: Grid) -> SampledFunction:
    """Witness initial data; even, compactly supported away from 0."""
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


def _theta_decay(theta: DecayProfile | None):
    """The decay exponent |H|_B * theta(|H|_B) of a decreasing profile."""
    if theta is None:
        raise ValueError("theta-decay mode needs a theta profile")
    if theta.kind is not ProfileKind.THETA_DECREASING:
        raise ValueError(
            f"theta-decay envelopes need a decreasing theta profile; "
            f"{theta.name!r} is a {theta.kind.value} profile")
    return lambda b: b * theta(b)


def _envelope_decay(params: CounterexampleParams, mode: str,
                    theta: DecayProfile | None):
    """Decay exponent and theta of ``mode``; refuses a bad mode or theta."""
    if mode == MODE_LINEAR:
        return (lambda b: params.eta * b), theta
    if mode == MODE_THETA:
        theta = theta_log() if theta is None else theta
        return _theta_decay(theta), theta
    raise ValueError(f"unknown mode {mode!r}")


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
                    n_windows: int = 3, slack: float = 0.10) -> EnvelopeReport:
    """Fit |u| * phi0^(-alpha) * exp(+decay) on dyadic windows.

    ``alpha_override`` substitutes the envelope exponent only (the data
    keeps its construction alpha); override 1.0 probes the full-weight
    envelope that the uniqueness principle makes unattainable for
    nonzero data.
    """
    decay, theta = _envelope_decay(params, mode, theta)
    alpha = params.alpha if alpha_override is None else float(alpha_override)
    ratio = _envelope_ratio(G, u_t0, alpha, decay)
    meta = {
        "mode": mode,
        "alpha_fit": alpha,
        "alpha_override": alpha_override is not None,
        "params": params.to_json_dict(),
        "theta": None if theta is None else theta.name,
    }
    return fit_dyadic(u_t0.grid.nodes, ratio, _WINDOW_START,
                      n_windows=n_windows, slack=slack, meta=meta)


def theorem_dichotomy_experiment(G: GroupModel, theta: DecayProfile,
                                 f: SampledFunction, t0: float, *,
                                 n_windows: int = 3,
                                 slack: float = 0.10) -> EnvelopeReport:
    """Probe the full-weight envelope |u| <= C phi0 exp(-|H|_B theta).

    Nonzero compactly supported data with a divergent-integral theta
    must refute it: window constants grow without bound.  Zero data or
    a convergent theta with matched data can satisfy it.
    """
    decay = _theta_decay(theta)
    u = evolve_group_closed_form(G, f, SchrodingerParams(t0=float(t0)))
    ratio = _envelope_ratio(G, u, 1.0, decay)
    return fit_dyadic(u.grid.nodes, ratio, _WINDOW_START,
                      n_windows=n_windows, slack=slack,
                      meta={"theta": theta.name, "t0": float(t0),
                            "alpha_fit": 1.0, "source": f.label})


@dataclass(frozen=True, eq=False)
class PipelineResult:
    params: CounterexampleParams
    mode: str
    initial: SampledFunction
    solution: SampledFunction
    report: EnvelopeReport
    companion: EnvelopeReport

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "mode": self.mode,
            "report": self.report.to_json_dict(),
            "companion": self.companion.to_json_dict(),
        }


def run_pipeline(params: CounterexampleParams, mode: str = MODE_THETA, *,
                 G: GroupModel | None = None,
                 theta: DecayProfile | None = None,
                 grid: Grid | None = None, n_windows: int = 3,
                 slack: float = 0.10) -> PipelineResult:
    """Build the witness, evolve it, and verify both envelopes."""
    # refuse a bad mode or theta before the witness is built and evolved
    _, theta = _envelope_decay(params, mode, theta)
    if G is None:
        G = sl2c()
    if grid is None:
        grid = default_grid()
    f = build_initial_data(params, G, grid)
    u = evolve_group_closed_form(G, f, SchrodingerParams(t0=params.t0))
    report = verify_envelope(params, G, u, mode, theta=theta,
                             n_windows=n_windows, slack=slack)
    companion = verify_envelope(params, G, u, mode, theta=theta,
                                alpha_override=1.0, n_windows=n_windows,
                                slack=slack)
    return PipelineResult(params=params, mode=mode, initial=f, solution=u,
                          report=report, companion=companion)
