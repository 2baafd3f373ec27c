"""Decay profiles and the integrals that split vanishing from existence.

A profile is either a nondecreasing envelope exponent psi on [0, inf) or
a decreasing-to-zero modulation theta.  The associated integral,

    psi kind:    integral over (0, R] of psi(r) / (1 + r^2) dr,
    theta kind:  integral over [1, R] of theta(r) / r dr,

decides between the two regimes: divergence forces vanishing theorems,
convergence admits nonzero compactly supported constructions.  Partial
integrals are computed with an adaptive Simpson rule at relative
tolerance 1e-8 per panel, and a dyadic-schedule classifier issues a
clearly-labeled heuristic verdict on the full integral.  The module also
holds the one lookup behind every name registry: decay profiles,
initial profiles and group presets.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class ProfileError(ValueError):
    """The callable violates the declared monotonicity or sign contract."""


class ProfileKind(enum.Enum):
    PSI_NONDECREASING = "psi"
    THETA_DECREASING = "theta"


_SPOT_NET = np.concatenate(([0.0], np.geomspace(1e-3, 1e8, 140)))


class DecayProfile:
    """Named pointwise-evaluable decay profile with a declared kind.

    Monotonicity is spot-checked on a fixed logarithmic net at
    construction; pass ``validate=False`` for internally derived
    profiles whose admissibility is enforced downstream.
    """

    def __init__(self, name: str, kind: ProfileKind, func, validate: bool = True):
        self.name = str(name)
        self.kind = kind
        self._func = func
        if validate:
            self._spot_check()

    def __call__(self, r):
        return self._func(np.asarray(r, dtype=float))

    def __repr__(self):
        return f"DecayProfile({self.name!r}, {self.kind.value})"

    def _spot_check(self):
        vals = np.asarray(self(_SPOT_NET), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ProfileError(f"{self.name}: non-finite values on the check net")
        if np.any(vals < -1e-12):
            raise ProfileError(f"{self.name}: negative values on the check net")
        scale = max(1.0, float(np.max(np.abs(vals))))
        diffs = np.diff(vals)
        if self.kind is ProfileKind.PSI_NONDECREASING:
            if np.any(diffs < -1e-10 * scale):
                raise ProfileError(f"{self.name}: not nondecreasing on the check net")
        else:
            if np.any(diffs > 1e-10 * scale):
                raise ProfileError(f"{self.name}: not nonincreasing on the check net")
            v1 = float(self(1.0))
            vmax = float(self(_SPOT_NET[-1]))
            if v1 > 0 and not vmax < v1 / 10.0:
                raise ProfileError(
                    f"{self.name}: does not decay (theta({_SPOT_NET[-1]:.0e}) = "
                    f"{vmax:.3g} vs theta(1)/10 = {v1 / 10.0:.3g})")


def psi_power(exponent: float = 0.5) -> DecayProfile:
    """psi(r) = r**a for 0 < a <= 1."""
    a = float(exponent)
    if not 0.0 < a <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    return DecayProfile(f"psi_power[{a:g}]", ProfileKind.PSI_NONDECREASING,
                        lambda r: np.power(np.maximum(r, 0.0), a))


def psi_linear(slope: float = 1.0) -> DecayProfile:
    """psi(r) = slope * r."""
    s = float(slope)
    if not s > 0:
        raise ValueError("slope must be positive")
    return DecayProfile(f"psi_linear[{s:g}]", ProfileKind.PSI_NONDECREASING,
                        lambda r: s * np.maximum(r, 0.0))


def psi_log_damped() -> DecayProfile:
    """psi(r) = r / log(e + r), the borderline divergent envelope."""
    return DecayProfile("psi_log_damped", ProfileKind.PSI_NONDECREASING,
                        lambda r: np.maximum(r, 0.0) / np.log(np.e + np.maximum(r, 0.0)))


def psi_zero() -> DecayProfile:
    return DecayProfile("psi_zero", ProfileKind.PSI_NONDECREASING,
                        lambda r: np.zeros_like(np.asarray(r, dtype=float)))


def theta_log() -> DecayProfile:
    """theta(r) = 1 / log(e + r), slowly decaying and divergent."""
    return DecayProfile("theta_log", ProfileKind.THETA_DECREASING,
                        lambda r: 1.0 / np.log(np.e + np.maximum(r, 0.0)))


def theta_log_sq() -> DecayProfile:
    """theta(r) = log(e + r)**-2, the stock convergent modulation."""
    return DecayProfile("theta_log_sq", ProfileKind.THETA_DECREASING,
                        lambda r: np.log(np.e + np.maximum(r, 0.0)) ** -2.0)


def psi_from_theta(theta: DecayProfile) -> DecayProfile:
    """The nondecreasing envelope exponent psi(r) = r * theta(r)."""
    if theta.kind is not ProfileKind.THETA_DECREASING:
        raise ProfileError("psi_from_theta needs a decreasing profile")
    return DecayProfile(f"{theta.name}-psi", ProfileKind.PSI_NONDECREASING,
                        lambda r: np.asarray(r, dtype=float) * theta(r))


PROFILES = {
    "psi_power": psi_power,
    "psi_linear": psi_linear,
    "psi_log_damped": psi_log_damped,
    "psi_zero": psi_zero,
    "theta_log": theta_log,
    "theta_log_sq": theta_log_sq,
}


def registry_lookup(registry: dict, what: str, name: str,
                    params: dict | None = None):
    """Call the factory registered under ``name``; errors name ``what``."""
    if name not in registry:
        raise ValueError(f"unknown {what} {name!r}; known: {sorted(registry)}")
    try:
        return registry[name](**(params or {}))
    except TypeError as exc:
        raise ValueError(f"{what} {name!r}: {exc}") from exc


def profile_from_config(name: str, params: dict | None = None) -> DecayProfile:
    return registry_lookup(PROFILES, "profile", name, params)


def adaptive_simpson(func, a: float, b: float, rel_tol: float = 1e-8,
                     max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with the given per-panel relative tolerance."""
    if not b > a:
        raise ValueError("b > a required")

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth):
        mid = 0.5 * (lo + hi)
        fl = float(func(0.5 * (lo + mid)))
        fr = float(func(0.5 * (mid + hi)))
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        delta = left + right - whole
        tol = rel_tol * max(abs(left + right), 1e-300)
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, depth - 1))

    flo, fmid, fhi = (float(func(a)), float(func(0.5 * (a + b))), float(func(b)))
    whole = simpson(a, b, flo, fmid, fhi)
    return recurse(a, b, flo, fmid, fhi, whole, max_depth)


def _panel_edges(lo: float, hi: float) -> list[float]:
    # dyadic panels keep the adaptive rule honest over many decades
    edges = [lo]
    edge = max(lo, 1.0)
    if edge > lo:
        edges.append(min(edge, hi))
    while edges[-1] < hi:
        edges.append(min(edges[-1] * 2.0, hi))
    return edges


def ingham_integral_partial(profile: DecayProfile, R: float) -> float:
    """Partial integral up to R of the kind-appropriate integrand."""
    R = float(R)
    if not R > 1.0:
        raise ValueError("R must exceed 1")
    if profile.kind is ProfileKind.PSI_NONDECREASING:
        def integrand(r):
            return float(profile(r)) / (1.0 + r * r)
        lo = 0.0
    else:
        def integrand(r):
            return float(profile(r)) / r
        lo = 1.0
    edges = _panel_edges(lo, R)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_simpson(integrand, a, b)
    return total


VERDICT_DIVERGENT = "LIKELY_DIVERGENT"
VERDICT_CONVERGENT = "LIKELY_CONVERGENT"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

_NOTE = ("verdict is a finite-schedule heuristic based on the fitted decay "
         "of partial-integral increments; it is not a proof")


@dataclass(frozen=True)
class IntegralDiagnostics:
    profile_name: str
    schedule: np.ndarray
    partials: np.ndarray
    increments: np.ndarray
    tail_exponent: float
    verdict: str
    note: str = _NOTE

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile_name,
            "schedule": [float(r) for r in self.schedule],
            "partials": [float(v) for v in self.partials],
            "increments": [float(v) for v in self.increments],
            "tail_exponent": float(self.tail_exponent),
            "verdict": self.verdict,
            "note": self.note,
        }


def default_schedule() -> np.ndarray:
    return np.geomspace(10.0, 1e8, 8)


def classify_integral(profile: DecayProfile, R_schedule=None) -> IntegralDiagnostics:
    """Heuristic convergent/divergent call from a growing cutoff schedule.

    Increments of the partial integral over a geometric schedule decay
    like index**-p for the stock profiles; p clearly above 1 reads as
    convergent, p at or below 1 as divergent, the gap as inconclusive.
    """
    schedule = np.asarray(default_schedule() if R_schedule is None else R_schedule,
                          dtype=float)
    if schedule.size < 4 or not np.all(np.diff(schedule) > 0):
        raise ValueError("schedule must be increasing with at least 4 cutoffs")
    if not schedule[0] > 1.0:
        raise ValueError("schedule must start above 1")

    partials = np.array([ingham_integral_partial(profile, R) for R in schedule])
    increments = np.diff(partials)
    total = float(partials[-1])

    if total <= 1e-300:
        return IntegralDiagnostics(profile.name, schedule, partials, increments,
                                   math.inf, VERDICT_CONVERGENT)
    if increments[-1] < 1e-9 * total:
        return IntegralDiagnostics(profile.name, schedule, partials, increments,
                                   math.inf, VERDICT_CONVERGENT)

    idx = np.arange(1, increments.size + 1, dtype=float)
    keep = increments > 1e-300
    if np.count_nonzero(keep) < 3:
        return IntegralDiagnostics(profile.name, schedule, partials, increments,
                                   math.inf, VERDICT_CONVERGENT)
    slope = np.polyfit(np.log(idx[keep]), np.log(increments[keep]), 1)[0]
    p = -float(slope)
    if p > 1.25:
        verdict = VERDICT_CONVERGENT
    elif p < 1.05:
        verdict = VERDICT_DIVERGENT
    else:
        verdict = VERDICT_INCONCLUSIVE
    return IntegralDiagnostics(profile.name, schedule, partials, increments, p, verdict)
