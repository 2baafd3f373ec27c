"""Decay profiles and the dyadic test that splits vanishing from existence.

A profile is either a nondecreasing envelope exponent psi on [0, inf) or
a decreasing-to-zero modulation theta.  The associated integral,

    psi kind:    integral of psi(r) / (1 + r^2) dr,
    theta kind:  integral over [1, inf) of theta(r) / r dr,

decides between the two regimes: divergence forces vanishing theorems,
convergence admits nonzero compactly supported constructions.  One test
decides it, for the classifier and the sinc-product constructor alike:
the dyadic series of theta(2**k), with theta = psi/r for psi profiles
(for r >= 1, r/(1 + r^2) lies between 1/(2r) and 1/r, so the two
integrals converge together).  The module also holds the one lookup
behind every name registry: decay profiles, initial profiles and group
presets.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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


def theta_from_psi(psi: DecayProfile) -> DecayProfile:
    """The modulation theta(r) = psi(r)/r, with the quotient clamped at r = 1.

    The clamp defines the derived modulation down to 0; admissibility is
    left to the dyadic test rather than to profile validation.
    """
    if psi.kind is not ProfileKind.PSI_NONDECREASING:
        raise ProfileError("theta_from_psi needs a nondecreasing profile")

    def quotient(r):
        rr = np.maximum(np.asarray(r, dtype=float), 1.0)
        return np.asarray(psi(rr), dtype=float) / rr

    return DecayProfile(f"theta[{psi.name}]", ProfileKind.THETA_DECREASING,
                        quotient, validate=False)


TRUNCATION_TOL = 1e-8
MAX_TERMS = 1023  # last k with 2.0**k finite in float64
_BLOCK_RATIO_MAX = 0.8

VERDICT_DIVERGENT = "LIKELY_DIVERGENT"
VERDICT_CONVERGENT = "LIKELY_CONVERGENT"

_NOTE = ("verdict of the dyadic test on a_k = theta(2**k) that the "
         "sinc-product constructor applies (theta = psi/r for psi profiles): "
         "convergent when a term falls below the truncation tolerance or the "
         "last four dyadic block sums shrink by a ratio of at most 0.8; a "
         "finite-schedule test, not a proof.  For nonincreasing theta, "
         "ln2 * sum_{k=2..K} a_k <= integral over [2, 2**K] of theta(r)/r dr "
         "<= ln2 * sum_{k=1..K-1} a_k")


def _block_sums(terms) -> list[float]:
    # sums over the index blocks [2**j, 2**(j+1)) of the term array
    a = np.asarray(terms)
    sums = []
    j = 0
    while 2 ** (j + 1) <= a.size:
        sums.append(float(np.sum(a[2 ** j:2 ** (j + 1)])))
        j += 1
    return sums


def _block_sums_shrink(sums: list[float]) -> bool:
    # geometric decay of the block sums is the Cauchy signature of a
    # convergent series
    if len(sums) < 5:
        return False
    tail = sums[-4:]
    ratios = [tail[i + 1] / tail[i] if tail[i] > 0 else 0.0 for i in range(3)]
    return all(r <= _BLOCK_RATIO_MAX for r in ratios)


@dataclass(frozen=True)
class IntegralDiagnostics:
    """Terms a_k = theta(2**k), k = 1..n_terms, and the dyadic test's call.

    ``stopped_by`` says how the terms ended: "tolerance" when the next
    fell below TRUNCATION_TOL, "term cap" after MAX_TERMS terms,
    "overflow" when the next was infinite.
    """

    profile_name: str
    terms: tuple
    stopped_by: str
    converges: bool

    @property
    def verdict(self) -> str:
        return VERDICT_CONVERGENT if self.converges else VERDICT_DIVERGENT

    def to_json_dict(self) -> dict:
        a = self.terms
        return {
            "profile": self.profile_name,
            "n_terms": len(a),
            "stopped_by": self.stopped_by,
            "block_sums": _block_sums(a),
            "integral_bracket": {"upper_limit": 2.0 ** max(len(a), 1),
                                 "lower": math.log(2.0) * math.fsum(a[1:]),
                                 "upper": math.log(2.0) * math.fsum(a[:-1])},
            "verdict": self.verdict,
            "note": _NOTE,
        }


def dyadic_series(theta: DecayProfile) -> IntegralDiagnostics:
    """Run the dyadic test on the terms a_k = theta(2**k), k >= 1.

    Since theta is nonincreasing, the integral of theta(r)/r over
    [2**k, 2**(k+1)] lies between ln2 * a_(k+1) and ln2 * a_k, so the
    theta integral converges exactly when the series of the a_k does.
    Terms stop below TRUNCATION_TOL, where they no longer matter to a
    sinc product, and converge; terms that run to MAX_TERMS converge
    when their dyadic block sums decay geometrically.  An infinite term
    means divergence: either it is, or psi(2**k) overflowed, so the term
    is at least 2 and so is every term before it.
    """
    if theta.kind is not ProfileKind.THETA_DECREASING:
        raise ValueError("the dyadic test requires a theta-kind profile")
    terms = []
    stopped_by = "term cap"
    with np.errstate(over="ignore"):
        for k in range(1, MAX_TERMS + 1):
            a_k = float(theta(2.0 ** k))
            if a_k == math.inf:
                stopped_by = "overflow"
                break
            if not np.isfinite(a_k) or a_k < 0:
                raise ProfileError(
                    f"{theta.name}: invalid half-width at k={k}")
            if a_k < TRUNCATION_TOL:
                stopped_by = "tolerance"
                break
            if terms and a_k > terms[-1] * (1 + 1e-12):
                raise ProfileError(
                    f"{theta.name}: half-widths increase at k={k}")
            terms.append(a_k)
    if stopped_by == "term cap":
        converges = _block_sums_shrink(_block_sums(terms))
    else:
        converges = stopped_by == "tolerance"
    return IntegralDiagnostics(theta.name, tuple(terms), stopped_by, converges)


def classify_integral(profile: DecayProfile) -> IntegralDiagnostics:
    """The dyadic test's call on the profile's integral; see dyadic_series."""
    theta = (profile if profile.kind is ProfileKind.THETA_DECREASING
             else theta_from_psi(profile))
    return replace(dyadic_series(theta), profile_name=profile.name)
