"""Window-constant fits that certify or refute pointwise decay bounds.

A claimed bound |F(x)| <= C * E(x) is tested by fitting the smallest
admissible constant over a family of windows and watching its drift.
An upward drift beyond the declared slack means every window demands a
strictly larger constant, so no single C works: the bound FAILS.  Flat
or shrinking constants mean the first window's constant already covers
the rest: the bound HOLDS.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HOLDS = "HOLDS"
FAILS = "FAILS"


class WindowTooSmallError(ValueError):
    """The sample range does not reach the requested windows."""


@dataclass(frozen=True)
class WindowFit:
    lo: float
    hi: float
    constant: float


@dataclass(frozen=True)
class EnvelopeReport:
    windows: tuple
    verdict: str
    slack: float
    meta: dict = field(default_factory=dict)

    @property
    def constants(self) -> np.ndarray:
        return np.array([w.constant for w in self.windows])

    @property
    def growth_factor(self) -> float:
        c = self.constants
        if c[0] <= 0.0:
            return float("inf") if np.any(c > 0) else 1.0
        return float(c[-1] / c[0])

    @property
    def monotone_growth(self) -> bool:
        c = self.constants
        return bool(np.all(np.diff(c) > 0))

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "slack": self.slack,
            "windows": [{"lo": w.lo, "hi": w.hi, "constant": w.constant}
                        for w in self.windows],
            "growth_factor": self.growth_factor,
            "meta": {k: v for k, v in sorted(self.meta.items())},
        }


def _verdict(constants: np.ndarray, slack: float) -> str:
    c0 = constants[0]
    if c0 <= 0.0:
        return HOLDS if np.all(constants <= 0.0) else FAILS
    return HOLDS if np.all(constants <= (1.0 + slack) * c0) else FAILS


def _fit(x: np.ndarray, ratio: np.ndarray, edges, slack: float,
         meta: dict | None) -> EnvelopeReport:
    if len(edges) < 2:
        raise ValueError("need at least 2 windows")
    x = np.abs(np.asarray(x, dtype=float))
    if edges[-1][1] > float(np.max(x)) * (1 + 1e-12):
        raise WindowTooSmallError(
            f"samples reach |x| = {np.max(x):g} but the last window "
            f"ends at {edges[-1][1]:g}")
    ratio = np.asarray(ratio, dtype=float)
    windows = []
    for lo, hi in edges:
        mask = (x >= lo) & (x < hi)
        if not np.any(mask):
            raise WindowTooSmallError(
                f"no samples in window [{lo:g}, {hi:g})")
        windows.append(WindowFit(float(lo), float(hi), float(np.max(ratio[mask]))))
    constants = np.array([w.constant for w in windows])
    return EnvelopeReport(tuple(windows), _verdict(constants, slack), float(slack),
                          dict(meta or {}))


def fit_dyadic(x, ratio, start: float, n_windows: int = 3, slack: float = 0.10,
               meta: dict | None = None) -> EnvelopeReport:
    """Fit constants over disjoint dyadic windows [start*2^j, start*2^(j+1))."""
    if not start > 0:
        raise ValueError("start must be positive")
    edges = [(start * 2.0 ** j, start * 2.0 ** (j + 1)) for j in range(n_windows)]
    return _fit(x, ratio, edges, slack, meta)


def fit_nested(x, ratio, x0: float, n_windows: int = 3, slack: float = 0.10,
               meta: dict | None = None) -> EnvelopeReport:
    """Fit constants over nested windows |x| <= x0 * 2^j."""
    if not x0 > 0:
        raise ValueError("x0 must be positive")
    edges = [(0.0, x0 * 2.0 ** j) for j in range(n_windows)]
    return _fit(x, ratio, edges, slack, meta)
