"""Uniform grids and the sampled-function carriers used by every pipeline.

All computations run on complex samples over a uniform 1-D grid.  A grid
may place its nodes at half-step offsets so that no node lands on the
origin; quotients by odd weight functions stay well defined there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidDataError(ValueError):
    """Samples contain non-finite entries or do not match their grid."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid covering [x_min, x_max) with n_points nodes.

    The step is h = (x_max - x_min) / n_points and node k sits at
    x_min + (k + off) * h with off = 1/2 when ``offset`` is set.  The
    right endpoint is excluded, so the plain h-weighted sum over the
    nodes is the periodic trapezoid rule on [x_min, x_max].
    """

    x_min: float
    x_max: float
    n_points: int
    offset: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_min < x_max is required")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValueError("n_points must be an integer >= 2")

    @property
    def step(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        off = 0.5 if self.offset else 0.0
        return self.x_min + (np.arange(self.n_points) + off) * self.step

    @property
    def has_zero_node(self) -> bool:
        return bool(np.min(np.abs(self.nodes)) < 1e-12 * self.step)

    @property
    def is_symmetric(self) -> bool:
        """True when the node set is closed under x -> -x.

        Offset grids on [-R, R] are symmetric node for node.  Non-offset
        symmetric grids pair every node except x_min, whose mirror +R is
        excluded with the right endpoint; reflection treats it as fixed.
        """
        n = self.nodes
        skip = 0 if self.offset else 1
        return bool(np.allclose(self.reflect_values(n)[skip:], -n[skip:],
                                atol=1e-12 * max(1.0, abs(self.x_max))))

    @classmethod
    def symmetric(cls, radius: float, n_points: int, offset: bool = False) -> "Grid":
        return cls(-float(radius), float(radius), int(n_points), offset)

    def dual_frequencies(self) -> np.ndarray:
        """FFT dual grid: frequencies 2*pi*k/(n*h), sorted increasing."""
        return np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.step))

    def reflect_values(self, values: np.ndarray) -> np.ndarray:
        """Samples of x -> f(-x) on this grid, by index permutation."""
        v = np.asarray(values)
        if self.offset:
            return v[::-1]
        out = np.roll(v[::-1], 1)
        return out


def _validated(values, n_expected: int) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.size != n_expected:
        raise InvalidDataError(
            f"expected {n_expected} samples, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise InvalidDataError("samples must be finite")
    return v


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex samples of a function on a uniform grid."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _validated(self.values, self.grid.n_points))

    @classmethod
    def from_callable(cls, grid: Grid, func, label: str = "") -> "SampledFunction":
        return cls(grid, np.asarray(func(grid.nodes), dtype=complex), label)

    def with_values(self, values, label: str | None = None) -> "SampledFunction":
        return SampledFunction(self.grid, values, self.label if label is None else label)


def validated_frequencies(xi) -> np.ndarray:
    """The frequency set as a nonempty, finite, strictly increasing array."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.size == 0:
        raise InvalidDataError("frequency set must be a nonempty 1-D array")
    if not np.all(np.isfinite(xi)):
        raise InvalidDataError("frequencies must be finite")
    if xi.size > 1 and not np.all(np.diff(xi) > 0):
        raise InvalidDataError("frequencies must be strictly increasing")
    return xi


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """Complex samples over a strictly increasing frequency set."""

    xi_values: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        xi = validated_frequencies(self.xi_values)
        object.__setattr__(self, "xi_values", xi)
        object.__setattr__(self, "values", _validated(self.values, xi.size))
