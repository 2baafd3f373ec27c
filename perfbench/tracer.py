"""Spans around the public functions of each layer, from outside.

The tracer replaces a function with a timing wrapper in every loaded
``inghamlab`` module that holds it (callers that imported the name
directly see the wrapper too) and puts the originals back on
``uninstall``.  Spans stay in memory; a span's self time is its
duration minus the time covered by its child spans.  Counters record
work computed from call arguments, never from timings, so they repeat
exactly for the same ops.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

# one phase block of the direct sum holds this many frequencies
DIRECT_SUM_BLOCK = 512
COMPLEX_BYTES = 16


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr`` or ``module.Class.attr``.

    ``name`` picks the span name per call (default: the dotted path
    without the package prefix); ``count`` adds computed work counts.
    """

    module: str
    path: str
    name: object = None
    count: object = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.path}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    self_s: float
    children: int


def _xi_arg(args, kwargs):
    return kwargs.get("xi_grid", args[1] if len(args) > 1 else None)


def _is_dual(f, xi) -> bool:
    # same rule as the transform: the FFT dual grid of f's grid, to 1e-12
    grid = f.grid
    if xi is None:
        return True
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.size != grid.n_points:
        return False
    dual = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.step))
    return bool(np.max(np.abs(xi - dual)) <= 1e-12 * max(1.0, float(np.max(np.abs(dual)))))


def _transform_name(args, kwargs) -> str:
    kind = "dual" if _is_dual(args[0], _xi_arg(args, kwargs)) else "nondual"
    return f"fourier.fourier_transform.{kind}"


def _count_transform(tracer, span, args, kwargs, result):
    if span.name.endswith(".nondual"):
        n, m = args[0].grid.n_points, int(np.size(_xi_arg(args, kwargs)))
        tracer.add("fourier.nondual_mults", n * m)
        tracer.peak("fourier.nondual_buffer_bytes",
                    min(DIRECT_SUM_BLOCK, m) * n * COMPLEX_BYTES)


def _count_product(tracer, span, args, kwargs, result):
    spec, xi = args[0], kwargs.get("xi", args[1] if len(args) > 1 else None)
    tracer.add("construct.sinc_factor_evals", spec.n_factors * int(np.size(xi)))


def _count_fit(tracer, span, args, kwargs, result):
    tracer.add("envelopes.samples_fitted", int(np.size(args[0])))


def _count_write(tracer, span, args, kwargs, result):
    tracer.add("io.bytes_written", os.path.getsize(args[0]))


def _count_calibration(tracer, span, args, kwargs, result):
    # a call that ran no spectral flow underneath answered from its cache
    tracer.add("schrodinger.calibrate_group_constant.hits", int(span.children == 0))


TARGETS = (
    Target("grids", "Grid.dual_frequencies"),
    Target("grids", "SampledFunction.from_callable"),
    Target("fourier", "fourier_transform", _transform_name, _count_transform),
    Target("fourier", "fourier_transform_direct"),
    Target("fourier", "inverse_fourier_transform"),
    Target("profiles", "classify_integral"),
    Target("construct", "evaluate_product_fourier", None, _count_product),
    Target("construct", "realize_function"),
    Target("construct", "decay_certificate"),
    Target("groups", "spherical_transform_reduced"),
    Target("groups", "spherical_transform_direct"),
    Target("groups", "inverse_spherical"),
    Target("schrodinger", "evolve_closed_form"),
    Target("schrodinger", "evolve_group_closed_form"),
    Target("schrodinger", "evolve_spectral"),
    Target("schrodinger", "evolve_group_spectral"),
    Target("schrodinger", "calibrate_group_constant", None, _count_calibration),
    Target("envelopes", "fit_dyadic", None, _count_fit),
    Target("envelopes", "fit_nested", None, _count_fit),
    Target("counterexample", "build_initial_data"),
    Target("counterexample", "verify_envelope"),
    Target("counterexample", "run_pipeline"),
    Target("counterexample", "theorem_dichotomy_experiment"),
    Target("io", "write_samples_csv", None, _count_write),
    Target("io", "write_spectrum_csv", None, _count_write),
    Target("io", "write_json", None, _count_write),
    Target("cli", "main"),
)

SPAN_NAMES = tuple(
    name for t in TARGETS
    for name in ((f"fourier.fourier_transform.{k}" for k in ("dual", "nondual"))
                 if t.name is _transform_name else (t.label,)))

COUNTERS = ("fourier.nondual_mults", "fourier.nondual_buffer_bytes",
            "construct.sinc_factor_evals", "io.bytes_written",
            "envelopes.samples_fitted")


class Tracer:
    """Installs wrappers, records spans and counts, and removes them."""

    def __init__(self, package: str = "inghamlab", targets=TARGETS,
                 clock=time.perf_counter):
        self.package = package
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counters --------------------------------------------------------
    def add(self, key: str, amount: int):
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, key: str, value: int):
        self.counts[key] = max(self.counts.get(key, 0), value)

    # -- spans -----------------------------------------------------------
    def call(self, target: Target, fn, args, kwargs):
        name = target.name(args, kwargs) if target.name else target.label
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent, self.op, 0.0, 0)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = self.clock()
            span.self_s += span.end - span.start
            if parent is not None:
                up = self.spans[parent]
                up.self_s -= span.end - span.start
                up.children += 1
        if target.count:
            target.count(self, span, args, kwargs, result)
        return result

    def _wrapper(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(target, fn, args, kwargs)
        return traced

    # -- patching --------------------------------------------------------
    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(self.package + "."))]

    def _set(self, holder, attr: str, value):
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for target in self.targets:
            home = sys.modules[f"{self.package}.{target.module}"]
            owner, _, attr = target.path.rpartition(".")
            if owner:
                # a method: patch the class, which every caller shares
                cls = getattr(home, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrapper(target, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrapper(target, raw))
                continue
            original = getattr(home, attr)
            wrapper = self._wrapper(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- results ---------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: call count and total self seconds."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "self_s": s.self_s}
                for s in self.spans]
