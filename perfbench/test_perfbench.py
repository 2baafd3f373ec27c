"""Self-tests for the benchmark's own code.

Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_spans(monkeypatch):
    layer = types.ModuleType("fakepkg.layer")
    layer.inner = lambda: 1
    layer.outer = lambda: layer.inner() + layer.inner()
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.layer", layer)
    # outer 0..10 holds inner 1..3 and inner 4..8: self times 4, 2 and 4
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    tr = tracing.Tracer(package="fakepkg",
                        targets=(tracing.Target("layer", "outer"),
                                 tracing.Target("layer", "inner")),
                        clock=lambda: next(ticks))
    tr.install()
    try:
        assert layer.outer() == 2
    finally:
        tr.uninstall()
    summary = tr.summary()
    assert summary["layer.outer"] == {"calls": 1, "self_s": 4.0}
    assert summary["layer.inner"] == {"calls": 2, "self_s": 6.0}
    assert [s.parent for s in tr.spans] == [None, 0, 0]


@pytest.mark.parametrize("n, value, pct, beyond", [
    (100, 90, 90.0, 10),
    (30, 20, 100.0 * 20 / 30, 10),
    (20, 10, 50.0, 10),
    (19, 10, 50.0, 9),   # rank 9 would sit below the median: fall back
    (2, 1.5, 50.0, 1),
])
def test_tail_is_highest_rank_with_ten_beyond(n, value, pct, beyond):
    latencies = list(range(n, 0, -1))  # unsorted on purpose
    assert stats.tail(latencies) == (value, pytest.approx(pct), beyond)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    def first(seed, n=60):
        return list(itertools.islice(workloads.iter_ops(workload, seed), n))
    assert first(11) == first(11)
    assert first(11) != first(12)
    assert workloads.trace_ops(workload, 11) == first(
        11, len(workloads.trace_ops(workload, 11)))


def test_certificate_blocks_keep_their_composition():
    ops = list(itertools.islice(workloads.iter_ops("certificate", 5), 40))
    for start in range(0, 40, 10):
        kinds = [op.kind for op in ops[start:start + 10]]
        assert kinds.count("construct-theta_log_sq") == 6
        assert kinds.count("classify") + kinds.count("refused") == 1


def _bindings():
    """Every (holder, attribute, object) a traced target is reachable by."""
    out = []
    for target in tracing.TARGETS:
        home = sys.modules[f"inghamlab.{target.module}"]
        owner, _, attr = target.path.rpartition(".")
        if owner:
            cls = getattr(home, owner)
            out.append((cls, attr, cls.__dict__[attr]))
            continue
        original = getattr(home, attr)
        for key, module in list(sys.modules.items()):
            if key.startswith("inghamlab"):
                out += [(module, name, value) for name, value in vars(module).items()
                        if value is original]
    return out


def test_uninstall_restores_every_wrapped_function():
    import inghamlab.cli
    from inghamlab import Grid, SampledFunction, fourier
    before = _bindings()
    original = fourier.fourier_transform
    tr = tracing.Tracer()
    tr.install()
    try:
        assert inghamlab.cli.fourier_transform is not original
        grid = Grid.symmetric(4.0, 64)
        f = SampledFunction.from_callable(grid, lambda x: np.exp(-x * x))
        inghamlab.cli.fourier_transform(f, np.linspace(-1.0, 1.0, 5))
    finally:
        tr.uninstall()
    names = {s.name for s in tr.spans}
    assert {"fourier.fourier_transform.nondual",
            "grids.SampledFunction.from_callable"} <= names
    assert tr.counts["fourier.nondual_mults"] == 64 * 5
    assert all(holder.__dict__[attr] is value for holder, attr, value in before)
    count = len(tr.spans)
    inghamlab.cli.fourier_transform(f)
    assert len(tr.spans) == count


def test_line_flow_reference_matches_gaussian_solution():
    x, h = checks.grid_nodes(32.0, 2048, False)
    t = 0.7
    u = checks.line_flow(np.exp(-0.5 * x * x) + 0j, h, t)
    exact = (1 + 2j * t) ** -0.5 * np.exp(-x * x / (2 * (1 + 2j * t)))
    assert checks.flow_dev(u, exact) < 1e-12
