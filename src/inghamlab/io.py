"""Deterministic artifact writers: CSV for samples, JSON for reports.

CSV cells use shortest-roundtrip float repr and rows follow grid order,
so identical inputs produce bit-identical files.  JSON is written with
sorted keys and no timestamps for the same reason; non-finite floats
are stringified because strict JSON has no spelling for them.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .grids import SampledFunction, SpectralFunction


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path, coord: str, points, values) -> None:
    lines = [f"{coord},re,im"]
    for p, v in zip(points, values):
        lines.append(f"{_fmt(p)},{_fmt(v.real)},{_fmt(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_samples_csv(path, f: SampledFunction) -> None:
    _write_csv(path, "x", f.grid.nodes, f.values)


def write_spectrum_csv(path, F: SpectralFunction) -> None:
    _write_csv(path, "xi", F.xi_values, F.values)


def jsonable(obj):
    """Recursively coerce numpy scalars/arrays and non-finite floats."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            return repr(v)
        return v
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    return obj


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def config_digest(config: dict) -> str:
    payload = json.dumps(jsonable(config), sort_keys=True,
                         separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_manifest(subcommand: str, config: dict, results: dict,
                   outputs: list) -> dict:
    return {
        "schema_version": 1,
        "subcommand": subcommand,
        "config": jsonable(config),
        "config_sha256": config_digest(config),
        "results": jsonable(results),
        "outputs": sorted(str(p) for p in outputs),
    }
