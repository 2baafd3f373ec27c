"""Deterministic artifact writers: CSV for samples, JSON for reports.

Every CSV cell is exactly ``repr(float(value))``: the shortest text that
parses back to the same float64.  Rows follow grid order, so identical
inputs produce bit-identical files.  The writer takes its digits from
orjson's Ryu formatter, blocks of ``CSV_BLOCK_ROWS`` rows at a time so
that memory stays bounded, and maps Ryu's notation onto ``repr``'s:
exponents get a sign and two digits (``e16`` -> ``e+16``, ``e-6`` ->
``e-06``), the decade [1e-5, 1e-4) that Ryu keeps positional becomes
scientific (``0.0000123`` -> ``1.23e-05``), and the ``null`` orjson
writes for a non-finite cell becomes ``nan``, ``inf`` or ``-inf``.

JSON is written with sorted keys and no timestamps for the same reason;
non-finite floats are stringified because strict JSON has no spelling
for them.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import orjson

from .grids import SampledFunction, SpectralFunction


CSV_BLOCK_ROWS = 1 << 16

# Ryu notation -> repr notation.  Literal templates and patterns that start
# with a literal keep each pass fast; the look-behind skips "10.00001".
_NOTATION = (
    (re.compile(rb"e(?=[0-9])"), rb"e+"),
    (re.compile(rb"e-(?=[0-9](?![0-9]))"), rb"e-0"),
    (re.compile(rb"0\.0000(?<![0-9]0\.0000)([1-9])([0-9]*)"), rb"\1.\2e-05"),
)


def _csv_block(cells: np.ndarray) -> bytes:
    """Rows ``a,b,c\n`` of an (n, 3) float64 block, each cell its repr."""
    text = orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)
    text = text[2:-2].replace(b"],[", b"\n") + b"\n"
    for pattern, template in _NOTATION:
        text = pattern.sub(template, text)
    text = text.replace(b".e-05", b"e-05")  # a one-digit mantissa has no dot
    nonfinite = cells[~np.isfinite(cells)]
    if nonfinite.size:
        pieces = text.split(b"null")
        text = pieces[0] + b"".join(repr(v).encode() + piece for v, piece
                                    in zip(nonfinite.tolist(), pieces[1:]))
    return text


def _write_csv(path, coord: str, points, values) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{coord},re,im\n".encode())
        for start in range(0, len(values), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            fh.write(_csv_block(np.stack(
                (points[block], values[block].real, values[block].imag), axis=1)))


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
