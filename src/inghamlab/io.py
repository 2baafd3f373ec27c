"""Deterministic artifact writers: CSV for samples, JSON for reports.

Every CSV cell is exactly ``repr(float(value))``: the shortest text that
parses back to the same float64.  Rows follow grid order, so identical
inputs produce bit-identical files.  The writer takes its digits from
orjson's Ryu formatter, blocks of ``CSV_BLOCK_ROWS`` rows at a time so
that memory stays bounded.  Ryu and ``repr`` spell a *plain* cell alike:
a finite cell with |v| in [1e-4, 1e16) (positional in both) or |v| < 1e-9
(a two- or three-digit exponent in both).  The block is dumped with every
other cell set to NaN, and each ``null`` orjson writes there is spliced
out for that cell's own text.  Cells with 1e-9 <= |v| < 1e-5 are the
numerous kind: their exponent is -6 to -9, so one dump of just those
cells, with ``e-`` widened to ``e-0``, spells them (``1.5e-7`` ->
``1.5e-07``).  Finite cells with |v| >= 1e16 get one dump with ``e``
widened to ``e+`` (``1e16`` -> ``1e+16``).  The rest, the decade
[1e-5, 1e-4) that Ryu keeps positional, NaN and +-inf, take ``repr``
itself.  The thresholds are the floats nearest their powers of ten, and
the shortest digits of a float lie below 10^k exactly when the float
lies below fl(10^k), so comparing floats sorts each cell by the
exponent Ryu prints.

JSON is written with sorted keys and no timestamps for the same reason;
non-finite floats are stringified because strict JSON has no spelling
for them.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import orjson

from .grids import SampledFunction, SpectralFunction


CSV_BLOCK_ROWS = 1 << 16

_NUMPY = orjson.OPT_SERIALIZE_NUMPY
# Finite cells that are not plain but that one dump of their own spells
# right after one replace: |v| in [lo, hi) and Ryu text -> repr text.
# Exponents -6 to -9 gain a zero; exponents 16 to 308 gain a sign.
_RESPELL = ((1e-9, 1e-5, b"e-", b"e-0"), (1e16, np.inf, b"e", b"e+"))


def _csv_block(cells: np.ndarray) -> bytes:
    """Rows ``a,b,c\n`` of an (n, 3) float64 block, each cell its repr."""
    size = np.abs(cells)
    plain = ((size >= 1e-4) & (size < 1e16)) | (size < 1e-9)
    text = orjson.dumps(np.where(plain, cells, np.nan), option=_NUMPY)
    text = text[2:-2].replace(b"],[", b"\n") + b"\n"
    odd, odd_size = cells[~plain], size[~plain]
    if not odd.size:
        return text
    spelled = np.empty(odd.size, dtype=object)
    rest = np.ones(odd.size, dtype=bool)
    for lo, hi, ryu, spelling in _RESPELL:
        kind = (odd_size >= lo) & (odd_size < hi)
        if kind.any():
            rest &= ~kind
            digits = orjson.dumps(odd[kind], option=_NUMPY)[1:-1]
            spelled[kind] = digits.replace(ryu, spelling).split(b",")
    spelled[rest] = [repr(v).encode() for v in odd[rest].tolist()]
    joined = [None] * (2 * odd.size + 1)
    joined[::2] = text.split(b"null")
    joined[1::2] = spelled.tolist()
    return b"".join(joined)


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
