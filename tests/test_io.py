import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inghamlab as il
from inghamlab import io
from inghamlab.cli import main


def _reference_csv(coord, points, values) -> bytes:
    """The CSV contract written out plainly: one repr per cell."""
    rows = "".join("%r,%r,%r\n" % (float(p), float(v.real), float(v.imag))
                   for p, v in zip(points, values))
    return f"{coord},re,im\n{rows}".encode()


def _columns(cells):
    """Coordinates and complex values of (n, 3) rows; re + 1j*im would
    turn an infinite imaginary part into a NaN real part."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 3)
    values = np.empty(len(cells), dtype=complex)
    values.real, values.imag = cells[:, 1], cells[:, 2]
    return cells[:, 0], values


def _assert_written_as_reference(tmp_path, cells):
    points, values = _columns(cells)
    path = tmp_path / "cells.csv"
    io._write_csv(path, "x", points, values)
    assert path.read_bytes() == _reference_csv("x", points, values)


def test_samples_csv_format(tmp_path):
    g = il.Grid(0.0, 1.0, 4)
    f = il.SampledFunction(g, np.array([1.0, 0.5j, -1.0, 0.25 + 0.25j]))
    path = tmp_path / "f.csv"
    io.write_samples_csv(path, f)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 5
    assert lines[1] == "0.0,1.0,0.0"
    assert lines[2] == "0.25,0.0,0.5"


def test_spectrum_csv_format(tmp_path):
    F = il.SpectralFunction(np.array([-1.0, 0.0, 2.0]),
                            np.array([1j, 2.0, -0.5 + 0j]))
    path = tmp_path / "F.csv"
    io.write_spectrum_csv(path, F)
    lines = path.read_text().splitlines()
    assert lines[0] == "xi,re,im"
    assert lines[1] == "-1.0,0.0,1.0"


def test_csv_floats_roundtrip(tmp_path):
    # shortest-repr cells parse back to the exact binary values
    g = il.Grid.symmetric(np.pi, 16)
    f = il.SampledFunction.from_callable(g, lambda x: np.sin(x) * 1e-7)
    path = tmp_path / "r.csv"
    io.write_samples_csv(path, f)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], g.nodes)
    np.testing.assert_array_equal(rows[:, 1], f.values.real)


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True, width=64)
# each seam between repr's and Ryu's notation, signed zeros, non-finite
# cells, 10.00001, whose "0.00001" tail must stay positional, and the
# floats either side of each threshold the writer sorts cells by
_SEAMS = [1e-05, -1.5e-05, 9.999999999999999e-05, 0.0001, 1e-06, 1e-09,
          1e-10, 9999999999999998.0, 1e16, 1e100, 5e-324,
          1.7976931348623157e308, 10.00001, -0.0, 0.0, float("nan"),
          float("inf"), float("-inf"), -1e-09, -1e16] + [
    sign * float(np.nextafter(threshold, toward))
    for threshold in (1e-9, 1e-5, 1e-4, 1e16)
    for toward in (0.0, np.inf) for sign in (1.0, -1.0)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT), max_size=40))
@example([tuple(_SEAMS[i:i + 3]) for i in range(0, len(_SEAMS), 3)])
@example([(v, -v, v / 3) for v in _SEAMS])
def test_csv_cells_are_repr(tmp_path_factory, rows):
    _assert_written_as_reference(tmp_path_factory.mktemp("csv"), rows)


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 5, 11])
def test_csv_blocks_join_seamlessly(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
    rng = np.random.default_rng(n_rows)
    shape = (n_rows, 3)
    cells = np.where(rng.random(shape) < 0.5, rng.choice(_SEAMS, shape),
                     rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 20, shape))
    _assert_written_as_reference(tmp_path, cells)


# log10 ranges of |v| for each class of cell the writer spells its own way
_CELL_CLASSES = {
    "plain": [(-4.0, 16.0), (-323.0, -9.0)],
    "one-digit-exponent": [(-9.0, -5.0)],
    "decade": [(-5.0, -4.0)],
    "huge": [(16.0, 308.0)],
}


def _class_cells(kind, n_cells, rng):
    """Cells of one class with random signs, "nonfinite" included."""
    if kind == "nonfinite":
        return rng.choice([np.nan, np.inf, -np.inf], n_cells)
    ranges = np.array(_CELL_CLASSES[kind])
    lo, hi = ranges[rng.integers(len(ranges), size=n_cells)].T
    return rng.choice([-1.0, 1.0], n_cells) * 10.0 ** rng.uniform(lo, hi)


@pytest.mark.parametrize("kind", [*_CELL_CLASSES, "nonfinite"])
def test_csv_blocks_of_one_class(tmp_path, monkeypatch, kind):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
    rng = np.random.default_rng(len(kind))
    _assert_written_as_reference(tmp_path, _class_cells(kind, 3 * 11, rng))


def test_csv_blocks_mixing_every_class(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "CSV_BLOCK_ROWS", 4)
    rng = np.random.default_rng(1)
    cells = [_class_cells(kind, 24, rng) for kind in [*_CELL_CLASSES, "nonfinite"]]
    _assert_written_as_reference(
        tmp_path, rng.permutation(np.concatenate([*cells, _SEAMS])))


@pytest.mark.parametrize("argv", [
    ["transform", "--initial", "gaussian", "--probe", "4"],
    ["evolve", "--group", "sl2c", "--path", "closed"],
    ["construct"],
], ids=["transform", "evolve-closed-group", "construct"])
def test_cli_csv_artifacts_are_repr(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    csvs = sorted(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        written = path.read_bytes()
        header, *lines = written.decode().splitlines()
        points, values = _columns([[float(c) for c in line.split(",")]
                                   for line in lines])
        assert written == _reference_csv(header.split(",")[0], points, values)


def test_jsonable_handles_numpy_and_complex():
    blob = io.jsonable({
        "a": np.float64(1.5),
        "b": np.int32(3),
        "c": np.bool_(True),
        "d": 1 + 2j,
        "e": np.array([1.0, 2.0]),
        "f": (np.inf, np.nan),
    })
    assert blob["a"] == 1.5 and isinstance(blob["a"], float)
    assert blob["b"] == 3 and isinstance(blob["b"], int)
    assert blob["c"] is True
    assert blob["d"] == {"re": 1.0, "im": 2.0}
    assert blob["e"] == [1.0, 2.0]
    assert blob["f"] == ["inf", "nan"]


def test_canonical_json_is_sorted_and_newline_terminated(tmp_path):
    text = io.canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": {"z": 2, "y": 3}}


def test_canonical_json_sanitizes_non_finite():
    text = io.canonical_json({"x": float("nan"), "y": float("inf")})
    assert '"nan"' in text and '"inf"' in text


def test_config_digest_is_order_insensitive():
    d1 = io.config_digest({"a": 1, "b": [1, 2]})
    d2 = io.config_digest({"b": [1, 2], "a": 1})
    assert d1 == d2
    assert len(d1) == 64
    assert io.config_digest({"a": 2, "b": [1, 2]}) != d1


def test_build_manifest(tmp_path):
    m = io.build_manifest("construct", {"grid": {"points": 4}},
                          {"verdict": il.HOLDS},
                          ["b.csv", "a.json"])
    assert m["schema_version"] == 1
    assert m["subcommand"] == "construct"
    assert m["outputs"] == ["a.json", "b.csv"]
    assert m["config_sha256"] == io.config_digest({"grid": {"points": 4}})
    path = tmp_path / "m.json"
    io.write_json(path, m)
    assert json.loads(path.read_text())["results"]["verdict"] == il.HOLDS
