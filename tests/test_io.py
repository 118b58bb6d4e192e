"""CSV/JSON round trips and parse failures."""

import json

import numpy as np
import pytest

from fraclab.core import FracParams, Grid, GridFunction, RightSplitFunction, SplitFunction
from fraclab.io import (
    ParseError,
    read_grid_csv,
    read_split_json,
    write_grid_csv,
    write_split_json,
)
from fraclab.special import PowerTerm, Side


def test_grid_csv_round_trip(tmp_path):
    g = Grid(-0.5, 2.0, 17)
    rng = np.random.default_rng(0)
    f = GridFunction(g, rng.normal(size=(18, 3)) * 1e-7)
    path = tmp_path / "f.csv"
    write_grid_csv(str(path), f)
    back = read_grid_csv(str(path))
    assert back.grid.n == 17
    assert back.grid.a == g.a and back.grid.b == g.b
    np.testing.assert_array_equal(back.values, f.values)  # 17 digits: bit-exact


def test_grid_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v0\n0,1\n0.4,1\n1.0,1\n")
    with pytest.raises(ParseError):
        read_grid_csv(str(path))


def test_grid_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ParseError):
        read_grid_csv(str(path))
    path.write_text("t,v0\n0,x\n1,2\n2,3\n")
    with pytest.raises(ParseError):
        read_grid_csv(str(path))
    for entry in ("nan", "inf", "-inf"):
        path.write_text(f"t,v0\n0,1\n0.5,{entry}\n1,1\n")
        with pytest.raises(ParseError, match="non-finite"):
            read_grid_csv(str(path))


def test_split_json_round_trip_poly(tmp_path):
    p = FracParams(0.6, 2.0, 0.0, 1.5)
    q = SplitFunction(p, [0.25, -1.0], [PowerTerm(np.array([1.0, 2.0]), 0.5, Side.LEFT)])
    path = tmp_path / "q.json"
    write_split_json(str(path), q)
    back = read_split_json(str(path))
    assert isinstance(back, SplitFunction)
    assert back.params == p
    np.testing.assert_array_equal(back.c, q.c)
    assert len(back.phi) == 1
    assert back.phi[0].exponent == 0.5
    np.testing.assert_array_equal(np.atleast_1d(back.phi[0].coeff), [1.0, 2.0])


def test_split_json_round_trip_right(tmp_path):
    p = FracParams(0.7, 4.0, 0.0, 1.0)
    q = RightSplitFunction(p, [1.0], [PowerTerm(2.0, 1.0, Side.RIGHT)])
    path = tmp_path / "q.json"
    write_split_json(str(path), q)
    back = read_split_json(str(path))
    assert isinstance(back, RightSplitFunction)
    assert back.psi[0].side is Side.RIGHT


def test_split_json_grid_density(tmp_path):
    p = FracParams(0.6, 4.0, 0.0, 1.0)
    g = Grid(0.0, 1.0, 8)
    q = SplitFunction(p, [0.0], GridFunction(g, np.arange(9.0)))
    path = tmp_path / "q.json"
    write_split_json(str(path), q)
    back = read_split_json(str(path))
    assert isinstance(back.phi, GridFunction)
    np.testing.assert_array_equal(back.phi.values[:, 0], np.arange(9.0))


def test_split_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        read_split_json(str(path))
    path.write_text(json.dumps({"alpha": 0.5}))
    with pytest.raises(ParseError):
        read_split_json(str(path))
    # invalid exponent surfaces as a parse error
    split = {
        "alpha": 0.5,
        "p": 2.0,
        "a": 0.0,
        "b": 1.0,
        "c": [0.0],
        "phi": {"kind": "poly", "terms": [{"coeff": 1.0, "exponent": -2.0}]},
    }
    path.write_text(json.dumps(split))
    with pytest.raises(ParseError):
        read_split_json(str(path))
    # so does any non-finite number (json writes them as NaN / Infinity)
    split["phi"]["terms"][0]["exponent"] = 1.0
    for key, value in (("c", [float("nan")]), ("a", float("-inf"))):
        path.write_text(json.dumps({**split, key: value}))
        with pytest.raises(ParseError, match="non-finite"):
            read_split_json(str(path))
    for field in ("coeff", "exponent"):
        terms = [{"coeff": 1.0, "exponent": 1.0, field: float("inf")}]
        path.write_text(json.dumps({**split, "phi": {"kind": "poly", "terms": terms}}))
        with pytest.raises(ParseError, match="non-finite"):
            read_split_json(str(path))
