"""CSV/JSON round trips and parse failures."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fraclab.core import FracParams, Grid, GridFunction, RightSplitFunction, SplitFunction
from fraclab.io import (
    ParseError,
    _grid_csv_text,
    fmt,
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


def reference_csv_text(f):
    """The per-value writer that ``_grid_csv_text`` must match byte for byte."""
    lines = ["t," + ",".join(f"v{k}" for k in range(f.m))]
    for t, row in zip(f.grid.nodes, f.values):
        lines.append(",".join([fmt(t)] + [fmt(v) for v in row]))
    return "\n".join(lines) + "\n"


def reference_cells(text):
    """Each data cell parsed by its own ``float()``, as a float array."""
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.797e308, -1.797e308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


@st.composite
def grid_functions(draw):
    """Grid samples on a uniform grid, with -0.0, subnormals and values near
    the float limit mixed in."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 3))
    a = draw(st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0))
    b = draw(st.floats(a + 0.1, a + 100.0))
    sample = st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(sample, min_size=(n + 1) * m, max_size=(n + 1) * m))
    return GridFunction(Grid(a, b, n), np.reshape(values, (n + 1, m)))


@settings(max_examples=300, deadline=None)
@given(f=grid_functions())
@example(f=GridFunction(Grid(-1.0, -0.0, 2), np.reshape(EXTREMES[:9], (3, 3))))
def test_grid_csv_text_matches_per_value_format(f, tmp_path_factory):
    text = _grid_csv_text(f)
    assert text == reference_csv_text(f)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    write_grid_csv(str(path), f)
    assert path.read_text() == text
    back = read_grid_csv(str(path))
    ref = reference_cells(text)
    # bit for bit: -0.0 and 0.0 differ here, as do the last bits of a value
    assert back.values.tobytes() == np.ascontiguousarray(ref[:, 1:]).tobytes()
    assert back.values.tobytes() == f.values.tobytes()
    assert (back.grid.a, back.grid.b, back.grid.n) == (ref[0, 0], ref[-1, 0], f.grid.n)


@given(x=st.floats() | st.sampled_from(EXTREMES))
def test_fmt_matches_format_17g(x):
    assert fmt(x) == format(x, ".17g")


def test_fmt_is_17_digits_not_shortest():
    assert fmt(0.1) == "0.10000000000000001"


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
    # rows of the wrong width, even where the cell count adds up, and a
    # trailing comma; a vertical tab does not end a line
    for text in (
        "t,v0\n0,1,2\n3\n",
        "t,v0\n0,1\n0.5,1,2\n1\n",
        "t,v0\n0,1,\n0.5,1,\n1,1,\n",
        "t,v0\n0,1\n0.5,1,\n1,2\n",
        "t,v0\n0,1\x0b0.5,2\n1,3\n",
    ):
        path.write_text(text)
        with pytest.raises(ParseError):
            read_grid_csv(str(path))
    # blank and whitespace-only lines, CRLF or CR line ends, and spaces or tabs
    # around cells read as the plain file does
    for text in (
        "t,v0\n\n0,1\n   \n0.5,2\n\t\n1,3\n\n",
        "t,v0\r\n0,1\r\n0.5,2\r\n1,3\r\n",
        "t,v0\r0,1\r0.5,2\r1,3\r",
        " t,v0 \n 0 ,\t1\n0.5 , 2 \n\t1,\t3\t\n",
    ):
        path.write_bytes(text.encode())
        f = read_grid_csv(str(path))
        assert (f.grid.a, f.grid.b, f.grid.n) == (0.0, 1.0, 2)
        np.testing.assert_array_equal(f.values, [[1.0], [2.0], [3.0]])
    # nodes out of order, and finite nodes whose span overflows
    for nodes, message in (((0, 2, 1, 3), "increase"), ((-1e308, 0, 1e308), "overflows")):
        path.write_text("t,v0\n" + "".join(f"{t},1\n" for t in nodes))
        with pytest.raises(ParseError, match=message):
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
    assert back.side is Side.RIGHT
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


@pytest.mark.parametrize("bad", ["2.25", True, None, ["1.0"]], ids=["string", "bool", "null", "string_list"])
@pytest.mark.parametrize("field", ["coeff", "exponent"])
def test_power_terms_require_json_numbers(field, bad):
    from fraclab.io import _terms_from_json

    with pytest.raises(ParseError, match="expected a JSON float"):
        _terms_from_json([{"coeff": 1.0, "exponent": 0.5, field: bad}])


@pytest.mark.parametrize(
    "edit",
    [
        {"alpha": "0.5"},
        {"a": False},
        {"b": "1"},
        {"p": "2.0"},
        {"c": ["0.0"]},
        {"c": [True]},
    ],
    ids=["alpha_string", "a_bool", "b_string", "p_string", "c_string", "c_bool"],
)
def test_split_dict_requires_json_numbers(edit):
    from fraclab.io import split_from_dict

    d = {
        "alpha": 0.5, "p": 4.0, "a": 0.0, "b": 1.0, "side": "left", "c": [0.0],
        "phi": {"kind": "poly", "terms": [{"coeff": 1.0, "exponent": 0.0}]},
    }
    split_from_dict(d)  # the unedited dict reads
    with pytest.raises(ParseError, match="expected a JSON float"):
        split_from_dict({**d, **edit})


def test_split_dict_int_too_large_for_float():
    from fraclab.io import split_from_dict

    with pytest.raises(ParseError, match="too large"):
        split_from_dict({"alpha": 0.5, "a": 0, "b": 10**400, "c": [0.0], "phi": {"kind": "poly", "terms": []}})


@pytest.mark.parametrize(
    "d",
    [
        [1, 2],
        {"alpha": 0.5, "a": 0.0, "b": 1.0, "c": [0.0], "phi": {"kind": "grid", "csv": 5}},
        {"alpha": 0.5, "a": 0.0, "b": 1.0, "c": [0.0], "phi": {"kind": "grid"}},
        {"alpha": 0.5, "a": 0.0, "b": 1.0, "c": [0.0], "phi": {"kind": "poly"}},
    ],
    ids=["top_level_list", "csv_not_a_path", "grid_without_csv", "poly_without_terms"],
)
def test_split_dict_malformed_is_parse_error(d):
    from fraclab.io import split_from_dict

    with pytest.raises(ParseError):
        split_from_dict(d)
