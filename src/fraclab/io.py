"""CSV and JSON serialization for grid data, split functions, and problems.

Floats are written with 17 significant digits so every file round-trips
bit-exactly through the text form.
"""

from __future__ import annotations

import json
import math
import os
from itertools import repeat
from typing import Any

import numpy as np

from .core import FracParams, Grid, GridFunction, SplitFunction
from .special import PowerTerm, Side

__all__ = [
    "ParseError",
    "fmt",
    "write_grid_csv",
    "read_grid_csv",
    "split_to_dict",
    "split_from_dict",
    "read_split_json",
    "write_split_json",
]


class ParseError(ValueError):
    """Malformed input file."""


_FMT = "%.17g"


def fmt(x: float) -> str:
    """The 17-significant-digit decimal form, round-trip exact.

    Always 17 digits, not the shortest form: ``fmt(0.1)`` is
    ``"0.10000000000000001"``.
    """
    return _FMT % float(x)


def _number(x, what: str, kind: type = float):
    """A JSON number as ``kind``: an int or a float as json.load returns it
    (an int alone for ``kind=int``).  Strings, bools and null are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int,) if kind is int else (int, float)):
        raise ParseError(f"{what}: expected a JSON {kind.__name__}, got {x!r}")
    try:
        return kind(x)
    except OverflowError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _numbers(x, what: str) -> float | np.ndarray:
    """A JSON number, or a list of them as a float array."""
    if isinstance(x, list):
        return np.array([_number(v, what) for v in x], dtype=float)
    return _number(x, what)


def _require_finite(values, what: str) -> None:
    ok = (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x) for x in values)
    if not all(ok):
        raise ParseError(f"{what}: non-finite entry (nan or inf)")


def _grid_csv_text(f: GridFunction) -> str:
    """The CSV form of grid samples: header ``t,v0,...``, then one row per node."""
    head = "t," + ",".join(f"v{k}" for k in range(f.m)) + "\n"
    row = _FMT + ("," + _FMT) * f.m + "\n"
    cells = np.column_stack([f.grid.nodes, f.values]).ravel().tolist()
    return head + (row * (f.grid.n + 1)) % tuple(cells)


def write_grid_csv(path: str, f: GridFunction) -> None:
    with open(path, "w") as fh:
        fh.write(_grid_csv_text(f))


def read_grid_csv(path: str) -> GridFunction:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # Split on "\n" alone: splitlines() also breaks at \x0b, \x0c, \x1c-\x1e,
    # \x85 and \u2028/\u2029, which would let a malformed row through.
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    if len(lines) < 3:
        raise ParseError(f"{path}: need a header and at least two data rows")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise ParseError(f"{path}: expected header 't,v0[,v1,...]'")
    rows = lines[1:]
    # Commas counted per row: a total alone would pass rows "0,1,2" and "3" as
    # two rows of width 2.
    if set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        raise ParseError(f"{path}: row width does not match header")
    cells = ",".join(rows).split(",")
    try:
        data = np.fromiter(map(float, cells), float, len(cells)).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from exc
    _require_finite([data], path)
    t = data[:, 0]
    n = len(t) - 1
    a, b = float(t[0]), float(t[-1])
    if not np.all(t[1:] > t[:-1]):
        raise ParseError(f"{path}: nodes must increase")
    if not math.isfinite(b - a):
        raise ParseError(f"{path}: node span {a} to {b} overflows")
    h = (b - a) / n
    if np.max(np.abs(np.diff(t) - h)) > 1e-12 * (b - a):
        raise ParseError(f"{path}: nodes are not uniformly spaced")
    return GridFunction(Grid(a, b, n), data[:, 1:])


def _coeff_to_json(c) -> Any:
    arr = np.atleast_1d(np.asarray(c, dtype=float))
    if arr.size == 1:
        return float(arr[0])
    return [float(x) for x in arr]


def _terms_to_json(terms) -> list[dict]:
    return [{"coeff": _coeff_to_json(t.coeff), "exponent": float(t.exponent)} for t in terms]


def _terms_from_json(items, side: Side | None = None) -> list[PowerTerm]:
    """Power terms from JSON items; with ``side`` None each item names its own
    ``"side"`` (``"left"`` when absent)."""
    out = []
    try:
        for it in items:
            coeff = _numbers(it["coeff"], "power term coeff")
            exponent = _number(it["exponent"], "power term exponent")
            _require_finite([coeff, exponent], "power term")
            out.append(PowerTerm(coeff, exponent, side or Side(it.get("side", "left"))))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed power term: {exc}") from exc
    return out


def split_to_dict(q: SplitFunction, grid_csv: str | None = None) -> dict:
    """JSON-ready dict.  Grid densities require ``grid_csv``, written separately."""
    p = q.params
    d: dict[str, Any] = {
        "alpha": p.alpha,
        "p": None if math.isinf(p.p) else p.p,
        "a": p.a,
        "b": p.b,
        "side": q.side.value,
        "c": [float(x) for x in q.c],
    }
    if isinstance(q.phi, GridFunction):
        if grid_csv is None:
            raise ValueError("grid density needs a csv path")
        d["phi"] = {"kind": "grid", "csv": grid_csv}
    else:
        d["phi"] = {"kind": "poly", "terms": _terms_to_json(q.phi)}
    return d


def split_from_dict(d: dict, base_dir: str = ".") -> SplitFunction:
    try:
        p_raw = d.get("p")
        params = FracParams(
            alpha=_number(d["alpha"], "alpha"),
            p=math.inf if p_raw is None else _number(p_raw, "p"),
            a=_number(d["a"], "a"),
            b=_number(d["b"], "b"),
        )
        side = Side(d.get("side", "left"))
        c = _numbers(d["c"], "c")
        phi = d["phi"]
        kind = phi["kind"]
        if kind == "poly":
            density = _terms_from_json(phi["terms"], side)
        elif kind == "grid":
            density = read_grid_csv(os.path.join(base_dir, phi["csv"]))
        else:
            raise ParseError(f"unknown density kind {kind!r}")
        _require_finite([params.a, params.b, c], "split-function JSON")
        return SplitFunction(params, c, density, side)
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed split-function JSON: {exc}") from exc


def read_split_json(path: str) -> SplitFunction:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return split_from_dict(d, base_dir=os.path.dirname(path) or ".")


def write_split_json(path: str, q: SplitFunction) -> None:
    grid_csv = None
    if isinstance(q.phi, GridFunction):
        grid_csv = os.path.splitext(os.path.basename(path))[0] + "_phi.csv"
        write_grid_csv(os.path.join(os.path.dirname(path) or ".", grid_csv), q.phi)
    with open(path, "w") as fh:
        json.dump(split_to_dict(q, grid_csv), fh, indent=2)
        fh.write("\n")
