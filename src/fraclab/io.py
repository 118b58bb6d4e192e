"""CSV and JSON serialization for grid data, split functions, and problems.

Floats are written with 17 significant digits so every file round-trips
bit-exactly through the text form.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np

from .core import FracParams, Grid, GridFunction, RightSplitFunction, SplitFunction
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


def fmt(x: float) -> str:
    """Shortest 17-significant-digit decimal form, round-trip exact."""
    return format(float(x), ".17g")


def _require_finite(values, what: str) -> None:
    ok = (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x) for x in values)
    if not all(ok):
        raise ParseError(f"{what}: non-finite entry (nan or inf)")


def write_grid_csv(path: str, f: GridFunction) -> None:
    header = "t," + ",".join(f"v{k}" for k in range(f.m))
    lines = [header]
    for t, row in zip(f.grid.nodes, f.values):
        lines.append(",".join([fmt(t)] + [fmt(v) for v in row]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_grid_csv(path: str) -> GridFunction:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 3:
        raise ParseError(f"{path}: need a header and at least two data rows")
    header = lines[0].split(",")
    if header[0] != "t" or len(header) < 2:
        raise ParseError(f"{path}: expected header 't,v0[,v1,...]'")
    try:
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric entry ({exc})") from exc
    if data.shape[1] != len(header):
        raise ParseError(f"{path}: row width does not match header")
    _require_finite([data], path)
    t = data[:, 0]
    n = len(t) - 1
    a, b = float(t[0]), float(t[-1])
    if not a < b:
        raise ParseError(f"{path}: nodes must increase")
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


def _terms_from_json(items, side: Side) -> list[PowerTerm]:
    out = []
    for it in items:
        coeff = it["coeff"]
        coeff = np.asarray(coeff, dtype=float) if isinstance(coeff, list) else float(coeff)
        try:
            _require_finite([coeff, float(it["exponent"])], "power term")
            out.append(PowerTerm(coeff, float(it["exponent"]), side))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    return out


def split_to_dict(q: SplitFunction | RightSplitFunction, grid_csv: str | None = None) -> dict:
    """JSON-ready dict.  Grid densities require ``grid_csv``, written separately."""
    p = q.params
    left = isinstance(q, SplitFunction)
    coeff = q.c if left else q.d
    density = q.phi if left else q.psi
    d: dict[str, Any] = {
        "alpha": p.alpha,
        "p": None if math.isinf(p.p) else p.p,
        "a": p.a,
        "b": p.b,
        "side": "left" if left else "right",
        "c": [float(x) for x in coeff],
    }
    if isinstance(density, GridFunction):
        if grid_csv is None:
            raise ValueError("grid density needs a csv path")
        d["phi"] = {"kind": "grid", "csv": grid_csv}
    else:
        d["phi"] = {"kind": "poly", "terms": _terms_to_json(density)}
    return d


def split_from_dict(d: dict, base_dir: str = ".") -> SplitFunction | RightSplitFunction:
    try:
        p_raw = d.get("p")
        params = FracParams(
            alpha=float(d["alpha"]),
            p=math.inf if p_raw is None else float(p_raw),
            a=float(d["a"]),
            b=float(d["b"]),
        )
        side = d.get("side", "left")
        c = np.asarray(d["c"], dtype=float)
        phi = d["phi"]
        kind = phi["kind"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed split-function JSON: {exc}") from exc
    _require_finite([params.a, params.b, c], "split-function JSON")
    term_side = Side.LEFT if side == "left" else Side.RIGHT
    if kind == "poly":
        density = _terms_from_json(phi["terms"], term_side)
    elif kind == "grid":
        density = read_grid_csv(os.path.join(base_dir, phi["csv"]))
    else:
        raise ParseError(f"unknown density kind {kind!r}")
    try:
        if side == "left":
            return SplitFunction(params, c, density)
        if side == "right":
            return RightSplitFunction(params, c, density)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown side {side!r}")


def read_split_json(path: str) -> SplitFunction | RightSplitFunction:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    return split_from_dict(d, base_dir=os.path.dirname(path) or ".")


def write_split_json(path: str, q: SplitFunction | RightSplitFunction) -> None:
    grid_csv = None
    density = q.phi if isinstance(q, SplitFunction) else q.psi
    if isinstance(density, GridFunction):
        grid_csv = os.path.splitext(os.path.basename(path))[0] + "_phi.csv"
        write_grid_csv(os.path.join(os.path.dirname(path) or ".", grid_csv), density)
    with open(path, "w") as fh:
        json.dump(split_to_dict(q, grid_csv), fh, indent=2)
        fh.write("\n")
