"""Command-line front end: operator application, identity verification,
Euler-Lagrange checks, BVP solving, and convergence studies.

Exit codes: 0 success, 2 I/O or parse error, 3 precondition or regime
violation, 4 numerical failure.  Diagnostics go to stderr; data goes to
stdout or the requested output file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import io as fio
from .core import (
    _evaluate,
    FracParams,
    Grid,
    GridFunction,
    RegimeError,
    left_derivative_grid,
    left_integral,
    right_derivative_grid,
    right_integral,
    sample_split,
)
from .ibp import ibp_report
from .special import (
    PowerTerm,
    Side,
    frac_derivative_terms,
    frac_integral_terms,
)
from .varcalc import el_report, poly_lagrangian, power_lagrangian, quadratic_lagrangian
from .bvp import BvpProblem, solve_bvp

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_REGIME = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return [float(x) for x in np.atleast_1d(o)]
        if isinstance(o, (np.floating, np.integer)):
            return float(o)
        raise TypeError(f"not serializable: {type(o)}")

    try:
        return json.dumps(obj, indent=2, default=default, allow_nan=False) + "\n"
    except ValueError as exc:  # a nan or inf would be written as non-standard JSON
        raise CliError(EXIT_NUMERICAL, f"non-finite result: {exc}") from exc


# ---------------------------------------------------------------------------
# apply

_OPS = {
    "ileft": lambda alpha, f: left_integral(alpha, f),
    "iright": lambda alpha, f: right_integral(alpha, f),
    "dleft": lambda alpha, f: left_derivative_grid(alpha, f),
    "dright": lambda alpha, f: right_derivative_grid(alpha, f),
}


def _check_alpha(op: str, alpha: float) -> None:
    if op in ("ileft", "iright"):
        if not 0.0 < alpha <= 1.0:
            raise CliError(EXIT_REGIME, f"{op} needs alpha in (0, 1], got {alpha}")
    elif not 0.0 < alpha < 1.0:
        raise CliError(EXIT_REGIME, f"{op} needs alpha in (0, 1), got {alpha}")


def cmd_apply(args) -> int:
    _check_alpha(args.op, args.alpha)
    f = fio.read_grid_csv(args.input)
    out = _OPS[args.op](args.alpha, f)
    if not np.all(np.isfinite(out.values)):
        raise CliError(EXIT_NUMERICAL, f"{args.op} produced non-finite values")
    if args.output:
        fio.write_grid_csv(args.output, out)
    else:
        sys.stdout.write(fio._grid_csv_text(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-ibp

def cmd_verify_ibp(args) -> int:
    q1 = fio.read_split_json(args.q1)
    q2 = fio.read_split_json(args.q2)
    report = ibp_report(q1, q2, quad_n=args.quad_n)
    _write_text(args.output, _json_dumps(report.as_dict()))
    grid_path = isinstance(q1.phi, GridFunction) or isinstance(q2.phi, GridFunction)
    tol = args.tol if args.tol is not None else (1e-2 if grid_path else 1e-8)
    if not abs(report.defect) <= tol:
        print(f"defect {report.defect:.3e} exceeds tolerance {tol:.3e}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# el-check

def _lagrangian_from_config(cfg, params):
    if isinstance(cfg, str):
        if cfg == "quadratic":
            return quadratic_lagrangian(params.alpha, params.p)
        if cfg.startswith("power:"):
            try:
                r = float(cfg.split(":", 1)[1])
            except ValueError as exc:
                raise fio.ParseError(f"bad Lagrangian preset {cfg!r}") from exc
            return power_lagrangian(r, params.alpha, params.p)
        raise fio.ParseError(f"unknown Lagrangian preset {cfg!r}")
    if isinstance(cfg, dict) and "monomials" in cfg:
        monomials = []
        for m in cfg["monomials"]:
            if not (isinstance(m, list) and len(m) == 4):
                raise fio.ParseError(f"a monomial is [i, j, k, c], got {m!r}")
            powers = [fio._number(x, "monomial power", int) for x in m[:3]]
            c = fio._number(m[3], "monomial coefficient")
            fio._require_finite([c], "monomial coefficient")
            monomials.append((*powers, c))
        return poly_lagrangian(monomials, params.alpha, params.p, params.a, params.b)
    raise fio.ParseError("Lagrangian config must be a preset name or {'monomials': ...}")


def cmd_el_check(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    try:
        q_cfg = cfg["q"]
        q = fio.read_split_json(q_cfg) if isinstance(q_cfg, str) else fio.split_from_dict(q_cfg)
        lagrangian = cfg.get("lagrangian", "quadratic")
        quad_n = (
            args.quad_n
            if args.quad_n is not None
            else fio._number(cfg.get("quad_n", 256), "quad_n", int)
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise fio.ParseError(f"malformed el-check config: {exc}") from exc
    spec = _lagrangian_from_config(lagrangian, q.params)
    report = el_report(spec, q, quad_n=quad_n)
    lo = 0 if report.el_residual.left_endpoint_finite else 1
    out = {
        "el_residual_sup": float(np.max(np.abs(report.el_residual.values[lo:]))),
        "bc_a_residual": None
        if report.bc_a_residual is None
        else [float(x) for x in report.bc_a_residual],
        "bc_b_residual": [float(x) for x in report.bc_b_residual],
        "residual_tol": report.residual_tol,
        "evaluable_at_a": report.bc_a_residual is not None,
    }
    _write_text(args.output, _json_dumps(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-bvp

def cmd_solve_bvp(args) -> int:
    with open(args.problem) as fh:
        cfg = json.load(fh)
    try:
        alpha, a, b = (fio._number(cfg[k], k) for k in ("alpha", "a", "b"))
        qa, qb = (np.asarray(fio._numbers(cfg[k], k)) for k in ("qa", "qb"))
        f_cfg = cfg["f"]
        if f_cfg["kind"] == "poly":
            f = fio._terms_from_json(f_cfg["terms"])
        elif f_cfg["kind"] == "grid":
            f = fio.read_grid_csv(
                os.path.join(os.path.dirname(args.problem) or ".", f_cfg["csv"])
            )
        else:
            raise fio.ParseError(f"unknown forcing kind {f_cfg['kind']!r}")
        basis_degree = (
            args.basis_degree
            if args.basis_degree is not None
            else fio._number(cfg["basis_degree"], "basis_degree", int)
        )
    except fio.ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise fio.ParseError(f"malformed problem JSON: {exc}") from exc
    fio._require_finite([alpha, a, b, qa, qb], args.problem)
    params = FracParams(alpha, 2.0, a, b)
    problem = BvpProblem(params, f, qa, qb)
    sol = solve_bvp(problem, basis_degree)
    out = {
        "alpha": params.alpha,
        "a": params.a,
        "b": params.b,
        "basis_degree": basis_degree,
        "coeffs": [[float(x) for x in sol.coeffs[:, k]] for k in range(problem.m)],
        "c": [float(x) for x in sol.q.c],
        "energy_norm": sol.energy_norm,
        "weak_residuals": [float(x) for x in sol.weak_residuals],
        "bc_defect_b": [float(x) for x in sol.bc_defect_b],
        "projection_tol": sol.projection_tol,
    }
    _write_text(args.output, _json_dumps(out))
    print(
        f"energy norm {sol.energy_norm:.6e}, "
        f"max weak residual {float(np.max(sol.weak_residuals, initial=0.0)):.3e}, "
        f"bc defect {float(np.max(sol.bc_defect_b)):.3e}",
        file=sys.stderr,
    )
    if args.sample_csv:
        grid = Grid(params.a, params.b, args.sample_n)
        fio.write_grid_csv(args.sample_csv, sample_split(sol.q, grid))
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence

def _cos_terms(a: float, b: float, side: Side, degree: int = 24) -> list[PowerTerm]:
    """cos(t) expanded around the anchoring endpoint, exact to ~1e-16 on [a, b]."""
    anchor = a if side is Side.LEFT else b
    sign = 1.0 if side is Side.LEFT else -1.0  # u = t-a or u = b-t, t = anchor + sign*u
    terms = []
    for n in range(degree + 1):
        if n % 2 == 0:
            c = math.cos(anchor) * (-1.0) ** (n // 2) / math.factorial(n)
        else:
            c = -math.sin(anchor) * (-1.0) ** ((n - 1) // 2) / math.factorial(n)
        terms.append(PowerTerm(c * sign**n, float(n), side))
    return terms


def _reference_terms(name: str, a: float, b: float, side: Side) -> list[PowerTerm]:
    anchor, sgn = (a, 1.0) if side is Side.LEFT else (b, -1.0)
    if name == "one":
        return [PowerTerm(1.0, 0.0, side)]
    if name == "t":
        return [PowerTerm(anchor, 0.0, side), PowerTerm(sgn, 1.0, side)]
    if name == "t2":
        return [
            PowerTerm(anchor**2, 0.0, side),
            PowerTerm(2.0 * anchor * sgn, 1.0, side),
            PowerTerm(1.0, 2.0, side),
        ]
    if name == "cos":
        return _cos_terms(a, b, side)
    raise fio.ParseError(f"unknown reference function {name!r}")


def cmd_convergence(args) -> int:
    _check_alpha(args.op, args.alpha)
    a, b = args.a, args.b
    side = Side.LEFT if args.op in ("ileft", "dleft") else Side.RIGHT
    f_terms = _reference_terms(args.ref, a, b, side)
    integral_op = args.op in ("ileft", "iright")
    ref_terms = (
        frac_integral_terms(args.alpha, f_terms)
        if integral_op
        else frac_derivative_terms(args.alpha, f_terms)
    )

    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError as exc:
        raise fio.ParseError(f"bad n list: {exc}") from exc

    errors = []
    for n in n_list:
        grid = Grid(a, b, n)
        vals = _evaluate(grid.nodes, a, b, side, 1, f_terms)
        out = _OPS[args.op](args.alpha, GridFunction(grid, vals))
        # Derivative references can blow up at the anchored endpoint; compare
        # on the central 80% of the interval for derivative ops.
        lo, hi = (0, n + 1) if integral_op else (max(1, n // 10), n - max(1, n // 10) + 1)
        ref = _evaluate(grid.nodes[lo:hi], a, b, side, 1, ref_terms)
        errors.append(float(np.max(np.abs(out.values[lo:hi, :1] - ref), initial=0.0)))

    if not all(map(math.isfinite, errors)):
        raise CliError(EXIT_NUMERICAL, f"non-finite sup error {errors}")
    lines = ["n,sup_error,order"]
    for n, prev, err in zip(n_list, [0.0] + errors, errors):
        # The first row, and an exact scheme with error 0, have no order.
        order = fio.fmt(math.log2(prev / err)) if prev and err else ""
        lines.append(f"{n},{fio.fmt(err)},{order}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fraclab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply a fractional operator to CSV grid samples")
    p.add_argument("--op", required=True, choices=sorted(_OPS))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("input", help="input GridFunction CSV")
    p.add_argument("-o", "--output", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify-ibp", help="evaluate the integration-by-parts identity")
    p.add_argument("q1", help="left split-function JSON")
    p.add_argument("q2", help="right split-function JSON")
    p.add_argument("--tol", type=float, default=None, help="defect tolerance for exit code")
    p.add_argument("--quad-n", type=int, default=512)
    p.add_argument("-o", "--output", help="output JSON (default stdout)")
    p.set_defaults(func=cmd_verify_ibp)

    p = sub.add_parser("el-check", help="Euler-Lagrange and boundary-condition residuals")
    p.add_argument("config", help="JSON config with 'lagrangian', 'q', 'quad_n'")
    p.add_argument("--quad-n", type=int, default=None, help="override quad_n")
    p.add_argument("-o", "--output", help="output JSON (default stdout)")
    p.set_defaults(func=cmd_el_check)

    p = sub.add_parser("solve-bvp", help="solve the linear fractional boundary value problem")
    p.add_argument("problem", help="problem JSON")
    p.add_argument("--basis-degree", type=int, default=None, help="override basis_degree")
    p.add_argument("-o", "--output", help="output JSON (default stdout)")
    p.add_argument("--sample-csv", help="also write q sampled on a uniform grid")
    p.add_argument("--sample-n", type=int, default=200)
    p.set_defaults(func=cmd_solve_bvp)

    p = sub.add_parser("convergence", help="empirical convergence table for an operator")
    p.add_argument("--op", required=True, choices=sorted(_OPS))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ref", required=True, help="reference function: one, t, t2, cos")
    p.add_argument("--n-list", required=True, help="comma-separated grid sizes")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("-o", "--output", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_convergence)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except fio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeWarning) as exc:
        # RuntimeWarning arrives here when the caller's warning filters turn
        # numpy's overflow or invalid-value warnings into errors.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
