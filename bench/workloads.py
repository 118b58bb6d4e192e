"""The three workloads: seeded inputs, closed-form references and fraclab calls.

Each workload is a stream of blocks.  A block holds a fixed mix of case
kinds, sizes and term counts, so every block of every seed costs about the
same; the seed draws coefficients, exponents, orders, reference functions,
which cases go through the CLI, and the order of the cases.

grid_ops
    The dense-operator and file path: ``apply`` through the API and through
    ``cli.main``, the ``convergence`` subcommand and grid-path ``ibp_report``.
    Time goes to the O(n^2) weight build and apply in ``core`` and to the
    17-digit CSV text in ``io``.  The nine orders in ``ALPHA_POOL`` are closed
    under alpha -> 1 - alpha, so the derivative operators request the same
    ``(alpha, n)`` weight keys as the integrals: 36 keys against the 32-entry
    weight cache, which gives both hits and evictions while the cache's
    largest content (eight matrices of each size, 1.36 GB) stays below 2 GB.
split_functionals
    The pointwise Python path: Bolza values, first variations and
    Euler-Lagrange reports on power-term densities, ``el-check`` through the
    CLI, and grid densities resampled by ``sample_split`` and ``eval_split``.
    Thousands of scalar ``eval_split`` calls per case make ``core`` and
    ``special`` carry the time while weight matrices stay tiny.
exact_bvp
    The closed-form algebra path: manufactured BVPs solved and weak-checked,
    closed-form ``ibp_report`` and the ``solve-bvp`` and ``verify-ibp``
    subcommands.  No grids; time goes to the power-term product loops in
    ``special`` and ``bvp``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os

import mpmath as mp
import numpy as np

from check import Case, CliExit, Ref
from oracle import (
    LEFT,
    RIGHT,
    Series,
    legendre_coeffs,
    product_integral,
    reference,
    singular_quad,
    split_value,
)

WORKLOADS = ("grid_ops", "split_functionals", "exact_bvp")

# grid_ops
ALPHA_POOL = (0.125, 0.1875, 0.25, 0.375, 0.5, 0.625, 0.75, 0.8125, 0.875)
N_POOL = (500, 1000, 2000, 4000)
OPS = ("ileft", "iright", "dleft", "dright")
OP_FUNCTIONS = {
    "ileft": "left_integral",
    "iright": "right_integral",
    "dleft": "left_derivative_grid",
    "dright": "right_derivative_grid",
}
REFS = ("one", "t", "t2", "cos")

# split_functionals
QUAD_NS = (64, 128, 256)
R_POOL = (1.5, 2.5, 3.0)
DENSITY_N_POOL = (100, 125, 200, 250, 400)
RESAMPLE_N_POOL = (50, 64, 100, 128, 200)

# exact_bvp
DEGREES = tuple(range(2, 13))
CLI_DEGREES = (4, 6, 8, 10, 12)
SOLUTION_POINTS = tuple(k / 8 for k in range(1, 9))

# Seed of the few inputs that are the same in every stream: the least
# accurate case of each workload (see oracle_digits_min in run.py).
ACCURACY_PROBE_SEED = 20140203

# Stated accuracy of each method, as a multiple of its order term.
GRID_TOL = 10.0  # product trapezoid O(h^2); grid derivative O(h^(2-alpha))
QUAD_TOL = 10.0  # graded Gauss-Legendre, second order in 1/quad_n
EXACT_TOL = 1e-6  # Galerkin path: wrong answers, not the rounding growth with degree
IBP_TOL = 1e-10  # closed-form integration by parts


class Context:
    """What a workload's cases share: fraclab, a file directory and memo tables."""

    def __init__(self, fl, workdir: str, count_lagrangian: bool = False):
        self.fl = fl
        self.cli = importlib.import_module("fraclab.cli")
        self.dir = workdir
        self.count_lagrangian = count_lagrangian
        self.lagrangian_evals = 0
        self._memo: dict = {}

    def memo(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def run_cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def lagrangian(self, spec):
        """Count calls of the Lagrangian callables the benchmark hands to fraclab."""
        if not self.count_lagrangian:
            return spec

        def counted(fn):
            def call(*args):
                self.lagrangian_evals += 1
                return fn(*args)

            return call

        return dataclasses.replace(spec, L=counted(spec.L), L_x=counted(spec.L_x), L_v=counted(spec.L_v))


# ---------------------------------------------------------------------------
# files


def write_csv(path: str, t: np.ndarray, v: np.ndarray) -> None:
    lines = ["t,v0"] + [f"{x!r},{y!r}" for x, y in zip(t.tolist(), v.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[list[str]]:
    try:
        with open(path) as fh:
            return [ln.strip().split(",") for ln in fh if ln.strip()][1:]
    finally:
        os.remove(path)


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.remove(path)


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def cli_output(code: int, path: str, reader):
    if code != 0:
        if os.path.exists(path):
            os.remove(path)
        raise CliExit(f"exit {code}, expected 0")
    return reader(path)


def terms_json(series: Series, with_side: bool = False) -> list[dict]:
    out = []
    for c, e in series.float_terms():
        item = {"coeff": c, "exponent": e}
        if with_side:
            item["side"] = series.side
        out.append(item)
    return out


def split_json(alpha: float, p: float, side: str, coeff: float, density: Series) -> dict:
    return {
        "alpha": alpha,
        "p": None if math.isinf(p) else p,
        "a": 0.0,
        "b": 1.0,
        "side": side,
        "c": [coeff],
        "phi": {"kind": "poly", "terms": terms_json(density)},
    }


def power_terms(fl, series: Series) -> list:
    side = fl.Side.LEFT if series.side == LEFT else fl.Side.RIGHT
    return [fl.PowerTerm(c, e, side) for c, e in series.float_terms()]


def random_series(rng, side: str, count: int, lo: float, hi: float, positive=False, integer=False):
    if integer:
        exps = sorted(rng.choice(4, size=count, replace=False).tolist())
    else:
        exps = rng.uniform(lo, hi, size=count).tolist()
    coeffs = rng.uniform(0.1 if positive else -1.0, 1.0, size=count).tolist()
    return Series(side, list(zip(coeffs, exps)))


def node_properties(points: np.ndarray, n: int) -> dict:
    """How evaluation points sit against the nodes of a uniform grid on [0, 1]."""
    nodes = np.linspace(0.0, 1.0, n + 1)
    j = np.clip(np.rint(points * n).astype(int), 0, n)
    on = points == nodes[j]
    near = ~on & (np.abs(points - nodes[j]) <= 4 * np.spacing(nodes[j]))
    return {"points": int(points.size), "off_node": int(np.sum(~on)), "near_node": int(np.sum(near))}


# ---------------------------------------------------------------------------
# grid_ops


def _grid_region(op: str, n: int) -> slice:
    # Derivatives are compared on the central 80%, as the convergence
    # subcommand does: the anchored endpoint is singular for them.
    if op[0] == "i":
        return slice(0, n + 1)
    m = max(1, n // 10)
    return slice(m, n - m + 1)


def _grid_tol(op: str, alpha: float, n: int, scale: float) -> float:
    order = 2.0 if op[0] == "i" else 2.0 - alpha
    return GRID_TOL * (1.0 / n) ** order * max(1.0, scale)


def _op_series(ctx: Context, op: str, alpha: float, ref: str) -> Series:
    def make():
        side = LEFT if op in ("ileft", "dleft") else RIGHT
        s = reference(ref, side)
        return s.integral(alpha) if op[0] == "i" else s.derivative(alpha)

    return ctx.memo(("op", op, alpha, ref), make)


def _grid_expected(ctx, op, alpha, ref, n):
    nodes = np.linspace(0.0, 1.0, n + 1)
    sel = _grid_region(op, n)
    expected = np.zeros(n + 1)
    expected[sel] = _op_series(ctx, op, alpha, ref).values(nodes)[sel]
    return expected, sel, float(np.max(np.abs(expected[sel])))


def _input_values(ctx: Context, ref: str, n: int) -> np.ndarray:
    nodes = np.linspace(0.0, 1.0, n + 1)
    return ctx.memo(("f", ref, n), lambda: reference(ref, LEFT).values(nodes))


def apply_case(ctx: Context, tag: str, op: str, n: int, alpha: float, ref: str, via_cli: bool) -> Case:
    fl = ctx.fl
    expected, sel, scale = _grid_expected(ctx, op, alpha, ref, n)
    refs = [Ref("values", expected, _grid_tol(op, alpha, n, scale), where=sel)]
    props = {"n": n}
    if not via_cli:
        f = ctx.memo(("grid", ref, n), lambda: fl.GridFunction(fl.Grid(0.0, 1.0, n), _input_values(ctx, ref, n)))
        name = OP_FUNCTIONS[op]
        return Case(
            "apply",
            lambda: getattr(fl, name)(alpha, f),
            lambda g: {"values": g.values[:, 0]},
            refs,
            props,
        )

    def make_csv():
        p = ctx.path(f"in_{ref}_{n}.csv")
        write_csv(p, np.linspace(0.0, 1.0, n + 1), _input_values(ctx, ref, n))
        return p

    src = ctx.memo(("csv", ref, n), make_csv)
    out = ctx.path(f"out_{tag}.csv")
    argv = ["apply", "--op", op, "--alpha", repr(alpha), src, "-o", out]

    def extract(code):
        rows = cli_output(code, out, read_csv)
        return {
            "values": np.array([float(r[1]) for r in rows]),
            "nodes": np.array([float(r[0]) for r in rows]),
        }

    refs.append(Ref("nodes", np.linspace(0.0, 1.0, n + 1), 1e-15, digits=False))
    return Case("cli.apply", lambda: ctx.run_cli(argv), extract, refs, props)


def convergence_case(ctx: Context, tag: str, op: str, alpha: float, ref: str, n_list) -> Case:
    out = ctx.path(f"out_{tag}.csv")
    argv = [
        "convergence", "--op", op, "--alpha", repr(alpha), "--ref", ref,
        "--n-list", ",".join(str(n) for n in n_list), "--a", "0", "--b", "1", "-o", out,
    ]
    tols = [_grid_tol(op, alpha, n, _grid_expected(ctx, op, alpha, ref, n)[2]) for n in n_list]

    def extract(code):
        rows = cli_output(code, out, read_csv)
        return {
            "n": np.array([float(r[0]) for r in rows]),
            "sup_error": np.array([float(r[1]) for r in rows]),
        }

    refs = [
        Ref("n", np.array(n_list, dtype=float), 0.0, digits=False),
        # The reported error has no closed form; it must stay within the
        # scheme's stated accuracy.
        Ref("sup_error", np.zeros(len(n_list)), np.array(tols), digits=False),
    ]
    return Case("cli.convergence", lambda: ctx.run_cli(argv), extract, refs, {"n": list(n_list)})


# The grid-path IBP pair is the same for every seed: its error at the
# smallest order and size is the workload's worst, so oracle_digits_min
# does not depend on which random inputs a seed drew.
IBP_GRID_PHI = Series(LEFT, [(1, 0), (1, 1), (-1, 2)])
IBP_GRID_PSI = Series(RIGHT, [(1, 0), (-1, 1), (2, 2)])
IBP_GRID_C, IBP_GRID_D = 0.5, -0.5


def ibp_grid_case(ctx: Context, n: int, alpha: float) -> Case:
    fl = ctx.fl
    phi, psi, c, d = IBP_GRID_PHI, IBP_GRID_PSI, IBP_GRID_C, IBP_GRID_D
    grid = fl.Grid(0.0, 1.0, n)
    nodes = np.linspace(0.0, 1.0, n + 1)
    params = fl.FracParams(alpha, math.inf, 0.0, 1.0)
    q1 = fl.SplitFunction(params, [c], fl.GridFunction(grid, phi.values(nodes)))
    q2 = fl.RightSplitFunction(params, [d], fl.GridFunction(grid, psi.values(nodes)))

    q1_s = split_value(LEFT, c, phi, alpha)
    q2_s = split_value(RIGHT, d, psi, alpha)
    expected = {
        "lhs": product_integral(phi, q2_s),
        "rhs_integral": product_integral(q1_s, psi),
        "boundary_b": q1_s.at(1) * d,
        "boundary_a": c * q2_s.at(0),
    }
    expected = {k: float(v) for k, v in expected.items()}
    scale = max([1.0] + [abs(v) for v in expected.values()])
    tol = GRID_TOL * (1.0 / n) ** (1.0 + alpha) * scale
    return Case(
        "ibp.grid",
        lambda: fl.ibp_report(q1, q2),
        lambda r: {k: getattr(r, k) for k in expected},
        [Ref(k, v, tol) for k, v in expected.items()],
        {"n": n},
    )


def grid_ops_block(ctx: Context, rng, tag: str, key_order) -> list[Case]:
    """One group of cases per weight key (alpha, n), groups in ``key_order``.

    A group holds a grid-path ``ibp_report`` and the four operators that
    request its key (the derivatives with order 1 - alpha), each on another
    reference function, two of them through the CLI.  Every block visits the
    36 keys in the same order, more keys than the 32-entry weight cache
    holds, so the first case of each group misses and builds the matrix and
    the other four hit: each block costs the same whatever the seed.  Four
    ``convergence`` cases, one per operator and reference function, sit
    between groups.
    """
    keys = [(a, n) for a in ALPHA_POOL for n in N_POOL]
    groups = []
    for ki in key_order:
        alpha, n = keys[ki]
        refs = [REFS[k] for k in rng.permutation(len(REFS))]
        via_cli = rng.permutation([True, True, False, False])
        group = [
            apply_case(ctx, f"{tag}_{ki}_{op}", op, n, alpha if op[0] == "i" else 1.0 - alpha, ref, bool(cli))
            for op, ref, cli in zip(OPS, refs, via_cli)
        ]
        # The IBP case goes first and takes the weight build of the group.
        groups.append([ibp_grid_case(ctx, n, alpha)] + [group[k] for k in rng.permutation(len(group))])
    refs = [REFS[k] for k in rng.permutation(len(REFS))]
    for k, (op, ref) in enumerate(zip(OPS, refs)):
        case = convergence_case(ctx, f"{tag}_conv{k}", op, float(rng.choice(ALPHA_POOL)), ref, [500, 1000, 2000])
        groups.insert(int(rng.integers(len(groups) + 1)), [case])
    return [case for group in groups for case in group]


# ---------------------------------------------------------------------------
# split_functionals


class Lagrangian:
    """One of fraclab's Lagrangian presets and its closed form for the oracle."""

    def __init__(self, kind: str, alpha: float, p: float, r: float = 2.0, monomials=()):
        self.kind, self.alpha, self.p, self.r = kind, alpha, p, r
        self.monomials = [tuple(m) for m in monomials]

    def spec(self, fl):
        if self.kind == "quadratic":
            return fl.quadratic_lagrangian(self.alpha, self.p)
        if self.kind == "power":
            return fl.power_lagrangian(self.r, self.alpha, self.p)
        return fl.poly_lagrangian([list(m) for m in self.monomials], self.alpha, self.p, 0.0, 1.0)

    def config(self):
        if self.kind == "quadratic":
            return "quadratic"
        if self.kind == "power":
            return f"power:{self.r!r}"
        return {"monomials": [list(m) for m in self.monomials]}

    def _x_terms(self):
        return [m for m in self.monomials if m[1] > 0]

    def _v_terms(self):
        return [m for m in self.monomials if m[2] > 0]

    def value(self, q: Series, phi: Series):
        """int_0^1 L(t, q, phi) dt."""
        if self.kind == "quadratic":
            return (product_integral(q, q) + product_integral(phi, phi)) / 2
        if self.kind == "power":
            r = self.r
            return singular_quad(lambda t: q.at(t) ** r + phi.at(t) ** r, r * (self.alpha - 1))
        total = 0
        for i, j, k, c in self.monomials:
            s = Series(LEFT, [(c, i)])
            for _ in range(j):
                s = s.times(q)
            for _ in range(k):
                s = s.times(phi)
            total += mp.fsum(cc / (e + 1) for cc, e in s.terms)
        return total

    def variation(self, q: Series, phi: Series, h: Series, h_phi: Series):
        """int_0^1 L_x h + L_v D^alpha h dt."""
        if self.kind == "power":
            r = self.r
            return singular_quad(
                lambda t: r * q.at(t) ** (r - 1) * h.at(t) + r * phi.at(t) ** (r - 1) * h_phi.at(t),
                r * (self.alpha - 1),
            )
        lx, lv = self.gradients(q, phi)
        return product_integral(lx, h) + product_integral(lv, h_phi)

    def gradients(self, q: Series, phi: Series) -> tuple[Series, Series]:
        """(L_x, L_v) along (q, phi); L_v is a polynomial when phi is."""
        if self.kind == "quadratic":
            return q, phi
        lx = Series(LEFT, [])
        for i, j, _, c in self._x_terms():
            s = Series(LEFT, [(c * j, i)])
            lx = lx + (s.times(q) if j == 2 else s)
        lv = Series(LEFT, [])
        for i, _, k, c in self._v_terms():
            s = Series(LEFT, [(c * k, i)])
            lv = lv + (s.times(phi) if k == 2 else s)
        return lx, lv

    def lv_at_zero(self, phi: Series) -> float:
        if self.kind == "power":
            v = float(phi.at(0))
            return 0.0 if v == 0.0 else self.r * abs(v) ** (self.r - 2.0) * v
        return float(self.gradients(Series(LEFT, []), phi)[1].at(0))


def _random_lagrangian(rng, kind: str, r: float = 2.0) -> Lagrangian:
    if kind == "power":
        lo = max(0.55, 1.0 - 1.0 / r, 1.0 / r) + 0.02
        return Lagrangian("power", float(rng.uniform(lo, 0.95)), max(2.0, r), r=r)
    alpha = float(rng.uniform(0.55, 0.95))
    if kind == "quadratic":
        return Lagrangian("quadratic", alpha, 2.0)
    # Each monomial depends on x or on v alone, so L_v stays a polynomial
    # in t along a polynomial density and the residual oracle is closed form.
    pick = lambda: float(rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0)))  # noqa: E731
    monos = [
        (int(rng.integers(2)), int(rng.integers(1, 3)), 0, pick()),
        (int(rng.integers(2)), 0, int(rng.integers(1, 3)), pick()),
    ]
    return Lagrangian("monomial", alpha, 2.0, monomials=monos)


def _random_split(rng, lag: Lagrangian, n_terms: int, integer: bool, singular: bool | None = None):
    positive = lag.kind == "power"
    if singular is None:
        singular = bool(rng.integers(2))
    c = float(rng.uniform(0.1 if positive else -1.0, 1.0)) if singular else 0.0
    return c, random_series(rng, LEFT, n_terms, 0.0, 3.0, positive, integer)


def _split_function(fl, lag: Lagrangian, c: float, phi: Series):
    return fl.SplitFunction(fl.FracParams(lag.alpha, lag.p, 0.0, 1.0), [c], power_terms(fl, phi))


def bolza_case(ctx: Context, rng, lag: Lagrangian, n_terms: int, quad_n: int) -> Case:
    fl = ctx.fl
    c, phi = _random_split(rng, lag, n_terms, integer=False)
    q = _split_function(fl, lag, c, phi)
    spec = ctx.lagrangian(lag.spec(fl))
    ref = float(lag.value(split_value(LEFT, c, phi, lag.alpha), phi))
    tol = QUAD_TOL / quad_n**2 * max(1.0, abs(ref))
    return Case(
        "varcalc.bolza",
        lambda: fl.bolza_value(spec, q, quad_n=quad_n),
        lambda v: {"value": v},
        [Ref("value", ref, tol)],
        {"quad_n": quad_n, "lagrangian": lag.config(), "alpha": lag.alpha, "c": c},
    )


def first_variation_case(ctx: Context, rng, lag: Lagrangian, n_terms: int, quad_n: int) -> Case:
    fl = ctx.fl
    c, phi = _random_split(rng, lag, n_terms, integer=False)
    c_h = float(rng.uniform(-1.0, 1.0))
    h_phi = random_series(rng, LEFT, int(rng.integers(1, 4)), 0.0, 3.0)
    q = _split_function(fl, lag, c, phi)
    h = _split_function(fl, lag, c_h, h_phi)
    spec = ctx.lagrangian(lag.spec(fl))
    q_s = split_value(LEFT, c, phi, lag.alpha)
    h_s = split_value(LEFT, c_h, h_phi, lag.alpha)
    ref = float(lag.variation(q_s, phi, h_s, h_phi))
    tol = QUAD_TOL / quad_n**2 * max(1.0, abs(ref))
    return Case(
        "varcalc.first_variation",
        lambda: fl.first_variation(spec, q, h, quad_n=quad_n),
        lambda v: {"value": v},
        [Ref("value", ref, tol)],
        {"quad_n": quad_n, "lagrangian": lag.config(), "alpha": lag.alpha, "c": c},
    )


def el_report_case(ctx: Context, rng, lag: Lagrangian, n_terms: int, quad_n: int, singular: bool) -> Case:
    fl = ctx.fl
    c, phi = _random_split(rng, lag, n_terms, integer=True, singular=singular)
    q = _split_function(fl, lag, c, phi)
    spec = ctx.lagrangian(lag.spec(fl))
    alpha = lag.alpha
    lx, lv = lag.gradients(split_value(LEFT, c, phi, alpha), phi)
    nodes = np.linspace(0.0, 1.0, quad_n + 1)
    m = max(1, quad_n // 10)
    sel = slice(m, quad_n - m + 1)
    residual = np.zeros(quad_n + 1)
    residual[sel] = (lv.flipped().derivative(alpha).values(nodes) + lx.values(nodes))[sel]
    g_scale = float(np.max(np.abs(lv.values(nodes))))
    tol = GRID_TOL * (1.0 / quad_n) ** (2.0 - alpha) * max(1.0, g_scale)
    bc_a = None if c != 0.0 else np.array([lag.lv_at_zero(phi)])

    def extract(rep):
        return {
            "residual": rep.el_residual.values[:, 0],
            "bc_a": None if rep.bc_a_residual is None else rep.bc_a_residual,
            "bc_b": rep.bc_b_residual,
        }

    refs = [
        Ref("residual", residual, tol, where=sel),
        Ref("bc_a", bc_a, 1e-12),
        Ref("bc_b", np.zeros(1), 1e-12),
    ]
    return Case("varcalc.el_report", lambda: fl.el_report(spec, q, quad_n=quad_n), extract, refs, {"quad_n": quad_n})


def el_check_case(ctx: Context, rng, tag: str, lag: Lagrangian, n_terms: int, quad_n: int, singular: bool) -> Case:
    c, phi = _random_split(rng, lag, n_terms, integer=True, singular=singular)
    cfg = ctx.path(f"el_{tag}.json")
    write_json(cfg, {"lagrangian": lag.config(), "q": split_json(lag.alpha, lag.p, LEFT, c, phi), "quad_n": quad_n})
    out = ctx.path(f"out_{tag}.json")
    argv = ["el-check", cfg, "-o", out]

    def extract(code):
        d = cli_output(code, out, read_json)
        return {
            "bc_a": d["bc_a_residual"],
            "bc_b": d["bc_b_residual"],
            "evaluable": float(d["evaluable_at_a"]),
            "el_residual_sup": d["el_residual_sup"],
        }

    refs = [
        Ref("bc_a", None if c != 0.0 else np.array([lag.lv_at_zero(phi)]), 1e-12),
        Ref("bc_b", np.zeros(1), 1e-12),
        Ref("evaluable", 1.0 if c == 0.0 else 0.0, 0.0, digits=False),
        # The residual sup includes the endpoint nodes, where D^alpha of L_v
        # is singular, so only its finiteness is checked.
        Ref("el_residual_sup", 0.0, math.inf, digits=False),
    ]
    return Case("cli.el_check", lambda: ctx.run_cli(argv), extract, refs, {"quad_n": quad_n})


def _grid_density_split(ctx: Context, rng, n: int):
    fl = ctx.fl
    alpha = float(rng.uniform(0.55, 0.95))
    c = float(rng.uniform(-1.0, 1.0)) if rng.integers(2) else 0.0
    phi = random_series(rng, LEFT, int(rng.integers(1, 4)), 0, 0, integer=True)
    grid = fl.Grid(0.0, 1.0, n)
    density = fl.GridFunction(grid, phi.values(np.linspace(0.0, 1.0, n + 1)))
    q = fl.SplitFunction(fl.FracParams(alpha, math.inf, 0.0, 1.0), [c], density)
    return q, n, c, split_value(LEFT, c, phi, alpha)


def sample_split_case(ctx: Context, rng, n: int, n2: int) -> Case:
    fl = ctx.fl
    q, n, c, q_s = _grid_density_split(ctx, rng, n)
    grid2 = fl.Grid(0.0, 1.0, n2)
    nodes2 = np.linspace(0.0, 1.0, n2 + 1)
    sel = slice(1, None) if c != 0.0 else slice(None)  # node t = a is a placeholder when c != 0
    expected = np.zeros(n2 + 1)
    expected[sel] = q_s.values(nodes2)[sel]
    tol = GRID_TOL * (1.0 / n) ** 2 * max(1.0, float(np.max(np.abs(expected))))
    return Case(
        "core.sample_split",
        lambda: fl.sample_split(q, grid2),
        lambda g: {"values": g.values[:, 0]},
        [Ref("values", expected, tol, where=sel)],
        {"n": n, **node_properties(nodes2[sel], n)},
    )


def eval_points_case(ctx: Context, rng, n: int, k: int) -> Case:
    fl = ctx.fl
    q, n, c, q_s = _grid_density_split(ctx, rng, n)
    # A second uniform grid that skips t = a, like linspace(0.01, 1, 100).
    points = np.linspace(1.0 / k, 1.0, k)
    expected = q_s.values(points)
    tol = GRID_TOL * (1.0 / n) ** 2 * max(1.0, float(np.max(np.abs(expected))))
    pts = points.tolist()
    return Case(
        "core.eval_split",
        lambda: np.array([fl.eval_split(q, t)[0] for t in pts]),
        lambda v: {"values": v},
        [Ref("values", expected, tol)],
        {"n": n, **node_properties(points, n)},
    )


def split_functionals_block(ctx: Context, rng, tag: str) -> list[Case]:
    """Sizes, term counts and the power r follow one pattern in every block,
    so blocks cost the same; the seed draws orders, coefficients, exponents
    and the order of the cases."""
    cases = []
    for qi, quad_n in enumerate(QUAD_NS):
        for ki, kind in enumerate(("quadratic", "power", "monomial")):
            r = R_POOL[qi]
            for make in (bolza_case, first_variation_case):
                cases.append(make(ctx, rng, _random_lagrangian(rng, kind, r), 1 + (qi + ki) % 4, quad_n))
            lag = _random_lagrangian(rng, kind, r)
            cases.append(el_check_case(ctx, rng, f"{tag}_{qi}_{kind}", lag, 1 + (qi + ki) % 3, quad_n, bool(qi % 2)))
        for ki, kind in enumerate(("quadratic", "monomial")):
            # The coarsest reports are the least accurate cases of the
            # workload; their inputs are the same for every seed, so that
            # oracle_digits_min is too.
            r = np.random.default_rng([ACCURACY_PROBE_SEED, ki]) if qi == 0 else rng
            lag = _random_lagrangian(r, kind)
            cases.append(el_report_case(ctx, r, lag, 3 if qi == 0 else 1 + ki, quad_n, bool((qi + ki) % 2)))
    for make in (sample_split_case, eval_points_case):
        for n, m in zip(DENSITY_N_POOL, RESAMPLE_N_POOL):
            cases.append(make(ctx, rng, n, m))
    return [cases[k] for k in rng.permutation(len(cases))]


# ---------------------------------------------------------------------------
# exact_bvp


def _manufactured(rng, degree: int, n_terms: int):
    alpha = float(rng.uniform(0.55, 0.95))
    q_a = float(rng.uniform(-1.0, 1.0))
    top = min(3, degree)
    exps = sorted(rng.choice(np.arange(1, top + 1), size=min(n_terms, top), replace=False).tolist())
    phi_right = Series(RIGHT, [(float(rng.uniform(-1.0, 1.0)), e) for e in exps])
    phi_left = phi_right.flipped()
    q = split_value(LEFT, q_a, phi_left, alpha)
    return alpha, q_a, phi_right, phi_left, q


def _solution_refs(q: Series, phi_left: Series, q_a: float) -> list[Ref]:
    energy = float(mp.sqrt(product_integral(q, q) + product_integral(phi_left, phi_left)))
    values = np.array([float(q.at(t)) for t in SOLUTION_POINTS])
    return [
        Ref("c", np.array([q_a]), 1e-12),
        Ref("energy", energy, EXACT_TOL * max(1.0, energy)),
        Ref("q", values, EXACT_TOL * max(1.0, float(np.max(np.abs(values))))),
        Ref("bc", np.zeros(1), EXACT_TOL),
    ]


def bvp_solve_case(ctx: Context, rng, degree: int, n_terms: int) -> Case:
    fl = ctx.fl
    alpha, q_a, phi_right, phi_left, q = _manufactured(rng, degree, n_terms)
    params = fl.FracParams(alpha, 2.0, 0.0, 1.0)
    phi_star = power_terms(fl, phi_right)

    def run():
        problem, _ = fl.manufactured_problem(params, phi_star, q_a)
        return fl.solve_bvp(problem, degree)

    def extract(sol):
        density = Series(LEFT, [(float(np.ravel(t.coeff)[0]), t.exponent) for t in sol.q.phi])
        q_sol = split_value(LEFT, float(sol.q.c[0]), density, alpha)
        return {
            "c": sol.q.c,
            "energy": sol.energy_norm,
            "q": np.array([float(q_sol.at(t)) for t in SOLUTION_POINTS]),
            "bc": sol.bc_defect_b,
            "weak": sol.weak_residuals,
        }

    refs = _solution_refs(q, phi_left, q_a) + [Ref("weak", np.zeros(degree), EXACT_TOL)]
    return Case("bvp.solve", run, extract, refs, {"basis_degree": degree})


def bvp_weak_case(ctx: Context, rng, n_terms: int, n_probes: int) -> Case:
    fl = ctx.fl
    alpha, q_a, phi_right, _, _ = _manufactured(rng, 3, n_terms)
    params = fl.FracParams(alpha, 2.0, 0.0, 1.0)
    phi_star = power_terms(fl, phi_right)
    probes = []
    for k in range(1, n_probes + 1):
        # (t^k - kappa) has I^alpha(.)(1) = 0: a tangent direction of q(b) = q_b.
        kappa = float(mp.gamma(k + 1) * mp.gamma(1 + alpha) / mp.gamma(k + 1 + alpha))
        probes.append(fl.SplitFunction(params, [0.0], [fl.PowerTerm(1.0, float(k)), fl.PowerTerm(-kappa, 0.0)]))

    def run():
        problem, q_star = fl.manufactured_problem(params, phi_star, q_a)
        return fl.weak_form_check(q_star, problem, probes)

    return Case(
        "bvp.weak_form_check",
        run,
        lambda d: {"defects": d},
        [Ref("defects", np.zeros(len(probes)), IBP_TOL)],
    )


def _ibp_pair(rng, n_terms: int):
    alpha = float(rng.uniform(0.55, 0.95))
    phi = random_series(rng, LEFT, n_terms, -0.4, 2.5)
    psi = random_series(rng, RIGHT, 4 - n_terms, -0.4, 2.5)
    c, d = rng.uniform(-1.0, 1.0, size=2).tolist()
    q1 = split_value(LEFT, c, phi, alpha)
    q2 = split_value(RIGHT, d, psi, alpha)
    expected = {
        "lhs": float(product_integral(phi, q2)),
        "rhs_integral": float(product_integral(q1, psi)),
        "boundary_b": float(q1.at(1) * d),
        "boundary_a": float(c * q2.at(0)),
    }
    scale = max([1.0] + [abs(v) for v in expected.values()])
    refs = [Ref(k, v, IBP_TOL * scale) for k, v in expected.items()]
    refs.append(Ref("defect", 0.0, IBP_TOL * scale))
    return alpha, phi, psi, c, d, refs


IBP_FIELDS = ("lhs", "rhs_integral", "boundary_b", "boundary_a", "defect")


def ibp_closed_case(ctx: Context, rng, n_terms: int) -> Case:
    fl = ctx.fl
    alpha, phi, psi, c, d, refs = _ibp_pair(rng, n_terms)
    params = fl.FracParams(alpha, 2.0, 0.0, 1.0)
    q1 = fl.SplitFunction(params, [c], power_terms(fl, phi))
    q2 = fl.RightSplitFunction(params, [d], power_terms(fl, psi))
    return Case(
        "ibp.closed",
        lambda: fl.ibp_report(q1, q2),
        lambda r: {k: getattr(r, k) for k in IBP_FIELDS},
        refs,
    )


def verify_ibp_case(ctx: Context, rng, tag: str, n_terms: int) -> Case:
    alpha, phi, psi, c, d, refs = _ibp_pair(rng, n_terms)
    p1, p2, out = (ctx.path(f"{name}_{tag}.json") for name in ("q1", "q2", "out"))
    write_json(p1, split_json(alpha, 2.0, LEFT, c, phi))
    write_json(p2, split_json(alpha, 2.0, RIGHT, d, psi))
    argv = ["verify-ibp", p1, p2, "-o", out]

    def extract(code):
        data = cli_output(code, out, read_json)
        return {k: data[k] for k in IBP_FIELDS}

    return Case("cli.verify_ibp", lambda: ctx.run_cli(argv), extract, refs)


def solve_bvp_cli_case(ctx: Context, rng, tag: str, degree: int, n_terms: int) -> Case:
    alpha, q_a, phi_right, phi_left, q = _manufactured(rng, degree, n_terms)
    forcing = phi_right.derivative(alpha)  # f = D^alpha_right phi* + q*
    q_b = float(q.at(1))
    problem = {
        "alpha": alpha, "a": 0.0, "b": 1.0, "qa": [q_a], "qb": [q_b],
        "f": {"kind": "poly", "terms": terms_json(forcing, True) + terms_json(q, True)},
        "basis_degree": degree,
    }
    src, out = ctx.path(f"bvp_{tag}.json"), ctx.path(f"out_{tag}.json")
    write_json(src, problem)
    argv = ["solve-bvp", src, "-o", out]
    # The solver's coefficients expand the density minus the constant theta
    # of the feasible element in shifted Legendre polynomials on [0, 1].
    g = mp.gamma(1 + mp.mpf(alpha))
    theta = g * q_b - g / mp.gamma(alpha) * q_a
    coeffs = legendre_coeffs(phi_left + Series(LEFT, [(-theta, 0)]), degree)

    def extract(code):
        d = cli_output(code, out, read_json)
        return {
            "c": d["c"],
            "energy": d["energy_norm"],
            "coeffs": d["coeffs"][0],
            "bc": d["bc_defect_b"],
            "weak": d["weak_residuals"],
        }

    refs = [r for r in _solution_refs(q, phi_left, q_a) if r.name != "q"]
    refs += [
        Ref("coeffs", np.array([float(x) for x in coeffs]), EXACT_TOL),
        Ref("weak", np.zeros(degree), EXACT_TOL),
    ]
    return Case("cli.solve_bvp", lambda: ctx.run_cli(argv), extract, refs, {"basis_degree": degree})


def exact_bvp_block(ctx: Context, rng, tag: str) -> list[Case]:
    """Degrees and term counts follow one pattern in every block, so blocks
    cost the same; the seed draws orders, coefficients and exponents."""
    cases = [bvp_solve_case(ctx, rng, degree, 1 + degree % 3) for degree in DEGREES]
    cases += [bvp_weak_case(ctx, rng, 1 + n % 3, n) for n in (1, 2, 3, 4, 5)]
    # The top-degree solve is the least accurate case of the workload; its
    # inputs are the same for every seed, so that oracle_digits_min is too.
    probe = np.random.default_rng(ACCURACY_PROBE_SEED)
    cases += [
        solve_bvp_cli_case(ctx, probe, f"{tag}_{k}", degree, 3)
        if degree == max(DEGREES)
        else solve_bvp_cli_case(ctx, rng, f"{tag}_{k}", degree, 1 + degree % 3)
        for k, degree in enumerate(CLI_DEGREES)
    ]
    cases += [ibp_closed_case(ctx, rng, 1 + k % 3) for k in range(8)]
    cases += [verify_ibp_case(ctx, rng, f"{tag}_{k}", 1 + k % 3) for k in range(5)]
    return [cases[k] for k in rng.permutation(len(cases))]


# ---------------------------------------------------------------------------

BLOCKS = {
    "grid_ops": grid_ops_block,
    "split_functionals": split_functionals_block,
    "exact_bvp": exact_bvp_block,
}


def make_block(ctx: Context, workload: str, seed: int, index: int) -> list[Case]:
    """Block ``index`` of a workload's stream; the same seed gives the same block."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "grid_ops":
        # One key order for the whole stream of a seed.  The sizes repeat in
        # the order of N_POOL, so any 32 consecutive keys leave out one key
        # of each size and the cache's largest content is the same for every
        # seed; the seed permutes the orders within each size.
        order_rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        alphas = [order_rng.permutation(len(ALPHA_POOL)) for _ in N_POOL]
        order = [alphas[j][i] * len(N_POOL) + j for i in range(len(ALPHA_POOL)) for j in range(len(N_POOL))]
        return grid_ops_block(ctx, rng, f"b{index}", order)
    return BLOCKS[workload](ctx, rng, f"b{index}")


def warm_up(workload: str, fl, workdir: str) -> None:
    """Call every code path of the workload once on sizes the stream never uses.

    Grids have n <= 16 (the stream uses n >= 50 for grid densities and
    quad_n >= 64), orders are not in the stream's pool, and the BVP runs on
    [0, 2], so no weight matrix or Legendre expansion the timed cases need
    is built here.
    """
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(fl, workdir)
    out = ctx.path("warm_out")
    if workload == "grid_ops":
        grid = fl.Grid(0.0, 1.0, 8)
        f = fl.GridFunction(grid, np.linspace(0.0, 1.0, 9) ** 2)
        for name in OP_FUNCTIONS.values():
            getattr(fl, name)(0.3, f)
        params = fl.FracParams(0.3, math.inf, 0.0, 1.0)
        fl.ibp_report(fl.SplitFunction(params, [0.5], f), fl.RightSplitFunction(params, [0.5], f))
        src = ctx.path("warm_in.csv")
        write_csv(src, grid.nodes, f.values[:, 0])
        ctx.run_cli(["apply", "--op", "ileft", "--alpha", "0.3", src, "-o", out])
        ctx.run_cli(["convergence", "--op", "dleft", "--alpha", "0.3", "--ref", "cos", "--n-list", "8,16", "-o", out])
    elif workload == "split_functionals":
        params = fl.FracParams(0.7, 2.0, 0.0, 1.0)
        q = fl.SplitFunction(params, [0.5], [fl.PowerTerm(1.0, 1.0)])
        for spec in (
            fl.quadratic_lagrangian(0.7, 2.0),
            fl.power_lagrangian(1.5, 0.7, 2.0),
            fl.poly_lagrangian([[0, 2, 0, 1.0], [0, 0, 2, 1.0]], 0.7, 2.0, 0.0, 1.0),
        ):
            fl.bolza_value(spec, q, quad_n=8)
            fl.first_variation(spec, q, q, quad_n=8)
            fl.el_report(spec, q, quad_n=8)
        grid = fl.Grid(0.0, 1.0, 8)
        q_grid = fl.SplitFunction(
            fl.FracParams(0.7, math.inf, 0.0, 1.0), [0.5], fl.GridFunction(grid, np.ones(9))
        )
        fl.sample_split(q_grid, fl.Grid(0.0, 1.0, 4))
        fl.eval_split(q_grid, 0.3)
        cfg = ctx.path("warm_el.json")
        write_json(cfg, {"lagrangian": "quadratic", "q": split_json(0.7, 2.0, LEFT, 0.0, Series(LEFT, [(1, 1)])), "quad_n": 8})
        ctx.run_cli(["el-check", cfg, "-o", out])
    else:
        params = fl.FracParams(0.7, 2.0, 0.0, 2.0)
        problem, q_star = fl.manufactured_problem(params, [fl.PowerTerm(1.0, 1.0, fl.Side.RIGHT)], 0.5)
        fl.solve_bvp(problem, 2)
        probe = fl.SplitFunction(params, [0.0], [fl.PowerTerm(0.0, 0.0)])
        fl.weak_form_check(q_star, problem, [probe])
        q2 = fl.RightSplitFunction(params, [0.5], [fl.PowerTerm(1.0, 1.0, fl.Side.RIGHT)])
        fl.ibp_report(q_star, q2)
        src = ctx.path("warm_bvp.json")
        write_json(src, {
            "alpha": 0.7, "a": 0.0, "b": 2.0, "qa": [0.5], "qb": [1.0], "basis_degree": 2,
            "f": {"kind": "poly", "terms": [{"coeff": 1.0, "exponent": 0.0, "side": "left"}]},
        })
        ctx.run_cli(["solve-bvp", src, "-o", out])
        p1, p2 = ctx.path("warm_q1.json"), ctx.path("warm_q2.json")
        write_json(p1, {**split_json(0.7, 2.0, LEFT, 0.5, Series(LEFT, [(1, 1)])), "b": 2.0})
        write_json(p2, {**split_json(0.7, 2.0, RIGHT, 0.5, Series(RIGHT, [(1, 1)])), "b": 2.0})
        ctx.run_cli(["verify-ibp", p1, p2, "-o", out])
