"""Growth classes, Bolza functionals, first variations, and Euler-Lagrange residuals.

The cost is  int_a^b L(t, q, D^a q) dt + l((I^(1-a) q)(a), q(b))  over split
functions q.  Quasi-polynomial growth certificates keep every integrand
p-integrable despite the (t-a)^(alpha-1) boundary singularity; integrals use
composite Gauss-Legendre on a mesh graded toward t = a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    FracParams,
    Grid,
    GridFunction,
    RightSplitFunction,
    SplitFunction,
    eval_split,
    right_derivative_grid,
)
from .special import PowerTerm, Side, gamma

__all__ = [
    "QPTerm",
    "QuasiPolynomial",
    "GrowthCertificate",
    "LagrangianSpec",
    "ElReport",
    "validate_growth",
    "check_dominations",
    "bolza_value",
    "first_variation",
    "el_report",
    "boundary_test_functions",
    "quadratic_lagrangian",
    "power_lagrangian",
    "poly_lagrangian",
    "constant_growth_certificate",
]


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


@dataclass(frozen=True)
class QPTerm:
    """One quasi-polynomial term  c(t) * |x|^s1 * |v|^s2.

    ``coeff_poly`` holds the coefficients of c(t) in t, low order first;
    c must be nonnegative on the interval (caller's assertion).
    """

    coeff_poly: tuple[float, ...]
    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self) -> None:
        if self.s1 < 0.0 or self.s2 < 0.0:
            raise ValueError("growth exponents must be nonnegative")

    def coeff_at(self, t: float) -> float:
        return float(np.polynomial.polynomial.polyval(t, np.asarray(self.coeff_poly)))


@dataclass(frozen=True)
class QuasiPolynomial:
    """Sum of :class:`QPTerm` meant to be M-integrable along any admissible q."""

    terms: tuple[QPTerm, ...]
    target_M: float  # in [1, inf]

    def __post_init__(self) -> None:
        if not self.target_M >= 1.0:
            raise ValueError(f"target_M must lie in [1, inf], got {self.target_M}")
        object.__setattr__(self, "terms", tuple(self.terms))

    def eval(self, t: float, xnorm: float, vnorm: float) -> float:
        total = 0.0
        for term in self.terms:
            total += term.coeff_at(t) * xnorm**term.s1 * vnorm**term.s2
        return total

    def violations(self, alpha: float, p: float, label: str = "P") -> list[str]:
        """Exponent admissibility for the pair (alpha, p) against target_M.

        With composite q ~ (t-a)^(alpha-1) and D^a q in L^p, the term
        c(t)|x|^s1|v|^s2 is M-integrable when s2/p <= 1/M (s1 = 0) or
        (1-alpha)s1 + s2/p < 1/M (s1 > 0); 1/p and 1/M read as 0 at inf.
        """
        inv_p, inv_m = _inv(p), _inv(self.target_M)
        out = []
        for k, term in enumerate(self.terms):
            if term.s1 == 0.0:
                lhs = term.s2 * inv_p
                # 1/p, s2/p and a derived M such as p' = p/(p-1) each round, so
                # the admissible equality s2/p = 1/M may land a few ulps above.
                if not lhs <= inv_m * (1.0 + 4.0 * np.finfo(float).eps):
                    out.append(
                        f"{label} term {k}: s2/p <= 1/M violated "
                        f"({term.s2}/{p} = {lhs:.6g} > {inv_m:.6g})"
                    )
            else:
                lhs = (1.0 - alpha) * term.s1 + term.s2 * inv_p
                if not lhs < inv_m:
                    out.append(
                        f"{label} term {k}: (1-alpha)*s1 + s2/p < 1/M violated "
                        f"({lhs:.6g} >= {inv_m:.6g})"
                    )
        return out


@dataclass(frozen=True)
class GrowthCertificate:
    """Quasi-polynomial dominations |L| <= P0, |L_x| <= P1, |L_v| <= P2.

    P0 targets M = 1, P1 targets M = s with s > 1/alpha, P2 targets the
    conjugate exponent p'.  The dominations themselves are the caller's
    assertion (spot-checked by :func:`check_dominations`); only exponent
    admissibility is machine-verified.
    """

    P0: QuasiPolynomial
    s: float
    P1: QuasiPolynomial
    P2: QuasiPolynomial


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def validate_growth(cert: GrowthCertificate, params: FracParams) -> list[str]:
    """Empty list iff every exponent inequality holds for (alpha, p)."""
    alpha, p = params.alpha, params.p
    out = []
    if cert.P0.target_M != 1.0:
        out.append(f"P0 must target M = 1, got {cert.P0.target_M}")
    if not cert.s > 1.0 / alpha:
        out.append(f"s > 1/alpha violated ({cert.s} <= {1.0 / alpha:.6g})")
    if cert.P1.target_M != cert.s:
        out.append(f"P1 must target M = s = {cert.s}, got {cert.P1.target_M}")
    pc = _conjugate(p)
    if cert.P2.target_M != pc:
        out.append(f"P2 must target M = p' = {pc}, got {cert.P2.target_M}")
    out += cert.P0.violations(alpha, p, "P0")
    out += cert.P1.violations(alpha, p, "P1")
    out += cert.P2.violations(alpha, p, "P2")
    return out


_ZERO_VEC = lambda *args: 0.0  # noqa: E731


@dataclass(frozen=True)
class LagrangianSpec:
    """Lagrangian with gradients, growth certificate, and terminal cost.

    L maps (t, x, v) with x, v of shape (m,) to a float; L_x and L_v return
    (m,) gradients.  The terminal cost l and its gradients take the pair
    ((I^(1-a) q)(a), q(b)).
    """

    L: Callable[[float, np.ndarray, np.ndarray], float]
    L_x: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    L_v: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    certificate: GrowthCertificate
    l: Callable[[np.ndarray, np.ndarray], float] = _ZERO_VEC
    l_x1: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    l_x2: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def terminal_grads(self, x1: np.ndarray, x2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.zeros_like(np.atleast_1d(x1), dtype=float)
        g1 = z if self.l_x1 is None else np.atleast_1d(np.asarray(self.l_x1(x1, x2), dtype=float))
        g2 = z if self.l_x2 is None else np.atleast_1d(np.asarray(self.l_x2(x1, x2), dtype=float))
        return g1, g2


# ---------------------------------------------------------------------------
# quadrature on a mesh graded toward t = a

_GL_POINTS, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)

_MAX_GRADING = 80.0


def graded_mesh(a: float, b: float, n: int, alpha: float, grading: float | None = None) -> np.ndarray:
    """Cell boundaries t_j = a + (b-a)(j/n)^r, clustering toward a.

    The default exponent r = 2/alpha restores second-order accuracy for
    integrands with a single (t-a)^(alpha-1) factor; steeper grading is
    needed when powers of a singular trajectory compound.
    """
    r = 2.0 / alpha if grading is None else grading
    j = np.arange(n + 1) / n
    return a + (b - a) * j**r


def _grading_for(alpha: float, cert: GrowthCertificate, q_singular: bool, h_singular: bool) -> float:
    """Grading exponent covering the worst singularity the certificate admits.

    The integrand is bounded by quasi-polynomial terms ~ t^((alpha-1)*s1)
    when q is singular at a, times an extra t^(alpha-1) for a singular
    direction h; r = 2/beta with beta the remaining integrability margin
    gives second-order convergence.
    """
    s_max = 0.0
    if q_singular:
        for P in (cert.P0, cert.P1, cert.P2):
            s_max = max(s_max, max((t.s1 for t in P.terms), default=0.0))
    worst = (1.0 - alpha) * (s_max + (1.0 if h_singular else 0.0))
    beta = max(1.0 - worst, 0.02)
    return float(min(max(2.0 / alpha, 2.0 / beta), _MAX_GRADING))


def _graded_rule(
    a: float, b: float, n: int, alpha: float, grading: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    edges = graded_mesh(a, b, n, alpha, grading)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _GL_POINTS[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    # Steep grading can collapse the first cells onto t = a in floating
    # point; those points carry zero weight and must not be evaluated.
    keep = (wts > 0.0) & (pts > a)
    return pts[keep], wts[keep]


def _require_valid(spec: LagrangianSpec, q: SplitFunction, validate: bool) -> None:
    if validate:
        violations = validate_growth(spec.certificate, q.params)
        if violations:
            raise ValueError("growth certificate rejected: " + "; ".join(violations))
    q.params.require_continuity_regime()


def bolza_value(
    spec: LagrangianSpec, q: SplitFunction, quad_n: int = 256, validate: bool = True
) -> float:
    """Cost  int L(t, q, D^a q) dt + l(c, q(b))  by graded Gauss-Legendre.

    ``validate=False`` skips the growth-certificate gate; the caller then
    asserts integrability of the integrand along q.
    """
    _require_valid(spec, q, validate)
    p = q.params
    q_singular = bool(np.any(q.c != 0.0))
    grading = _grading_for(p.alpha, spec.certificate, q_singular, False)
    pts, wts = _graded_rule(p.a, p.b, quad_n, p.alpha, grading)
    total = 0.0
    for t, w, x, v in zip(pts.tolist(), wts, q._values(pts), q._density_values(pts)):
        val = spec.L(t, x, v)
        if not np.isfinite(val):
            raise ValueError(f"Lagrangian not finite at t = {t}")
        total += w * val
    qb = eval_split(q, p.b)
    return float(total + spec.l(q.c, qb))


def first_variation(
    spec: LagrangianSpec,
    q: SplitFunction,
    h: SplitFunction,
    quad_n: int = 256,
    validate: bool = True,
) -> float:
    """Directional derivative of the cost at q along h.

    (I^(1-a) h)(a) = h.c and D^a h = h.phi are read from the split form,
    never computed numerically.
    """
    _require_valid(spec, q, validate)
    p = q.params
    hp = h.params
    if (hp.a, hp.b, hp.alpha) != (p.a, p.b, p.alpha):
        raise ValueError("q and h must share the interval and the order alpha")
    hp.require_continuity_regime()
    q_singular = bool(np.any(q.c != 0.0))
    h_singular = bool(np.any(h.c != 0.0))
    grading = _grading_for(p.alpha, spec.certificate, q_singular, h_singular)
    pts, wts = _graded_rule(p.a, p.b, quad_n, p.alpha, grading)
    batch = (q._values(pts), q._density_values(pts), h._values(pts), h._density_values(pts))
    total = 0.0
    for t, w, x, v, hx, hv in zip(pts.tolist(), wts, *batch):
        gx = np.atleast_1d(np.asarray(spec.L_x(t, x, v), dtype=float))
        gv = np.atleast_1d(np.asarray(spec.L_v(t, x, v), dtype=float))
        total += w * float(gx @ hx + gv @ hv)
    qb = eval_split(q, p.b)
    g1, g2 = spec.terminal_grads(q.c, qb)
    return float(total + g1 @ h.c + g2 @ eval_split(h, p.b))


@dataclass(frozen=True)
class ElReport:
    """Euler-Lagrange and natural-boundary residuals at a candidate q.

    ``lambda_v`` is the right-split reconstruction (d, psi) of
    g = L_v(., q, D^a q); ``el_residual`` holds D^a_right g + L_x at the
    nodes.  ``bc_a_residual`` is None when q(a) or (D^a q)(a) is not finite,
    the case the boundary condition cannot be evaluated pointwise.
    """

    lambda_v: RightSplitFunction
    el_residual: GridFunction
    bc_a_residual: np.ndarray | None
    bc_b_residual: np.ndarray
    residual_tol: float


def _density_finite_at_a(q: SplitFunction) -> bool:
    if isinstance(q.phi, GridFunction):
        return q.phi.left_endpoint_finite
    return all(t.exponent >= 0.0 for t in q.phi)


def el_report(
    spec: LagrangianSpec, q: SplitFunction, quad_n: int = 256, validate: bool = True
) -> ElReport:
    """Residuals of the Euler-Lagrange equation and its boundary conditions.

    g = L_v(., q, D^a q) is built on a uniform grid and differentiated by
    the reflected derivative pipeline.  When q is singular at a, the node
    at t = a is filled by linear extrapolation and the residual is flagged
    ignorable there; values near a then carry O(1) relative error.
    """
    _require_valid(spec, q, validate)
    p = q.params
    grid = Grid(p.a, p.b, quad_n)
    nodes = grid.nodes
    m = q.m

    finite_a = not bool(np.any(q.c != 0.0)) and _density_finite_at_a(q)
    g = np.zeros((quad_n + 1, m))
    lx = np.zeros((quad_n + 1, m))
    start = 0 if finite_a else 1
    batch = (nodes[start:].tolist(), q._values(nodes[start:]), q._density_values(nodes[start:]))
    for i, t, x, v in zip(range(start, quad_n + 1), *batch):
        g[i] = np.atleast_1d(np.asarray(spec.L_v(t, x, v), dtype=float))
        lx[i] = np.atleast_1d(np.asarray(spec.L_x(t, x, v), dtype=float))
        bad = ~np.isfinite(g[i]) | ~np.isfinite(lx[i])
        if np.any(bad):
            raise ValueError(f"non-finite Lagrangian gradient at node {i} (t = {t})")
    if not finite_a:
        g[0] = 2.0 * g[1] - g[2]
        lx[0] = 2.0 * lx[1] - lx[2]

    psi_g = right_derivative_grid(p.alpha, GridFunction(grid, g, True))
    residual = GridFunction(grid, psi_g.values + lx, left_endpoint_finite=finite_a)

    # The absolutely continuous representative of I^(1-alpha)_right g
    # vanishes at b for bounded g: the recovered d-coefficient is exactly 0.
    d_g = np.zeros(m)
    qb = eval_split(q, p.b)
    g1, g2 = spec.terminal_grads(q.c, qb)
    bc_b = d_g - (-g2)
    bc_a = (g[0] - g1) if finite_a else None

    lambda_v = RightSplitFunction(p, d_g, GridFunction(grid, psi_g.values, True))
    tol = 10.0 * grid.h ** (2.0 - p.alpha) * max(1.0, float(np.max(np.abs(g))))
    return ElReport(lambda_v, residual, bc_a, bc_b, tol)


def boundary_test_functions(params: FracParams) -> tuple[SplitFunction, SplitFunction]:
    """Probes isolating the two natural boundary conditions (m = 1).

    h_b = I^alpha 1 satisfies (I^(1-alpha) h_b)(a) = 0 and h_b(b) > 0;
    h_a has unit subdiffusion value at a and a constant density
    theta = -Gamma(alpha+1) / (Gamma(alpha)(b-a)) tuned so h_a(b) = 0.
    """
    alpha, length = params.alpha, params.length
    h_b = SplitFunction(params, [0.0], [PowerTerm(1.0, 0.0, Side.LEFT)])
    theta = -gamma(alpha + 1.0) / (gamma(alpha) * length)
    h_a = SplitFunction(params, [1.0], [PowerTerm(theta, 0.0, Side.LEFT)])
    return h_b, h_a


def check_dominations(
    spec: LagrangianSpec,
    params: FracParams,
    n_samples: int = 1000,
    box: float = 10.0,
    m: int = 1,
    seed: int = 0,
) -> list[str]:
    """Spot-check |L| <= P0, |L_x| <= P1, |L_v| <= P2 by random sampling."""
    rng = np.random.default_rng(seed)
    cert = spec.certificate
    out = []
    for _ in range(n_samples):
        t = float(rng.uniform(params.a, params.b))
        x = rng.uniform(-box, box, size=m)
        v = rng.uniform(-box, box, size=m)
        xn, vn = float(np.linalg.norm(x)), float(np.linalg.norm(v))
        slack = 1e-9
        checks = (
            (abs(float(spec.L(t, x, v))), cert.P0.eval(t, xn, vn), "P0"),
            (float(np.linalg.norm(spec.L_x(t, x, v))), cert.P1.eval(t, xn, vn), "P1"),
            (float(np.linalg.norm(spec.L_v(t, x, v))), cert.P2.eval(t, xn, vn), "P2"),
        )
        for got, bound, label in checks:
            if got > bound * (1.0 + slack) + slack:
                out.append(f"{label} domination fails at t={t:.4g}, |x|={xn:.4g}, |v|={vn:.4g}")
    return out


# ---------------------------------------------------------------------------
# presets


def _pick_s(alpha: float, worst: float) -> float:
    """s with 1/alpha < s and worst < 1/s when possible, else a rejected value."""
    target = 0.5 * (worst + alpha)
    if target <= 0.0:
        return math.inf
    return 1.0 / target


def constant_growth_certificate(alpha: float, p: float, c0: float, c1: float, c2: float):
    """Certificate for |L| <= c0(1+|x|+|v|), |L_x| <= c1, |L_v| <= c2."""
    P0 = QuasiPolynomial(
        (QPTerm((c0,)), QPTerm((c0,), s1=1.0), QPTerm((c0,), s2=1.0)), 1.0
    )
    s = _pick_s(alpha, 0.0)
    P1 = QuasiPolynomial((QPTerm((c1,)),), s)
    P2 = QuasiPolynomial((QPTerm((c2,)),), _conjugate(p))
    return GrowthCertificate(P0, s, P1, P2)


def power_lagrangian(r: float, alpha: float, p: float) -> LagrangianSpec:
    """L = |x|^r + |v|^r with the canonical growth certificate.

    Admissible exactly when alpha > 1 - 1/r and p >= r.
    """
    if not r > 1.0:
        raise ValueError(f"power Lagrangian needs r > 1, got {r}")

    def L(t, x, v):
        return float(np.linalg.norm(x) ** r + np.linalg.norm(v) ** r)

    def L_x(t, x, v):
        nx = np.linalg.norm(x)
        return np.zeros_like(x) if nx == 0.0 else r * nx ** (r - 2.0) * x

    def L_v(t, x, v):
        nv = np.linalg.norm(v)
        return np.zeros_like(v) if nv == 0.0 else r * nv ** (r - 2.0) * v

    P0 = QuasiPolynomial((QPTerm((1.0,), s1=r), QPTerm((1.0,), s2=r)), 1.0)
    s = _pick_s(alpha, (1.0 - alpha) * (r - 1.0))
    P1 = QuasiPolynomial((QPTerm((r,), s1=r - 1.0),), s)
    P2 = QuasiPolynomial((QPTerm((r,), s2=r - 1.0),), _conjugate(p))
    cert = GrowthCertificate(P0, s, P1, P2)
    return LagrangianSpec(L, L_x, L_v, cert)


def quadratic_lagrangian(alpha: float, p: float) -> LagrangianSpec:
    """L = (|x|^2 + |v|^2) / 2; admissible for alpha > 1/2, p >= 2."""

    def L(t, x, v):
        return 0.5 * float(x @ x + v @ v)

    P0 = QuasiPolynomial((QPTerm((0.5,), s1=2.0), QPTerm((0.5,), s2=2.0)), 1.0)
    s = _pick_s(alpha, 1.0 - alpha)
    P1 = QuasiPolynomial((QPTerm((1.0,), s1=1.0),), s)
    P2 = QuasiPolynomial((QPTerm((1.0,), s2=1.0),), _conjugate(p))
    cert = GrowthCertificate(P0, s, P1, P2)
    return LagrangianSpec(
        L,
        lambda t, x, v: np.asarray(x, dtype=float),
        lambda t, x, v: np.asarray(v, dtype=float),
        cert,
    )


def poly_lagrangian(
    monomials: Sequence[tuple[int, int, int, float]],
    alpha: float,
    p: float,
    a: float,
    b: float,
) -> LagrangianSpec:
    """Scalar (m = 1) polynomial Lagrangian  L = sum c t^i x^j v^k.

    ``monomials`` lists (i, j, k, c).  The certificate bounds each monomial
    by |c| T^i |x|^j |v|^k with T = max(|a|, |b|, 1).
    """
    mono = [(int(i), int(j), int(k), float(c)) for i, j, k, c in monomials]
    T = max(abs(a), abs(b), 1.0)

    def L(t, x, v):
        return float(sum(c * t**i * x[0] ** j * v[0] ** k for i, j, k, c in mono))

    def L_x(t, x, v):
        return np.array(
            [sum(c * j * t**i * x[0] ** (j - 1) * v[0] ** k for i, j, k, c in mono if j > 0)]
        )

    def L_v(t, x, v):
        return np.array(
            [sum(c * k * t**i * x[0] ** j * v[0] ** (k - 1) for i, j, k, c in mono if k > 0)]
        )

    def qp(terms_ijkc, M):
        terms = tuple(
            QPTerm((abs(c) * T**i,), s1=float(j), s2=float(k)) for i, j, k, c in terms_ijkc
        ) or (QPTerm((0.0,)),)
        return QuasiPolynomial(terms, M)

    dx = [(i, j - 1, k, c * j) for i, j, k, c in mono if j > 0]
    dv = [(i, j, k - 1, c * k) for i, j, k, c in mono if k > 0]
    worst = max(
        ((1.0 - alpha) * j + (0.0 if math.isinf(p) else k / p) for i, j, k, c in dx),
        default=0.0,
    )
    s = _pick_s(alpha, worst)
    cert = GrowthCertificate(qp(mono, 1.0), s, qp(dx, s), qp(dv, _conjugate(p)))
    return LagrangianSpec(L, L_x, L_v, cert)
