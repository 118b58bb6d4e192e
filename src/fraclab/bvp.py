"""Constructive Galerkin solver for the linear fractional boundary value problem.

Problem:  (D^a_right D^a_left q)(t) + q(t) = f(t)  on (a, b)  with
(I^(1-a) q)(a) = q_a and q(b) = q_b, for a in (1/2, 1) and f in L^2.

The trial space mirrors the split coordinates: the singular coefficient is
pinned to q_a exactly, the density is expanded in shifted Legendre
polynomials, and one linear constraint enforces q(b) = q_b.  The weak form
is the Hilbert inner product  a(q, w) = int q.w + int D^a q . D^a w
against the load  int f.w;  the form is coercive with constant 1, so the
constrained SPD system is uniquely solvable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .core import (
    FracParams,
    GridFunction,
    RegimeError,
    SplitFunction,
    _power_terms,
    _require_left,
    eval_split,
)
from .special import (
    PowerTerm,
    Side,
    beta,
    frac_derivative_terms,
    frac_integral_terms,
    gamma,
    poly_to_left_terms,
    terms_eval,
    terms_product_integral,
)

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "feasible_element",
    "assemble_system",
    "solve_bvp",
    "weak_form_check",
    "shifted_legendre_terms",
    "manufactured_problem",
]

MAX_BASIS_DEGREE = 12  # conditioning cap for the monomial expansion

Forcing = Union[list[PowerTerm], GridFunction]


@dataclass(frozen=True)
class BvpProblem:
    """Data (alpha, f, q_a, q_b) on [a, b] with p = 2 and alpha > 1/2."""

    params: FracParams
    f: Forcing
    q_a: np.ndarray
    q_b: np.ndarray

    def __post_init__(self) -> None:
        p = self.params
        if p.p != 2.0:
            raise RegimeError(f"the Hilbert setting needs p = 2, got p = {p.p}")
        if not p.alpha > 0.5:
            raise RegimeError(f"need alpha in (1/2, 1), got alpha = {p.alpha}")
        qa = np.atleast_1d(np.asarray(self.q_a, dtype=float))
        qb = np.atleast_1d(np.asarray(self.q_b, dtype=float))
        if qa.shape != qb.shape:
            raise ValueError("q_a and q_b must have the same dimension")
        object.__setattr__(self, "q_a", qa)
        object.__setattr__(self, "q_b", qb)
        if isinstance(self.f, GridFunction):
            if self.f.m != qa.shape[0]:
                raise ValueError("forcing dimension does not match q_a")
        else:
            object.__setattr__(self, "f", list(self.f))

    @property
    def m(self) -> int:
        return self.q_a.shape[0]


@dataclass(frozen=True)
class BvpSolution:
    """Galerkin solution in split coordinates plus diagnostics.

    ``coeffs[j, k]`` is the Legendre-j coefficient of component k of the
    density.  ``energy_norm`` is a(q, q)^(1/2), with
    a(q, q) = int |q|^2 + int |D^a q|^2, taken from ``coeffs`` by one
    Gauss-Jacobi rule and Legendre orthogonality, not from the monomial
    density ``q.phi``.  ``weak_residuals`` are the Galerkin orthogonality
    defects over the constrained test directions; ``bc_defect_b`` is
    |q(b) - q_b| per component.  ``projection_tol`` reports the quadrature
    error of the load when f arrives as grid samples (0 for closed-form
    forcings).
    """

    q: SplitFunction
    coeffs: np.ndarray
    energy_norm: float
    weak_residuals: np.ndarray
    bc_defect_b: np.ndarray
    projection_tol: float = 0.0


def feasible_element(problem: BvpProblem) -> SplitFunction:
    """The explicit element with (I^(1-a) q)(a) = q_a and q(b) = q_b.

    Constant density theta = Gamma(a+1)/(b-a)^a q_b
                           - Gamma(a+1)/(Gamma(a)(b-a)) q_a.
    """
    p = problem.params
    alpha, length = p.alpha, p.length
    theta = (
        gamma(alpha + 1.0) / length**alpha * problem.q_b
        - gamma(alpha + 1.0) / (gamma(alpha) * length) * problem.q_a
    )
    return SplitFunction(p, problem.q_a, [PowerTerm(theta, 0.0, Side.LEFT)])


@lru_cache(maxsize=128)
def _legendre_coeffs(j: int, a: float, b: float) -> tuple[float, ...]:
    # P_j(2u/(b-a) - 1) = sum_k (-1)^(j+k) C(j,k) C(j+k,k) (u/(b-a))^k, u = t - a:
    # exact integers on [0, 1].
    return tuple(
        (-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k) / (b - a) ** k
        for k in range(j + 1)
    )


def shifted_legendre_terms(j: int, a: float, b: float) -> list[PowerTerm]:
    """Legendre polynomial of degree j on [a, b], as powers of (t - a)."""
    coeffs = _legendre_coeffs(j, float(a), float(b))
    return [PowerTerm(c, float(k), Side.LEFT) for k, c in enumerate(coeffs) if c != 0.0]


def _gauss_jacobi(n: int, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rules for the weights (1-x)^wa (1+x)^wb on [-1, 1], one per
    entry of the exponent arrays: nodes and weights of shape (len(wa), n).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic three-term recurrence.  Exact for polynomials of degree < 2n; needs
    wa, wb > -1 and wa + wb > -1.
    """
    wa, wb = (np.asarray(w, dtype=float).reshape(-1, 1) for w in (wa, wb))
    s = wa + wb
    k = np.arange(1.0, n)
    d = 2.0 * k + s
    i = np.arange(n)
    jac = np.zeros((s.shape[0], n, n))
    jac[:, i, i] = np.c_[(wb - wa) / (s + 2.0), (wb * wb - wa * wa) / (d * (d + 2.0))]
    off = np.sqrt(4.0 * k * (k + wa) * (k + wb) * (k + s) / (d * d * (d * d - 1.0)))
    jac[:, i[1:], i[:-1]] = jac[:, i[:-1], i[1:]] = off
    x, v = np.linalg.eigh(jac)
    mu0 = [2.0 ** (ea + eb + 1.0) * beta(ea + 1.0, eb + 1.0) for ea, eb in zip(wa.flat, wb.flat)]
    return x, np.asarray(mu0)[:, None] * v[:, 0, :] ** 2


def _jacobi_table(alpha: float, n: int, x: np.ndarray) -> np.ndarray:
    """P_j^(-alpha, alpha)(x) for j < n by the three-term recurrence, shape (n, len(x))."""
    p = np.empty((n, len(x)))
    p[0] = 1.0
    if n > 1:
        p[1] = x - alpha
    for j in range(1, n - 1):
        p[j + 1] = ((2 * j + 1) * x * p[j] - (j * j - alpha * alpha) / j * p[j - 1]) / (j + 1)
    return p


def _trial_table(alpha: float, half: float, n: int, x: np.ndarray) -> np.ndarray:
    """T_j(x) for j < n, shape (n, len(x)), where I^a B_j(t) = (1+x)^a T_j(x)
    on t = a + half (1+x):  T_j = half^a Gamma(j+1)/Gamma(j+1+a) P_j^(-a,a)."""
    j = np.arange(1.0, n)
    scale = half**alpha * np.cumprod(np.r_[1.0 / gamma(alpha + 1.0), j / (j + alpha)])
    return scale[:, None] * _jacobi_table(alpha, n, x)


def _grid_load_tol(fg: GridFunction, alpha: float) -> float:
    return 10.0 * fg.grid.h ** (1.0 + alpha) * max(1.0, float(np.max(np.abs(fg.values))))


def assemble_system(
    problem: BvpProblem, basis_degree: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram matrix, load vector, and boundary constraint row.

    Trial perturbations are I^a B_j for shifted Legendre B_j, j = 0..N,
    around the feasible element q0.  G_ij = int I^a B_i . I^a B_j
    + delta_ij (b-a)/(2i+1) by orthogonality; the load is
    int f . I^a B_i - <q0, I^a B_i>;  the constraint row holds (I^a B_j)(b),
    so admissible coefficient vectors satisfy row . c = 0.

    With t = a + (b-a)(1+x)/2,  I^a B_j(t) = (1+x)^a T_j(x)  for the
    polynomial T_j = ((b-a)/2)^a Gamma(j+1)/Gamma(j+1+a) P_j^(-a,a)
    (Zayernouri & Karniadakis 2013), so every integral is a Gauss-Jacobi
    rule with N+1 nodes, exact for the power-term data.
    """
    if basis_degree > MAX_BASIS_DEGREE:
        raise ValueError(f"basis degree capped at {MAX_BASIS_DEGREE}, got {basis_degree}")
    if basis_degree < 0:
        raise ValueError("basis degree must be nonnegative")
    p = problem.params
    alpha, half = p.alpha, 0.5 * p.length
    n = basis_degree + 1

    # One rule for the Gram matrix, weight (1+x)^(2a), then one per power
    # term of f and of q0: (t-a)^e = half^e (1+x)^e, (b-t)^e = half^e (1-x)^e.
    q0 = feasible_element(problem)
    f = [] if isinstance(problem.f, GridFunction) else problem.f
    terms = [*f, *_power_terms(q0)]
    e = np.array([t.exponent for t in terms])
    left = np.array([t.side is Side.LEFT for t in terms])
    x, w = _gauss_jacobi(
        n, np.r_[0.0, np.where(left, 0.0, e)], np.r_[2.0 * alpha, np.where(left, e + alpha, alpha)]
    )
    # T_j at every node of every rule, then at x = 1
    table = _trial_table(alpha, half, n, np.r_[x.ravel(), 1.0])

    v = table[:, :n] * np.sqrt(half * w[0])
    gram = v @ v.T + np.diag(p.length / (2.0 * np.arange(n) + 1.0))

    # int term . I^a B_j = half^(e+1) sum_k w_k T_j(x_k), since dt = half dx.
    moments = np.einsum("jrk,rk->jr", table[:, n:-1].reshape(n, -1, n), w[1:]) * half ** (e + 1.0)
    # load = int f . I^a B_j - <q0, I^a B_j>, where <q0, I^a B_j> also holds
    # int theta . B_j = (b-a) theta delta_j0.
    term_coeffs = np.array([np.broadcast_to(t.coeff, (problem.m,)) for t in terms])
    term_coeffs[len(f):] *= -1.0
    load = moments @ term_coeffs
    load[0] -= p.length * q0.phi[0].coeff
    if isinstance(problem.f, GridFunction):
        fg = problem.f
        u = (fg.grid.nodes - p.a) / half  # 1 + x
        trap = np.full(u.shape, fg.grid.h)
        trap[[0, -1]] *= 0.5
        load += (u**alpha * _trial_table(alpha, half, n, u - 1.0) * trap) @ fg.values

    constraint = 2.0**alpha * table[:, -1]
    return gram, load, constraint


def _null_space(constraint: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane row . c = 0, via complete QR."""
    q, _ = np.linalg.qr(constraint.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def solve_bvp(problem: BvpProblem, basis_degree: int) -> BvpSolution:
    """Solve the constrained SPD Galerkin system by null-space elimination."""
    gram, load, constraint = assemble_system(problem, basis_degree)
    z = _null_space(constraint)
    coeffs = np.zeros_like(load)
    if z.shape[1]:
        coeffs = z @ np.linalg.solve(z.T @ gram @ z, z.T @ load)

    # The density sum_j coeffs[j] B_j + theta, in powers of (t - a).
    p = problem.params
    theta = feasible_element(problem).phi[0].coeff
    power = np.zeros_like(coeffs)
    for j, cj in enumerate(coeffs):
        power[: j + 1] += np.outer(_legendre_coeffs(j, p.a, p.b), cj)
    power[0] += theta
    phi = [PowerTerm(c, float(k), Side.LEFT) for k, c in enumerate(power)]
    q = SplitFunction(p, problem.q_a, phi)

    weak_residuals = np.max(np.abs(z.T @ (gram @ coeffs - load)), axis=1)
    bc_b = np.abs(np.atleast_1d(eval_split(q, p.b)) - problem.q_b)

    # a(q, q) from the Legendre coefficients, not from the monomials.  With
    # d = coeffs + theta e_0, q = (1+x)^(a-1) P(x) for the degree-(N+1)
    # polynomial P = q_a half^(a-1)/Gamma(a) + (1+x) sum_j d_j T_j, so int |q|^2
    # is one (N+2)-point Gauss-Jacobi rule with weight (1+x)^(2a-2), integrable
    # as a > 1/2.  Legendre orthogonality gives int |phi|^2.
    alpha, half, n = p.alpha, 0.5 * p.length, len(coeffs)
    d = coeffs.copy()
    d[0] += theta
    (x,), (w,) = _gauss_jacobi(n + 1, np.zeros(1), np.array([2.0 * alpha - 2.0]))
    poly = (1.0 + x)[:, None] * (_trial_table(alpha, half, n, x).T @ d)
    poly += half ** (alpha - 1.0) / gamma(alpha) * problem.q_a
    phi_sq = theta * theta + 2.0 * theta * coeffs[0]
    phi_sq += np.sum(coeffs**2 / (2.0 * np.arange(n) + 1.0)[:, None], axis=0)
    energy_sq = half * float(np.sum(w @ poly**2)) + p.length * float(np.sum(phi_sq))
    proj_tol = (
        _grid_load_tol(problem.f, p.alpha) if isinstance(problem.f, GridFunction) else 0.0
    )
    return BvpSolution(
        q=q,
        coeffs=coeffs,
        energy_norm=math.sqrt(energy_sq),
        weak_residuals=weak_residuals,
        bc_defect_b=bc_b,
        projection_tol=proj_tol,
    )


def weak_form_check(
    q: SplitFunction, problem: BvpProblem, probes: Sequence[SplitFunction]
) -> np.ndarray:
    """Defects  int (q - f).h + int D^a q . D^a h  for admissible probes h.

    Each probe must satisfy h.c = 0 and h(b) = 0 (tangent directions of the
    boundary constraints); small defects certify the weak-solution property.
    """
    p = problem.params
    a, b = p.a, p.b
    _require_left(q, *probes)
    if isinstance(q.phi, GridFunction) or isinstance(problem.f, GridFunction):
        raise ValueError("weak_form_check expects power-term data")

    def inner(u: Sequence[PowerTerm], v: Sequence[PowerTerm]) -> float:
        """int u . v summed over the m components; scalar coefficients broadcast."""
        return float(np.sum(np.broadcast_to(terms_product_integral(u, v, a, b), (problem.m,))))

    q_terms = _power_terms(q)
    out = np.zeros(len(probes))
    for idx, h in enumerate(probes):
        if np.any(h.c != 0.0):
            raise ValueError("probe must have zero singular coefficient")
        if isinstance(h.phi, GridFunction):
            raise ValueError("probe density must be power terms")
        h_terms = frac_integral_terms(p.alpha, h.phi)
        hb = np.atleast_1d(terms_eval(h_terms, b, a, b))
        if float(np.max(np.abs(hb))) > 1e-10 * max(1.0, p.length**p.alpha):
            raise ValueError("probe must vanish at t = b")
        out[idx] = inner(q_terms, h_terms) - inner(problem.f, h_terms) + inner(q.phi, h.phi)
    return out


def manufactured_problem(
    params: FracParams, phi_star: Sequence[PowerTerm], q_a
) -> tuple[BvpProblem, SplitFunction]:
    """Problem whose exact solution is q* = (c = q_a, phi = phi*), scalar case.

    phi* is given in (b-t) powers with positive integer exponents (so it
    vanishes at b and D^a_right phi* stays square-integrable); the forcing
    is  f = D^a_right phi* + q*  in closed form.
    """
    p = params
    alpha = p.alpha
    phi_right = list(phi_star)
    for t in phi_right:
        if t.side is not Side.RIGHT or t.exponent <= 0.0:
            raise ValueError("phi* must be given in (b-t) powers with positive exponents")
        if np.asarray(t.coeff).size != 1:
            raise ValueError("manufactured_problem handles scalar densities")
    q_a = np.atleast_1d(np.asarray(q_a, dtype=float))
    if q_a.size != 1:
        raise ValueError("manufactured_problem handles the scalar case")

    # phi* rewritten in (t-a) powers for the split-function density.
    coeffs_t = np.zeros(1)
    for t in phi_right:
        w = np.polynomial.polynomial.polypow([p.b, -1.0], int(round(t.exponent)))
        c = float(np.asarray(t.coeff)) * w
        if c.size > coeffs_t.size:
            coeffs_t = np.pad(coeffs_t, (0, c.size - coeffs_t.size))
        coeffs_t[: c.size] += c
    phi_left = poly_to_left_terms(coeffs_t, p.a)
    q_star = SplitFunction(p, q_a, phi_left)

    f_terms = list(frac_derivative_terms(alpha, phi_right))
    f_terms.append(PowerTerm(float(q_a[0]) / gamma(alpha), alpha - 1.0, Side.LEFT))
    f_terms += frac_integral_terms(alpha, phi_left)

    q_b = eval_split(q_star, p.b)
    problem = BvpProblem(p, f_terms, q_a, q_b)
    return problem, q_star
