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

from .core import FracParams, GridFunction, RegimeError, SplitFunction, _evaluate, eval_split
from .special import (
    PowerTerm,
    Side,
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


def _component_terms(terms: Sequence[PowerTerm], k: int) -> list[PowerTerm]:
    """Component k of a list of (possibly vector-coefficient) power terms."""
    out = []
    for t in terms:
        c = np.atleast_1d(np.asarray(t.coeff, dtype=float))
        out.append(PowerTerm(float(c[0] if c.size == 1 else c[k]), t.exponent, t.side))
    return out


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
    density; ``weak_residuals`` are the Galerkin orthogonality defects over
    the constrained test directions; ``bc_defect_b`` is |q(b) - q_b| per
    component.  ``projection_tol`` reports the quadrature error of the load
    when f arrives as grid samples (0 for closed-form forcings).
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
    e = np.zeros(j + 1)
    e[j] = 1.0
    poly_y = np.polynomial.polynomial.Polynomial(np.polynomial.legendre.leg2poly(e))
    # y = 2 (t - a) / (b - a) - 1, expanded in u = t - a.
    poly_u = poly_y(np.polynomial.polynomial.Polynomial([-1.0, 2.0 / (b - a)]))
    return tuple(float(c) for c in np.atleast_1d(poly_u.coef))


def shifted_legendre_terms(j: int, a: float, b: float) -> list[PowerTerm]:
    """Legendre polynomial of degree j on [a, b], as powers of (t - a)."""
    coeffs = _legendre_coeffs(j, float(a), float(b))
    return [PowerTerm(c, float(k), Side.LEFT) for k, c in enumerate(coeffs) if c != 0.0]


def _split_component_terms(q: SplitFunction, k: int) -> list[PowerTerm]:
    """Component k of q as power terms: singular kernel + I^a phi."""
    p = q.params
    sing = PowerTerm(float(q.c[k]) / gamma(p.alpha), p.alpha - 1.0, Side.LEFT)
    return [sing] + _component_terms(q._regular, k)


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
    """
    if basis_degree > MAX_BASIS_DEGREE:
        raise ValueError(f"basis degree capped at {MAX_BASIS_DEGREE}, got {basis_degree}")
    if basis_degree < 0:
        raise ValueError("basis degree must be nonnegative")
    p = problem.params
    a, b, alpha = p.a, p.b, p.alpha
    n_basis = basis_degree + 1

    basis = [shifted_legendre_terms(j, a, b) for j in range(n_basis)]
    trial = [frac_integral_terms(alpha, bj) for bj in basis]

    gram = np.zeros((n_basis, n_basis))
    for i in range(n_basis):
        for j in range(i, n_basis):
            gij = float(np.sum(terms_product_integral(trial[i], trial[j], a, b)))
            if i == j:
                gij += (b - a) / (2.0 * i + 1.0)
            gram[i, j] = gram[j, i] = gij

    load = np.zeros((n_basis, problem.m))
    if isinstance(problem.f, GridFunction):
        fg = problem.f
        h = fg.grid.h
        for i in range(n_basis):
            prod = fg.values * _evaluate(fg.grid.nodes, a, b, Side.LEFT, 1, trial[i])
            load[i] = h * (np.sum(prod, axis=0) - 0.5 * (prod[0] + prod[-1]))
    else:
        for i in range(n_basis):
            for k in range(problem.m):
                load[i, k] = float(
                    np.sum(terms_product_integral(_component_terms(problem.f, k), trial[i], a, b))
                )

    q0 = feasible_element(problem)
    for i in range(n_basis):
        for k in range(problem.m):
            # <q0, I^a B_i> = int q0 . I^a B_i + int theta . B_i.
            inner = float(
                np.sum(terms_product_integral(_split_component_terms(q0, k), trial[i], a, b))
            )
            inner += float(
                np.sum(terms_product_integral(_component_terms(q0.phi, k), basis[i], a, b))
            )
            load[i, k] -= inner

    constraint = np.array([terms_eval(tj, b, a, b) for tj in trial], dtype=float)
    return gram, load, constraint


def _null_space(constraint: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane row . c = 0, via complete QR."""
    q, _ = np.linalg.qr(constraint.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def _combine_legendre(coeffs: np.ndarray, a: float, b: float, m: int) -> list[PowerTerm]:
    """Collapse sum_j coeffs[j] B_j into monomial power terms of (t - a)."""
    power_coeffs: dict[float, np.ndarray] = {}
    for j in range(coeffs.shape[0]):
        for t in shifted_legendre_terms(j, a, b):
            cur = power_coeffs.setdefault(t.exponent, np.zeros(m))
            cur += float(np.asarray(t.coeff)) * coeffs[j]
    return [PowerTerm(power_coeffs[e], e, Side.LEFT) for e in sorted(power_coeffs)]


def solve_bvp(problem: BvpProblem, basis_degree: int) -> BvpSolution:
    """Solve the constrained SPD Galerkin system by null-space elimination."""
    gram, load, constraint = assemble_system(problem, basis_degree)
    z = _null_space(constraint)
    reduced = z.T @ gram @ z
    coeffs = np.zeros_like(load)
    for k in range(problem.m):
        y = np.linalg.solve(reduced, z.T @ load[:, k]) if z.shape[1] else np.zeros(0)
        coeffs[:, k] = z @ y

    p = problem.params
    phi_terms = _combine_legendre(coeffs, p.a, p.b, problem.m)
    q0 = feasible_element(problem)
    theta = np.atleast_1d(np.asarray(q0.phi[0].coeff, dtype=float))
    # Merge the constant density of q0 into the solution's density.
    merged: list[PowerTerm] = []
    has_const = False
    for t in phi_terms:
        if t.exponent == 0.0:
            merged.append(PowerTerm(np.asarray(t.coeff) + theta, 0.0, Side.LEFT))
            has_const = True
        else:
            merged.append(t)
    if not has_const:
        merged.insert(0, PowerTerm(theta, 0.0, Side.LEFT))
    q = SplitFunction(p, problem.q_a, merged)

    weak = np.abs(z.T @ (gram @ coeffs - load))
    weak_residuals = np.max(weak, axis=1) if weak.shape[0] else np.zeros(0)
    bc_b = np.abs(np.atleast_1d(eval_split(q, p.b)) - problem.q_b)

    energy_sq = 0.0
    for k in range(problem.m):
        qk = _split_component_terms(q, k)
        pk = _component_terms(q.phi, k)
        energy_sq += float(np.sum(terms_product_integral(qk, qk, p.a, p.b)))
        energy_sq += float(np.sum(terms_product_integral(pk, pk, p.a, p.b)))

    proj_tol = (
        _grid_load_tol(problem.f, p.alpha) if isinstance(problem.f, GridFunction) else 0.0
    )
    return BvpSolution(
        q=q,
        coeffs=coeffs,
        energy_norm=math.sqrt(max(energy_sq, 0.0)),
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
    a, b, alpha = p.a, p.b, p.alpha
    if isinstance(q.phi, GridFunction) or isinstance(problem.f, GridFunction):
        raise ValueError("weak_form_check expects power-term data")

    out = np.zeros(len(probes))
    for idx, h in enumerate(probes):
        if np.any(h.c != 0.0):
            raise ValueError("probe must have zero singular coefficient")
        if isinstance(h.phi, GridFunction):
            raise ValueError("probe density must be power terms")
        hb = np.atleast_1d(terms_eval(frac_integral_terms(alpha, h.phi), b, a, b))
        if float(np.max(np.abs(hb))) > 1e-10 * max(1.0, p.length**alpha):
            raise ValueError("probe must vanish at t = b")
        defect = 0.0
        for k in range(problem.m):
            hk = frac_integral_terms(alpha, _component_terms(h.phi, k))
            defect += float(np.sum(terms_product_integral(_split_component_terms(q, k), hk, a, b)))
            defect -= float(np.sum(terms_product_integral(_component_terms(problem.f, k), hk, a, b)))
            defect += float(
                np.sum(
                    terms_product_integral(
                        _component_terms(q.phi, k), _component_terms(h.phi, k), a, b
                    )
                )
            )
        out[idx] = defect
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
        w = np.polynomial.polynomial.Polynomial([p.b, -1.0]) ** int(round(t.exponent))
        c = float(np.asarray(t.coeff)) * np.atleast_1d(w.coef)
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
