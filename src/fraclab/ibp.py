"""Both sides of the fractional integration-by-parts identity with boundary terms.

For q1 with a left-sided derivative in L^p and q2 with a right-sided
derivative in L^r (both exponents in the continuity regime), the identity

    int D^a_left q1 . q2  =  int q1 . D^a_right q2
                             + q1(b) . (I^(1-a)_right q2)(b)
                             - (I^(1-a)_left q1)(a) . q2(a)

holds; :func:`ibp_report` evaluates all four quantities and the defect.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from .core import (
    Grid,
    GridFunction,
    RegimeError,
    SplitFunction,
    _density_bounded,
    _power_terms,
    build_weight_operator,
    eval_split,
)
from .special import Side, terms_product_integral

__all__ = ["IbpReport", "ibp_report"]


@dataclass(frozen=True)
class IbpReport:
    """The four quantities of the identity and the signed defect.

    defect = lhs - rhs_integral - boundary_b + boundary_a, so a valid pair
    yields |defect| below the reported quadrature tolerance.
    """

    lhs: float
    rhs_integral: float
    boundary_b: float
    boundary_a: float
    defect: float
    quad_tol: float

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_integral": self.rhs_integral,
            "boundary_b": self.boundary_b,
            "boundary_a": self.boundary_a,
            "defect": self.defect,
            "quad_tol": self.quad_tol,
        }


def _check_regime(q1: SplitFunction, q2: SplitFunction) -> None:
    if (q1.side, q2.side) != (Side.LEFT, Side.RIGHT):
        raise ValueError(f"ibp_report needs a left q1 and a right q2, got {q1.side} and {q2.side}")
    p1, p2 = q1.params, q2.params
    if (p1.a, p1.b) != (p2.a, p2.b) or p1.alpha != p2.alpha:
        raise ValueError("q1 and q2 must share the interval and the order alpha")
    if q1.m != q2.m:
        raise ValueError("q1 and q2 must have the same vector dimension")
    for p in (p1, p2):
        if not p.is_continuity_regime():
            raise RegimeError(
                f"integration by parts needs 1/p < alpha; got p={p.p}, alpha={p.alpha}"
            )


def _boundary_terms(q1: SplitFunction, q2: SplitFunction) -> tuple[float, float]:
    b, a = q1.params.b, q1.params.a
    boundary_b = float(eval_split(q1, b) @ q2.c)
    boundary_a = float(q1.c @ eval_split(q2, a))
    return boundary_b, boundary_a


def _report(lhs, rhs, boundary_b, boundary_a, tol_scale) -> IbpReport:
    defect = lhs - rhs - boundary_b + boundary_a
    scale = max(abs(lhs), abs(rhs), abs(boundary_b), abs(boundary_a), 1.0)
    return IbpReport(lhs, rhs, boundary_b, boundary_a, defect, tol_scale * scale)


def _closed_form(q1: SplitFunction, q2: SplitFunction) -> IbpReport:
    # q1 = c kernel + I^a phi as left-sided terms, q2 mirrored on the right.
    a, b = q1.params.a, q1.params.b
    lhs = float(np.sum(terms_product_integral(q1.phi, _power_terms(q2), a, b)))
    rhs = float(np.sum(terms_product_integral(_power_terms(q1), q2.phi, a, b)))
    boundary_b, boundary_a = _boundary_terms(q1, q2)
    return _report(lhs, rhs, boundary_b, boundary_a, 1e-12)


def _grid_path(q1: SplitFunction, q2: SplitFunction, quad_n: int) -> IbpReport:
    p = q1.params
    a, b, alpha = p.a, p.b, p.alpha
    grids = [q.phi.grid for q in (q1, q2) if isinstance(q.phi, GridFunction)]
    grid = grids[0] if grids else Grid(a, b, quad_n)
    if any(g.n != grid.n for g in grids):
        raise ValueError("grid densities of q1 and q2 must share the same grid")

    if not (_density_bounded(q1.phi) and _density_bounded(q2.phi)):
        raise RegimeError(
            "grid-path densities must be bounded at their endpoints; use the "
            "closed-form path for singular power densities"
        )
    phi = q1._density_values(grid.nodes)
    psi = q2._density_values(grid.nodes)

    w = build_weight_operator(alpha, grid)
    i_phi = w.apply(phi)  # I^a_left phi at the nodes
    i_psi = w.apply(psi[::-1])[::-1]  # I^a_right psi at the nodes

    h = grid.h

    def trapz_dot(u: np.ndarray, v: np.ndarray) -> float:
        prod = np.sum(u * v, axis=1)
        return float(h * (np.sum(prod) - 0.5 * (prod[0] + prod[-1])))

    # int phi . (d kernel) = d . (I^a_left phi)(b); mirrored for the c kernel.
    lhs = trapz_dot(phi, i_psi) + float(i_phi[-1] @ q2.c)
    rhs = trapz_dot(i_phi, psi) + float(i_psi[0] @ q1.c)
    boundary_b, boundary_a = _boundary_terms(q1, q2)
    return _report(lhs, rhs, boundary_b, boundary_a, 10.0 * h ** (1.0 + alpha))


def ibp_report(q1: SplitFunction, q2: SplitFunction, quad_n: int = 512) -> IbpReport:
    """Evaluate the integration-by-parts identity for the pair (q1, q2).

    Power-term densities take the exact Beta-function path (defect at
    rounding level); grid densities take product quadrature with the
    tolerance reported in the result.
    """
    _check_regime(q1, q2)
    if not isinstance(q1.phi, GridFunction) and not isinstance(q2.phi, GridFunction):
        return _closed_form(q1, q2)
    return _grid_path(q1, q2, quad_n)
