"""Integration-by-parts identity with boundary terms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclab.core import (
    FracParams,
    Grid,
    GridFunction,
    RegimeError,
    RightSplitFunction,
    SplitFunction,
)
from fraclab.ibp import ibp_report
from fraclab.special import (
    PowerTerm,
    Side,
    frac_integral_terms,
    gamma,
    poly_to_left_terms,
    poly_to_right_terms,
    terms_product_integral,
)


def params(alpha=0.6, p=4.0, a=0.0, b=1.0):
    return FracParams(alpha, p, a, b)


def random_pair(rng, alpha, a=0.0, b=1.0, deg=3):
    p = FracParams(alpha, 4.0, a, b)
    c = rng.uniform(-1.0, 1.0)
    d = rng.uniform(-1.0, 1.0)
    phi = poly_to_left_terms(rng.uniform(-1.0, 1.0, size=deg + 1), a)
    psi = poly_to_right_terms(rng.uniform(-1.0, 1.0, size=deg + 1), b)
    q1 = SplitFunction(p, [c], phi)
    q2 = RightSplitFunction(p, [d], psi)
    return q1, q2


class TestIbpClosedForm:
    def test_zero_pair(self):
        q1 = SplitFunction(params(), [0.0], [])
        q2 = RightSplitFunction(params(), [0.0], [])
        rep = ibp_report(q1, q2)
        assert rep.lhs == rep.rhs_integral == rep.boundary_b == rep.boundary_a == 0.0
        assert rep.defect == 0.0

    def test_worked_example(self):
        # q1 = (c=0, phi=1), q2 = (d=1, psi=0), alpha=0.6 on [0,1]:
        # lhs = boundary_b = 1/Gamma(1.6), rhs and boundary_a vanish.
        p = params(alpha=0.6)
        q1 = SplitFunction(p, [0.0], [PowerTerm(1.0, 0.0)])
        q2 = RightSplitFunction(p, [1.0], [])
        rep = ibp_report(q1, q2)
        ref = 1.0 / gamma(1.6)
        assert rep.lhs == pytest.approx(ref, rel=1e-10)
        assert rep.boundary_b == pytest.approx(ref, rel=1e-10)
        assert rep.rhs_integral == 0.0
        assert rep.boundary_a == 0.0
        assert abs(rep.defect) <= 1e-10

    def test_random_cubics(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            alpha = rng.uniform(0.3, 0.95)
            q1, q2 = random_pair(rng, alpha)
            rep = ibp_report(q1, q2)
            assert abs(rep.defect) / max(abs(rep.lhs), 1.0) <= 1e-9

    def test_defect_sign_convention(self):
        rng = np.random.default_rng(5)
        q1, q2 = random_pair(rng, 0.75)
        rep = ibp_report(q1, q2)
        assert rep.defect == pytest.approx(
            rep.lhs - rep.rhs_integral - rep.boundary_b + rep.boundary_a, abs=0.0
        )

    def test_regime_violation_is_hard_error(self):
        p_bad = FracParams(0.5, 2.0, 0.0, 1.0)  # 1/p = alpha
        q1 = SplitFunction(p_bad, [0.0], [])
        q2 = RightSplitFunction(p_bad, [0.0], [])
        with pytest.raises(RegimeError):
            ibp_report(q1, q2)

    @pytest.mark.parametrize("sides", ["right-left", "left-left", "right-right"])
    def test_pair_must_be_left_then_right(self, sides):
        make = {"left": SplitFunction, "right": RightSplitFunction}
        q1, q2 = (make[s](params(), [1.0], []) for s in sides.split("-"))
        with pytest.raises(ValueError, match="left q1 and a right q2"):
            ibp_report(q1, q2)

    def test_mismatched_intervals_rejected(self):
        q1 = SplitFunction(params(), [0.0], [])
        q2 = RightSplitFunction(params(b=2.0), [0.0], [])
        with pytest.raises(ValueError):
            ibp_report(q1, q2)

    def test_duality_two_expansions(self):
        # int (I^a phi) . psi computed left-expanded vs right-expanded
        a, b = 0.0, 1.0
        rng = np.random.default_rng(9)
        for alpha in (0.4, 0.75):
            phi = poly_to_left_terms(rng.uniform(-1, 1, size=4), a)
            psi_t = rng.uniform(-1, 1, size=4)
            psiR = poly_to_right_terms(psi_t, b)
            psiL = poly_to_left_terms(psi_t, a)
            left_way = float(np.sum(terms_product_integral(
                frac_integral_terms(alpha, phi), psiL, a, b)))
            right_way = float(np.sum(terms_product_integral(
                frac_integral_terms(alpha, phi), psiR, a, b)))
            assert left_way == pytest.approx(right_way, rel=1e-10)

    def test_vector_case(self):
        p = params(alpha=0.7)
        q1 = SplitFunction(p, [0.5, -0.25], [PowerTerm(np.array([1.0, 2.0]), 1.0)])
        q2 = RightSplitFunction(p, [1.0, 0.5], [PowerTerm(np.array([0.3, -1.0]), 0.0, Side.RIGHT)])
        rep = ibp_report(q1, q2)
        assert abs(rep.defect) <= 1e-12 * max(abs(rep.lhs), 1.0)


class TestIbpGridPath:
    def test_matches_closed_form(self):
        p = params(alpha=0.65)
        phi_t = [0.5, 1.0]
        psi_t = [1.0, -0.5]
        q1c = SplitFunction(p, [0.4], poly_to_left_terms(phi_t, 0.0))
        psiR = poly_to_right_terms(psi_t, 1.0)
        q2c = RightSplitFunction(p, [0.8], psiR)
        ref = ibp_report(q1c, q2c)

        n = 512
        g = Grid(0.0, 1.0, n)
        phi_vals = np.polynomial.polynomial.polyval(g.nodes, phi_t)[:, None]
        psi_vals = np.polynomial.polynomial.polyval(g.nodes, psi_t)[:, None]
        q1g = SplitFunction(p, [0.4], GridFunction(g, phi_vals))
        q2g = RightSplitFunction(p, [0.8], GridFunction(g, psi_vals))
        rep = ibp_report(q1g, q2g)
        assert rep.lhs == pytest.approx(ref.lhs, abs=rep.quad_tol)
        assert rep.rhs_integral == pytest.approx(ref.rhs_integral, abs=rep.quad_tol)
        assert abs(rep.defect) <= rep.quad_tol

    def test_classical_limit(self):
        # alpha -> 1 with c = d = 0 approaches the classical formula
        p = FracParams(0.999, 4.0, 0.0, 1.0)
        phi_t = [1.0, 1.0]  # q1 ~ I^1 phi
        psi_t = [2.0, -1.0]
        q1 = SplitFunction(p, [0.0], poly_to_left_terms(phi_t, 0.0))
        psiR = poly_to_right_terms(psi_t, 1.0)
        q2 = RightSplitFunction(p, [0.0], psiR)
        rep = ibp_report(q1, q2)

        # classical: int q1' q2 = [q1 q2]_a^b - int q1 q2' with q1 = int phi, q2 = -int psi
        q1_cl = np.polynomial.polynomial.polyint(phi_t)
        q2_cl = np.polynomial.polynomial.polyint(psi_t)  # antiderivative from 0

        def q1f(t):
            return np.polynomial.polynomial.polyval(t, q1_cl)

        def q2f(t):
            full = np.polynomial.polynomial.polyval(1.0, q2_cl)
            return full - np.polynomial.polynomial.polyval(t, q2_cl)  # int_t^1 psi

        from scipy import integrate

        classical_lhs, _ = integrate.quad(
            lambda t: np.polynomial.polynomial.polyval(t, phi_t) * q2f(t), 0.0, 1.0
        )
        assert rep.lhs == pytest.approx(classical_lhs, abs=1e-2)
        classical_rhs, _ = integrate.quad(
            lambda t: q1f(t) * np.polynomial.polynomial.polyval(t, psi_t), 0.0, 1.0
        )
        # rhs_integral = int q1 . psi where psi = -q2' classically
        assert rep.rhs_integral == pytest.approx(classical_rhs, abs=1e-2)
        assert abs(rep.defect) <= 1e-12 * max(1.0, abs(rep.lhs))


@st.composite
def closed_form_pairs(draw):
    """A left q1 and a right q2 on a shared interval, each with a kernel
    coefficient and 0-3 density power terms of exponent above -alpha."""
    alpha = draw(st.floats(0.05, 0.99))
    a = draw(st.floats(-10.0, 10.0))
    p = FracParams(alpha, math.inf, a, a + draw(st.floats(0.01, 10.0)))
    coeff = st.floats(-10.0, 10.0)
    exponent = st.floats(-alpha, 6.0, exclude_min=True)

    def terms(side):
        return draw(st.lists(st.builds(PowerTerm, coeff, exponent, st.just(side)), max_size=3))

    q1 = SplitFunction(p, [draw(coeff)], terms(Side.LEFT))
    q2 = RightSplitFunction(p, [draw(coeff)], terms(Side.RIGHT))
    return q1, q2


class TestIbpClosedFormProperty:
    @settings(max_examples=300, deadline=None)
    @given(pair=closed_form_pairs())
    def test_defect_at_rounding_level(self, pair):
        rep = ibp_report(*pair)
        assert abs(rep.defect) <= rep.quad_tol, rep
