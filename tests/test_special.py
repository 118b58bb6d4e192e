"""Gamma/Beta primitives and the exact power-term fractional calculus."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy import integrate

from fraclab.special import (
    _compose_affine,
    PowerTerm,
    Side,
    beta,
    frac_derivative_power,
    frac_derivative_terms,
    frac_integral_power,
    gamma,
    poly_to_left_terms,
    poly_to_right_terms,
    reciprocal_gamma,
    terms_eval,
    terms_integral,
    terms_product_integral,
)


class TestGamma:
    def test_integer_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        # independent high-precision reference
        assert gamma(0.5) == pytest.approx(float(mpmath.sqrt(mpmath.pi)), rel=1e-14)

    def test_against_mpmath_sweep(self):
        # the whole domain, up to where Gamma(x) nears the largest double
        xs = np.r_[1e-3, np.linspace(0.01, 171.61, 1201), 145.0, 171.62, 171.624]
        for x in xs:
            ref = float(mpmath.gamma(float(x)))
            assert gamma(float(x)) == pytest.approx(ref, rel=2e-15)

    def test_recurrence_sweep(self):
        xs = np.linspace(0.1, 40.0, 1000)
        for x in xs:
            x = float(x)
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)
        with pytest.raises(ValueError):
            gamma(172.0)

    def test_reciprocal_gamma_poles_and_reflection(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        for x in (-0.5, -1.3, -4.7, 0.25, 3.0):
            ref = float(1 / mpmath.gamma(x))
            assert reciprocal_gamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_beta(self):
        cases = [(0.5, 0.5), (1.0, 2.0), (2.5, 3.7), (0.3, 9.0)]
        # x + y in [142.37, 171.624], where the Gamma products are finite
        cases += [(100.0, 71.0), (140.0, 5.5), (0.5, 150.0), (85.8, 85.8)]
        for x, y in cases:
            ref = float(mpmath.beta(x, y))
            assert beta(x, y) == pytest.approx(ref, rel=1e-14)
        # x + y above the Gamma overflow: the log-Gamma branch
        assert beta(120.0, 80.0) == pytest.approx(float(mpmath.beta(120.0, 80.0)), rel=1e-12)

    @pytest.mark.parametrize("x, y", [(171.5, 0.1), (0.1, 171.5)])
    def test_beta_where_the_gamma_product_overflows(self, x, y):
        # Gamma(171.5) Gamma(0.1) is above the float limit, B(x, y) is not
        assert beta(x, y) == pytest.approx(float(mpmath.beta(x, y)), rel=1e-13)


class TestPowerTerm:
    def test_exponent_bound(self):
        with pytest.raises(ValueError):
            PowerTerm(1.0, -1.0)
        PowerTerm(1.0, -0.999)  # fine

    def test_eval_sides(self):
        left = PowerTerm(2.0, 1.5, Side.LEFT)
        right = PowerTerm(2.0, 1.5, Side.RIGHT)
        assert left.eval(0.5, 0.0, 1.0) == pytest.approx(2.0 * 0.5**1.5)
        assert right.eval(0.25, 0.0, 1.0) == pytest.approx(2.0 * 0.75**1.5)

    def test_singular_endpoint_rules(self):
        t = PowerTerm(1.0, -0.5, Side.LEFT)
        with pytest.raises(ValueError):
            t.eval(0.0, 0.0, 1.0)
        assert PowerTerm(3.0, 0.0, Side.LEFT).eval(0.0, 0.0, 1.0) == pytest.approx(3.0)
        assert PowerTerm(3.0, 2.0, Side.LEFT).eval(0.0, 0.0, 1.0) == 0.0


# Orders in (0, 1], and exponents kept away from the pole of Gamma(e+1) at
# e = -1, where one ulp in e moves Gamma(e+1) by a relative 1e-16/(e+1).
ORDERS = st.floats(0.0, 1.0, exclude_min=True)
EXPONENTS = st.floats(-0.9, 20.0)


def quad_frac_integral(alpha, f, t, a):
    """Defining-integral oracle: (1/Gamma(a)) int_a^t f(tau) (t-tau)^(a-1) dtau."""
    val, _ = integrate.quad(f, a, t, weight="alg", wvar=(0.0, alpha - 1.0))
    return val / math.gamma(alpha)


class TestFracIntegralPower:
    def test_constant_against_quadrature(self):
        out = frac_integral_power(0.5, PowerTerm(1.0, 0.0))
        val = out.eval(1.0, 0.0, 1.0)
        ref = quad_frac_integral(0.5, lambda x: 1.0, 1.0, 0.0)
        assert val == pytest.approx(ref, rel=1e-10)
        assert val == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_general_against_quadrature(self):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            for b_exp in (-0.4, 0.0, 1.0, 2.5):
                out = frac_integral_power(alpha, PowerTerm(1.3, b_exp))
                for t in (0.4, 1.0):
                    ref = quad_frac_integral(alpha, lambda x: 1.3 * x**b_exp, t, 0.0)
                    assert float(np.asarray(out.eval(t, 0.0, 1.0))) == pytest.approx(
                        ref, rel=1e-8
                    )

    def test_zero_coefficient(self):
        out = frac_integral_power(0.77, PowerTerm(0.0, 1.0))
        assert out.is_zero()

    @given(a=ORDERS, b=ORDERS, e=EXPONENTS)
    @example(a=0.4, b=0.3, e=-0.3)
    @example(a=0.4, b=0.3, e=0.0)
    @example(a=0.4, b=0.3, e=0.7)
    @example(a=0.4, b=0.3, e=2.0)
    def test_semigroup(self, a, b, e):
        # I^b I^a = I^(a+b)
        assume(a + b <= 1.0)
        one = frac_integral_power(b, frac_integral_power(a, PowerTerm(1.0, e)))
        two = frac_integral_power(a + b, PowerTerm(1.0, e))
        assert one.exponent == pytest.approx(two.exponent, abs=1e-14)
        assert float(np.asarray(one.coeff)) == pytest.approx(
            float(np.asarray(two.coeff)), rel=1e-13
        )

    def test_reflection_duality(self):
        # right-sided result at t equals the left-sided result at a+b-t
        a, b = -0.5, 1.5
        for alpha in (0.25, 0.6):
            for b_exp in (0.0, 1.3):
                left = frac_integral_power(alpha, PowerTerm(1.0, b_exp, Side.LEFT))
                right = frac_integral_power(alpha, PowerTerm(1.0, b_exp, Side.RIGHT))
                for t in (-0.2, 0.3, 1.1):
                    assert float(np.asarray(right.eval(t, a, b))) == pytest.approx(
                        float(np.asarray(left.eval(a + b - t, a, b))), rel=1e-12
                    )


class TestFracDerivativePower:
    def test_singular_kernel_annihilated(self):
        assert frac_derivative_power(0.5, PowerTerm(1.0, -0.5)) is None
        assert frac_derivative_power(0.31, PowerTerm(2.0, 0.31 - 1.0)) is None

    def test_linear_against_finite_difference(self):
        # derivative of I^(1-a) t, differenced numerically from quadrature
        alpha = 0.5
        out = frac_derivative_power(alpha, PowerTerm(1.0, 1.0))
        eps = 1e-6
        for t in (0.3, 0.8):
            hi = quad_frac_integral(1 - alpha, lambda x: x, t + eps, 0.0)
            lo = quad_frac_integral(1 - alpha, lambda x: x, t - eps, 0.0)
            ref = (hi - lo) / (2 * eps)
            assert float(np.asarray(out.eval(t, 0.0, 1.0))) == pytest.approx(ref, rel=1e-7)
        assert float(np.asarray(out.coeff)) == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_exponent_half_maps_to_constant(self):
        out = frac_derivative_power(0.5, PowerTerm(1.0, 0.5))
        assert out.exponent == pytest.approx(0.0, abs=1e-14)
        assert float(np.asarray(out.coeff)) == pytest.approx(0.8862269254527580, rel=1e-12)

    @given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), e=EXPONENTS)
    @example(alpha=0.2, e=-0.4)
    @example(alpha=0.5, e=0.0)
    @example(alpha=0.9, e=1.0)
    @example(alpha=0.5, e=3.0)
    def test_derivative_inverts_integral(self, alpha, e):
        # D^a I^a = id
        back = frac_derivative_power(alpha, frac_integral_power(alpha, PowerTerm(1.7, e)))
        assert back is not None
        assert back.exponent == pytest.approx(e, abs=1e-12)
        assert float(np.asarray(back.coeff)) == pytest.approx(1.7, rel=1e-13)


class TestTermAlgebra:
    def test_terms_integral(self):
        terms = poly_to_left_terms([1.0, 2.0, 3.0], 0.0)  # 1 + 2t + 3t^2
        assert float(np.asarray(terms_integral(terms, 0.0, 1.0))) == pytest.approx(3.0)

    def test_poly_conversions_agree(self):
        coeffs = [0.3, -1.2, 0.0, 2.0]
        a, b = -1.0, 2.0
        left = poly_to_left_terms(coeffs, a)
        right = poly_to_right_terms(coeffs, b)
        for t in np.linspace(a, b, 7):
            direct = float(np.polynomial.polynomial.polyval(t, coeffs))
            assert float(np.asarray(terms_eval(left, float(t), a, b))) == pytest.approx(
                direct, rel=1e-12, abs=1e-12
            )
            assert float(np.asarray(terms_eval(right, float(t), a, b))) == pytest.approx(
                direct, rel=1e-12, abs=1e-12
            )

    def test_cross_product_integral_against_quadrature(self):
        a, b = 0.0, 2.0
        t1 = PowerTerm(1.5, -0.4, Side.LEFT)
        t2 = PowerTerm(0.7, -0.25, Side.RIGHT)
        got = float(np.asarray(terms_product_integral([t1], [t2], a, b)))
        ref, _ = integrate.quad(
            lambda x: 1.0, a, b, weight="alg", wvar=(-0.4, -0.25)
        )
        assert got == pytest.approx(1.5 * 0.7 * ref, rel=1e-10)

    def test_same_side_nonintegrable_rejected(self):
        t1 = PowerTerm(1.0, -0.6, Side.LEFT)
        with pytest.raises(ValueError):
            terms_product_integral([t1], [t1], 0.0, 1.0)

    def test_derivative_terms_drop_zero(self):
        terms = [PowerTerm(1.0, 0.5 - 1.0), PowerTerm(2.0, 1.0)]
        out = frac_derivative_terms(0.5, terms)
        assert len(out) == 1
        assert out[0].exponent == pytest.approx(0.5)

    @given(
        coeffs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=14),
        shift=st.floats(-1e3, 1e3),
        scale=st.sampled_from([1.0, -1.0]) | st.floats(-1e3, 1e3),
    )
    def test_compose_affine_matches_polynomial_objects(self, coeffs, shift, scale):
        # Reference: numpy's Polynomial composition, which trims trailing zeros.
        poly = np.polynomial.polynomial.Polynomial
        ref = np.atleast_1d(poly(np.asarray(coeffs))(poly([shift, scale])).coef)
        got = _compose_affine(coeffs, shift, scale)
        np.testing.assert_array_equal(got[: ref.size], ref)
        assert not np.any(got[ref.size :])

    def test_vector_coefficients(self):
        term = PowerTerm(np.array([1.0, -2.0]), 1.0)
        out = frac_integral_power(0.5, term)
        val = out.eval(1.0, 0.0, 1.0)
        assert val.shape == (2,)
        assert val[0] == pytest.approx(-val[1] / 2.0)
