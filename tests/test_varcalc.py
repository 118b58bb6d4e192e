"""Growth classes, Bolza values, first variations, EL residuals, and probes."""

import math

import numpy as np
import pytest

from fraclab.core import FracParams, SplitFunction, eval_split
from fraclab.special import (
    PowerTerm,
    Side,
    frac_integral_terms,
    gamma,
    poly_to_left_terms,
    terms_eval,
    terms_product_integral,
)
from fraclab.varcalc import (
    GrowthCertificate,
    LagrangianSpec,
    QPTerm,
    QuasiPolynomial,
    bolza_value,
    boundary_test_functions,
    check_dominations,
    constant_growth_certificate,
    el_report,
    first_variation,
    graded_mesh,
    poly_lagrangian,
    power_lagrangian,
    quadratic_lagrangian,
    validate_growth,
)


def params(alpha=0.6, p=2.0, a=0.0, b=1.0):
    return FracParams(alpha, p, a, b)


class TestValidateGrowth:
    def test_quadratic_admissible(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        assert validate_growth(spec.certificate, params(0.6, 2.0)) == []

    def test_constant_always_admissible(self):
        p0 = QuasiPolynomial((QPTerm((1.0,)),), 1.0)
        assert p0.violations(0.1, 1.0) == []
        p_inf = QuasiPolynomial((QPTerm((1.0,)),), math.inf)
        assert p_inf.violations(0.9, math.inf) == []

    def test_direct_inequality_violation(self):
        # s1=2, s2=0, alpha=0.6, target M=2: (1-alpha)*2 = 0.8 >= 1/2
        qp = QuasiPolynomial((QPTerm((1.0,), s1=2.0),), 2.0)
        v = qp.violations(0.6, 2.0, "P1")
        assert len(v) == 1
        assert "(1-alpha)*s1 + s2/p < 1/M" in v[0]

    def test_power_sweep_matches_sharp_condition(self):
        for r in (1.5, 2.0, 3.0):
            for alpha in (0.4, 0.6, 0.8):
                for p in (2.0, 4.0, math.inf):
                    spec = power_lagrangian(r, alpha, p)
                    ok = validate_growth(spec.certificate, params(alpha, p)) == []
                    expected = (alpha > 1.0 - 1.0 / r) and (p >= r)
                    assert ok == expected, (r, alpha, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_boundary_r_equals_p_is_admissible(self, p):
        # s2/p = 1/p' holds with equality; the rounding of 1/p and of
        # p' = p/(p-1) must not reject it, nor admit a term just past it.
        spec = power_lagrangian(p, 0.8, p)
        assert validate_growth(spec.certificate, params(0.8, p)) == []
        p_conj = p / (p - 1.0)
        at = QuasiPolynomial((QPTerm((1.0,), s2=p - 1.0),), p_conj)
        assert at.violations(0.8, p) == []
        past = QuasiPolynomial((QPTerm((1.0,), s2=(p - 1.0) * (1.0 + 1e-9)),), p_conj)
        assert len(past.violations(0.8, p)) == 1

    def test_violations_name_the_inequality(self):
        spec = power_lagrangian(3.0, 0.6, 2.0)  # p < r and alpha <= 1/r'
        v = validate_growth(spec.certificate, params(0.6, 2.0))
        assert any("s2/p <= 1/M" in msg for msg in v)

    def test_m_infinity_row(self):
        # target M = inf with finite p admits only t-dependent terms
        qp = QuasiPolynomial((QPTerm((1.0,), s2=0.5),), math.inf)
        assert qp.violations(0.9, 2.0) != []
        qp_t_only = QuasiPolynomial((QPTerm((2.0, 1.0)),), math.inf)
        assert qp_t_only.violations(0.9, 2.0) == []

    def test_dominations_spot_check(self):
        spec = quadratic_lagrangian(0.7, 2.0)
        assert check_dominations(spec, params(0.7, 2.0)) == []
        # a certificate that is too small gets caught
        bad = LagrangianSpec(
            spec.L, spec.L_x, spec.L_v,
            GrowthCertificate(
                QuasiPolynomial((QPTerm((0.01,), s1=2.0), QPTerm((0.01,), s2=2.0)), 1.0),
                spec.certificate.s, spec.certificate.P1, spec.certificate.P2,
            ),
        )
        assert check_dominations(bad, params(0.7, 2.0)) != []

    def test_gradient_consistency_finite_differences(self):
        rng = np.random.default_rng(2)
        for spec in (quadratic_lagrangian(0.7, 2.0), power_lagrangian(3.0, 0.8, 4.0),
                     poly_lagrangian([(1, 2, 0, 0.5), (0, 1, 2, -0.3)], 0.7, 2.0, 0.0, 1.0)):
            for _ in range(25):
                t = float(rng.uniform(0.0, 1.0))
                x = rng.uniform(-2.0, 2.0, size=1)
                v = rng.uniform(-2.0, 2.0, size=1)
                eps = 1e-6
                fd_x = (spec.L(t, x + eps, v) - spec.L(t, x - eps, v)) / (2 * eps)
                fd_v = (spec.L(t, x, v + eps) - spec.L(t, x, v - eps)) / (2 * eps)
                assert float(spec.L_x(t, x, v)[0]) == pytest.approx(fd_x, rel=1e-6, abs=1e-7)
                assert float(spec.L_v(t, x, v)[0]) == pytest.approx(fd_v, rel=1e-6, abs=1e-7)


class TestBolza:
    def test_zero(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        q = SplitFunction(params(), [0.0], [])
        assert bolza_value(spec, q) == 0.0

    def test_density_term_only(self):
        # L = |v|^2 via monomials; q = (c=0, phi=1): integral of 1
        spec = poly_lagrangian([(0, 0, 2, 1.0)], 0.6, 2.0, 0.0, 1.0)
        q = SplitFunction(params(), [0.0], [PowerTerm(1.0, 0.0)])
        assert bolza_value(spec, q) == pytest.approx(1.0, rel=1e-12)

    def test_state_term_against_closed_form(self):
        # L = |x|^2, q = I^(1/2) 1 = 2 sqrt(t/pi): integral = 2/pi.
        # The growth gate rejects |x|^2 at alpha = 1/2, so the caller
        # asserts integrability explicitly.
        spec = poly_lagrangian([(0, 2, 0, 1.0)], 0.5, 4.0, 0.0, 1.0)
        q = SplitFunction(params(0.5, 4.0), [0.0], [PowerTerm(1.0, 0.0)])
        with pytest.raises(ValueError):
            bolza_value(spec, q)
        got = bolza_value(spec, q, validate=False)
        assert got == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_terminal_cost(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        spec = LagrangianSpec(
            spec.L, spec.L_x, spec.L_v, spec.certificate,
            l=lambda x1, x2: float(3.0 * x1[0] + 2.0 * x2[0]),
            l_x1=lambda x1, x2: np.array([3.0]),
            l_x2=lambda x1, x2: np.array([2.0]),
        )
        p = params()
        q = SplitFunction(p, [0.5], [])
        qb = float(eval_split(q, 1.0)[0])
        got = bolza_value(spec, q, quad_n=512, validate=False)  # singular q
        # int (1/2)(q^2 + 0) + 3*0.5 + 2*q(b); q^2 = c^2 t^(2a-2)/Gamma(a)^2
        sing = PowerTerm(0.5 / gamma(0.6), -0.4)
        ref = 0.5 * float(np.sum(terms_product_integral([sing], [sing], 0.0, 1.0)))
        ref += 3.0 * 0.5 + 2.0 * qb
        assert got == pytest.approx(ref, rel=2e-6)

    def test_nonfinite_reports_node(self):
        spec = LagrangianSpec(
            lambda t, x, v: float("nan"),
            lambda t, x, v: np.zeros(1),
            lambda t, x, v: np.zeros(1),
            quadratic_lagrangian(0.6, 2.0).certificate,
        )
        q = SplitFunction(params(), [0.0], [])
        with pytest.raises(ValueError, match="not finite"):
            bolza_value(spec, q)

    def test_graded_mesh_shape(self):
        mesh = graded_mesh(0.0, 1.0, 10, 0.5)
        assert mesh[0] == 0.0 and mesh[-1] == 1.0
        assert np.all(np.diff(mesh) > 0.0)
        # clustering toward a
        assert mesh[1] < 1.0 / 10.0

    def test_quasipolynomial_integral_stability(self):
        # admissible P evaluated along random split functions: graded-mesh
        # integral finite and stable under mesh doubling
        rng = np.random.default_rng(8)
        p = params(0.6, 2.0)
        P = QuasiPolynomial((QPTerm((1.0,), s1=1.0), QPTerm((0.5,), s2=1.0)), 1.0)
        assert P.violations(p.alpha, p.p) == []
        from fraclab.varcalc import _graded_rule

        for _ in range(200):
            c = rng.uniform(-1.0, 1.0)
            phi = poly_to_left_terms(rng.uniform(-1.0, 1.0, size=3), 0.0)
            q = SplitFunction(p, [c], phi)

            def integral(n):
                pts, wts = _graded_rule(0.0, 1.0, n, p.alpha)
                total = 0.0
                for t, w in zip(pts, wts):
                    x = eval_split(q, float(t))
                    v = np.atleast_1d(terms_eval(phi, float(t), 0.0, 1.0))
                    total += w * P.eval(float(t), float(np.linalg.norm(x)),
                                        float(np.linalg.norm(v)))
                return total

            i1, i2 = integral(128), integral(256)
            assert math.isfinite(i1) and math.isfinite(i2)
            assert abs(i2 - i1) <= 1e-3 * max(1.0, abs(i2))


class TestFirstVariation:
    def test_zero_point(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        q = SplitFunction(params(), [0.0], [])
        h = SplitFunction(params(), [1.0], [PowerTerm(2.0, 1.0)])
        assert first_variation(spec, q, h) == 0.0

    def test_against_central_difference_quadratic(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        p = params()
        q = SplitFunction(p, [0.0], poly_to_left_terms([0.3, -0.2, 1.1], 0.0))
        h = SplitFunction(p, [0.0], poly_to_left_terms([0.5, 0.7], 0.0))
        fv = first_variation(spec, q, h)
        lam = 1e-5

        def shifted(s):
            return SplitFunction(
                p, [0.0], poly_to_left_terms([0.3 + s * 0.5, -0.2 + s * 0.7, 1.1], 0.0)
            )

        cd = (bolza_value(spec, shifted(lam)) - bolza_value(spec, shifted(-lam))) / (2 * lam)
        assert fv == pytest.approx(cd, rel=1e-6)

    def test_linear_in_h(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        p = params()
        q = SplitFunction(p, [0.0], poly_to_left_terms([1.0, 0.5], 0.0))
        h1 = SplitFunction(p, [0.0], poly_to_left_terms([0.2, -1.0], 0.0))
        h2 = SplitFunction(p, [1.0], [PowerTerm(0.3, 0.0)])
        h_comb = SplitFunction(
            p,
            [2.0 * 0.0 + 3.0 * 1.0],
            poly_to_left_terms([2.0 * 0.2 + 3.0 * 0.3, 2.0 * -1.0], 0.0),
        )
        lhs = first_variation(spec, q, h_comb)
        rhs = 2.0 * first_variation(spec, q, h1) + 3.0 * first_variation(spec, q, h2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_terminal_gradient_reads_split_form(self):
        # h = singular-only: the l part contributes exactly l_x1 . h.c
        spec0 = quadratic_lagrangian(0.6, 2.0)
        w = 4.25
        spec = LagrangianSpec(
            spec0.L, spec0.L_x, spec0.L_v, spec0.certificate,
            l=lambda x1, x2: w * float(x1[0]),
            l_x1=lambda x1, x2: np.array([w]),
        )
        p = params()
        q = SplitFunction(p, [0.0], [])
        h = SplitFunction(p, [1.0], [])
        assert first_variation(spec, q, h) == pytest.approx(w, rel=1e-12)


class TestElReport:
    def test_zero_critical_point(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        rep = el_report(spec, SplitFunction(params(), [0.0], []), quad_n=64)
        assert np.max(np.abs(rep.el_residual.values)) <= 1e-12
        assert np.max(np.abs(rep.bc_a_residual)) <= 1e-12
        assert np.max(np.abs(rep.bc_b_residual)) <= 1e-12
        assert rep.lambda_v.d == pytest.approx(0.0)

    def test_manufactured_lambda_v(self):
        # Choose g = I^a_right psi, set L_v := g, L_x := -psi; residual -> 0.
        p = params(0.6, 2.0)
        psi = [PowerTerm(1.0, 0.0, Side.RIGHT), PowerTerm(0.5, 2.0, Side.RIGHT)]
        g_terms = frac_integral_terms(p.alpha, psi)

        def L(t, x, v):
            gv = float(np.atleast_1d(terms_eval(g_terms, t, 0.0, 1.0))[0])
            pv = float(np.atleast_1d(terms_eval(psi, t, 0.0, 1.0))[0])
            return gv * float(v[0]) - pv * float(x[0])

        def L_x(t, x, v):
            return np.array([-float(np.atleast_1d(terms_eval(psi, t, 0.0, 1.0))[0])])

        def L_v(t, x, v):
            return np.array([float(np.atleast_1d(terms_eval(g_terms, t, 0.0, 1.0))[0])])

        spec = LagrangianSpec(L, L_x, L_v, constant_growth_certificate(0.6, 2.0, 3.0, 2.0, 2.0))
        q = SplitFunction(p, [0.0], poly_to_left_terms([0.1, 0.2], 0.0))
        rep = el_report(spec, q, quad_n=512)
        # interior window: derivative recovery degrades at the far endpoint
        vals = rep.el_residual.values[1 : -len(rep.el_residual.values) // 10]
        assert np.max(np.abs(vals)) <= 1e-3

    def test_not_evaluable_at_a(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        rep = el_report(spec, SplitFunction(params(), [1.0], []), quad_n=64, validate=False)
        assert rep.bc_a_residual is None
        assert not rep.el_residual.left_endpoint_finite

    def test_bc_b_reports_terminal_gradient(self):
        spec0 = quadratic_lagrangian(0.6, 2.0)
        spec = LagrangianSpec(
            spec0.L, spec0.L_x, spec0.L_v, spec0.certificate,
            l=lambda x1, x2: 2.0 * float(x2[0]),
            l_x2=lambda x1, x2: np.array([2.0]),
        )
        rep = el_report(spec, SplitFunction(params(), [0.0], []), quad_n=64)
        # bounded L_v has zero right-boundary coefficient: residual = |l_x2|
        assert float(rep.bc_b_residual[0]) == pytest.approx(2.0)


class TestBoundaryProbes:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 0.9])
    def test_probe_identities(self, alpha):
        p = FracParams(alpha, 4.0, 0.0, 1.0)
        h_b, h_a = boundary_test_functions(p)
        length = 1.0
        assert float(h_b.c[0]) == 0.0
        assert float(eval_split(h_b, 1.0)[0]) == pytest.approx(
            length**alpha / gamma(alpha + 1.0), rel=1e-10
        )
        assert float(h_a.c[0]) == 1.0
        assert abs(float(eval_split(h_a, 1.0)[0])) <= 1e-10

    def test_theta_value(self):
        p = FracParams(0.5, 4.0, 0.0, 1.0)
        _, h_a = boundary_test_functions(p)
        assert float(np.asarray(h_a.phi[0].coeff)) == pytest.approx(-0.5, rel=1e-12)

    def test_probes_on_shifted_interval(self):
        p = FracParams(0.65, 4.0, -1.0, 3.0)
        h_b, h_a = boundary_test_functions(p)
        assert float(eval_split(h_b, 3.0)[0]) == pytest.approx(
            4.0**0.65 / gamma(1.65), rel=1e-10
        )
        assert abs(float(eval_split(h_a, 3.0)[0])) <= 1e-12


class TestCriticalPointEquivalence:
    def test_small_residual_implies_small_variation(self):
        # L shifted so a chosen q is critical; then first_variation ~ 0 for
        # the boundary probes and random admissible directions.
        p = params(0.6, 2.0)
        phi = poly_to_left_terms([0.4, -0.3, 0.8], 0.0)
        q = SplitFunction(p, [0.0], phi)

        def qv(t):
            return eval_split(q, t)

        def dv(t):
            return np.atleast_1d(terms_eval(phi, t, 0.0, 1.0)).astype(float)

        spec = LagrangianSpec(
            lambda t, x, v: 0.5 * float(x @ x + v @ v) - float(qv(t) @ x) - float(dv(t) @ v),
            lambda t, x, v: np.asarray(x, dtype=float) - qv(t),
            lambda t, x, v: np.asarray(v, dtype=float) - dv(t),
            constant_growth_certificate(0.6, 2.0, 10.0, 5.0, 5.0),
        )
        rep = el_report(spec, q, quad_n=256)
        interior = rep.el_residual.values[1:-25]
        eps = max(float(np.max(np.abs(interior))), float(np.max(np.abs(rep.bc_b_residual))))
        assert eps <= 1e-2

        h_b, h_a = boundary_test_functions(p)
        rng = np.random.default_rng(21)
        probes = [h_b, h_a]
        for _ in range(20):
            r = rng.uniform(-1.0, 1.0, size=3)
            base = poly_to_left_terms(r, 0.0)
            shift = float(
                np.atleast_1d(
                    terms_eval(frac_integral_terms(p.alpha, base), 1.0, 0.0, 1.0)
                )[0]
            ) * gamma(p.alpha + 1.0)
            terms = base + [PowerTerm(-shift, 0.0)]
            probes.append(SplitFunction(p, [0.0], terms))
        for h in probes:
            hnorm = 1.0 + abs(float(h.c[0]))
            assert abs(first_variation(spec, q, h)) <= 50.0 * max(eps, 1e-6) * hnorm

    def test_quadratic_zero_solution_is_critical(self):
        spec = quadratic_lagrangian(0.6, 2.0)
        p = params()
        q = SplitFunction(p, [0.0], [])
        h_b, h_a = boundary_test_functions(p)
        assert first_variation(spec, q, h_b) == 0.0
        assert first_variation(spec, q, h_a) == 0.0
