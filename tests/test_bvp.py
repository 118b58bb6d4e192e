"""Galerkin solver for the linear fractional boundary value problem."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fraclab.bvp import (
    _gauss_jacobi,
    BvpProblem,
    assemble_system,
    feasible_element,
    manufactured_problem,
    shifted_legendre_terms,
    solve_bvp,
    weak_form_check,
)
from fraclab.core import (
    FracParams,
    Grid,
    GridFunction,
    RegimeError,
    RightSplitFunction,
    SplitFunction,
    _power_terms,
    eval_split,
)
from fraclab.special import (
    PowerTerm,
    Side,
    frac_integral_terms,
    gamma,
    poly_to_left_terms,
    terms_eval,
    terms_product_integral,
)


def params(alpha=0.6, a=0.0, b=1.0):
    return FracParams(alpha, 2.0, a, b)


def legendre_fit(f_vals_fn, a, b, deg):
    xs = np.linspace(a, b, 400)
    return np.polynomial.legendre.Legendre.fit(xs, f_vals_fn(xs), deg, domain=[a, b]).coef


def admissible_probe(p, rng):
    """Random split probe with zero singular part and h(b) = 0."""
    base = poly_to_left_terms(rng.uniform(-1.0, 1.0, size=3), p.a)
    shift = float(
        np.atleast_1d(terms_eval(frac_integral_terms(p.alpha, base), p.b, p.a, p.b))[0]
    ) * gamma(p.alpha + 1.0) / p.length**p.alpha
    return SplitFunction(p, [0.0], base + [PowerTerm(-shift, 0.0)])


class TestProblemValidation:
    def test_alpha_gate(self):
        with pytest.raises(RegimeError):
            BvpProblem(params(alpha=0.5 - 1e-12), [], [0.0], [0.0])
        with pytest.raises(RegimeError):
            BvpProblem(FracParams(0.4, 2.0, 0.0, 1.0), [], [0.0], [0.0])

    def test_p_gate(self):
        with pytest.raises(RegimeError):
            BvpProblem(FracParams(0.7, 4.0, 0.0, 1.0), [], [0.0], [0.0])


class TestFeasibleElement:
    def test_zero_data(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        q0 = feasible_element(prob)
        assert float(np.atleast_1d(q0.phi[0].coeff)[0]) == 0.0
        assert float(eval_split(q0, 1.0)[0]) == 0.0

    def test_unit_right_value(self):
        # q_a = 0, q_b = 1: theta = Gamma(a+1)/(b-a)^a and q0(b) = 1
        p = params(alpha=0.55)
        prob = BvpProblem(p, [], [0.0], [1.0])
        q0 = feasible_element(prob)
        assert float(np.atleast_1d(q0.phi[0].coeff)[0]) == pytest.approx(
            gamma(1.55), rel=1e-12
        )
        assert float(eval_split(q0, 1.0)[0]) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_interval(self):
        p = params(alpha=0.75, a=0.0, b=2.0)
        prob = BvpProblem(p, [], [1.0], [0.0])
        q0 = feasible_element(prob)
        theta_ref = -gamma(1.75) / (gamma(0.75) * 2.0)
        assert float(np.atleast_1d(q0.phi[0].coeff)[0]) == pytest.approx(theta_ref, rel=1e-12)
        assert abs(float(eval_split(q0, 2.0)[0])) <= 1e-12
        np.testing.assert_array_equal(q0.c, [1.0])


class TestShiftedLegendre:
    def test_matches_numpy_basis(self):
        a, b = -0.5, 2.0
        for j in range(7):
            terms = shifted_legendre_terms(j, a, b)
            basis = np.polynomial.legendre.Legendre.basis(j, domain=[a, b])
            for t in np.linspace(a, b, 9):
                assert float(
                    np.atleast_1d(terms_eval(terms, float(t), a, b))[0]
                ) == pytest.approx(float(basis(t)), rel=1e-12, abs=1e-12)

    def test_orthogonality(self):
        a, b = 0.0, 1.5
        for i in range(5):
            for j in range(5):
                ti, tj = shifted_legendre_terms(i, a, b), shifted_legendre_terms(j, a, b)
                got = float(np.sum(terms_product_integral(ti, tj, a, b)))
                ref = (b - a) / (2 * i + 1) if i == j else 0.0
                # monomial cancellation grows with degree; the assembly adds
                # the mass diagonal analytically instead of relying on this
                assert got == pytest.approx(ref, abs=1e-10)

    def test_integer_coefficients_on_unit_interval(self):
        # P_j(2t - 1) = sum_k (-1)^(j+k) C(j,k) C(j+k,k) t^k
        for j in range(13):
            expected = [
                ((-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k), float(k))
                for k in range(j + 1)
            ]
            got = [(t.coeff, t.exponent) for t in shifted_legendre_terms(j, 0.0, 1.0)]
            assert got == expected


class TestAssembly:
    def test_degree_zero_forces_zero(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        gram, load, constraint = assemble_system(prob, 0)
        assert constraint[0] == pytest.approx(1.0 / gamma(1.6), rel=1e-12)
        sol = solve_bvp(prob, 0)
        assert np.all(sol.coeffs == 0.0)
        assert sol.energy_norm == 0.0

    def test_gram_spd_on_constraint_nullspace(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        gram, _, constraint = assemble_system(prob, 12)
        assert np.allclose(gram, gram.T, atol=0.0)
        q, _ = np.linalg.qr(constraint.reshape(-1, 1), mode="complete")
        z = q[:, 1:]
        eig = np.linalg.eigvalsh(z.T @ gram @ z)
        assert np.min(eig) > 0.0

    def test_gram_against_quadrature(self):
        # N=1, alpha=0.5 is outside the solver gate but the bilinear form
        # itself is checked here against nested adaptive quadrature
        p = params(alpha=0.6)
        prob = BvpProblem(p, [], [0.0], [0.0])
        gram, _, _ = assemble_system(prob, 1)
        alpha = p.alpha

        def ia_basis(j):
            terms = frac_integral_terms(alpha, shifted_legendre_terms(j, 0.0, 1.0))
            return lambda t: float(np.atleast_1d(terms_eval(terms, t, 0.0, 1.0))[0])

        def basis(j):
            terms = shifted_legendre_terms(j, 0.0, 1.0)
            return lambda t: float(np.atleast_1d(terms_eval(terms, t, 0.0, 1.0))[0])

        for i in range(2):
            for j in range(2):
                fi, fj = ia_basis(i), ia_basis(j)
                gi, gj = basis(i), basis(j)
                ref1, _ = integrate.quad(lambda t: fi(t) * fj(t), 0.0, 1.0)
                ref2, _ = integrate.quad(lambda t: gi(t) * gj(t), 0.0, 1.0)
                assert gram[i, j] == pytest.approx(ref1 + ref2, abs=1e-9)

    def test_degree_cap(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        with pytest.raises(ValueError):
            assemble_system(prob, 13)


class TestGaussJacobi:
    # (wa, wb) with wa + wb <= 0 included: a right forcing exponent of -alpha
    EXPONENTS = [(0.0, 0.0), (0.0, 1.2), (0.4, 0.6), (-0.6, 0.6), (-0.45, 0.3), (0.9, -0.5)]

    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_exact_below_degree_2n(self, n):
        wa, wb = np.array(self.EXPONENTS).T
        x, w = _gauss_jacobi(n, wa, wb)
        assert x.shape == w.shape == (len(wa), n)
        for r, (ea, eb) in enumerate(self.EXPONENTS):
            ea, eb = mp.mpf(ea), mp.mpf(eb)
            mass = 2 ** (ea + eb + 1) * mp.beta(ea + 1, eb + 1)
            for k in range(2 * n):
                # x^k = sum_i C(k, i) (-1)^(k-i) (1+x)^i and
                # int (1-x)^wa (1+x)^(wb+i) = 2^(wa+wb+i+1) B(wa+1, wb+i+1)
                with mp.workdps(40):  # the alternating sum cancels
                    ref = mp.fsum(
                        mp.binomial(k, i) * (-1) ** (k - i)
                        * 2 ** (ea + eb + i + 1) * mp.beta(ea + 1, eb + i + 1)
                        for i in range(k + 1)
                    )
                got = float(np.sum(w[r] * x[r] ** k))
                assert abs(got - float(ref)) <= 1e-14 * float(mass)


def monomial_system(problem, basis_degree):
    """The assembly from closed-form power-term products, the reference."""
    p = problem.params
    a, b, alpha = p.a, p.b, p.alpha
    basis = [shifted_legendre_terms(j, a, b) for j in range(basis_degree + 1)]
    trial = [frac_integral_terms(alpha, bj) for bj in basis]
    gram = np.array(
        [[float(np.sum(terms_product_integral(ti, tj, a, b))) for tj in trial] for ti in trial]
    )
    gram += np.diag(p.length / (2.0 * np.arange(basis_degree + 1) + 1.0))
    q0 = feasible_element(problem)
    q0_terms = [PowerTerm(q0.c / gamma(alpha), alpha - 1.0)] + frac_integral_terms(alpha, q0.phi)
    load = np.array([
        terms_product_integral(problem.f, ti, a, b)
        - terms_product_integral(q0_terms, ti, a, b)
        - terms_product_integral(q0.phi, bi, a, b)
        for ti, bi in zip(trial, basis)
    ])
    constraint = np.array([float(terms_eval(ti, b, a, b)) for ti in trial])
    return gram, load, constraint


class TestJacobiAssembly:
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-0.5, 2.0)])
    def test_matches_monomial_path(self, alpha, a, b):
        p = params(alpha=alpha, a=a, b=b)
        # m = 2, left and right terms, the kernel exponent alpha - 1 among them
        f = [
            PowerTerm(np.array([0.7, -0.2]), alpha - 1.0, Side.LEFT),
            PowerTerm(np.array([1.1, 0.4]), 1.5, Side.LEFT),
            PowerTerm(np.array([-0.3, 0.9]), 1.0 - alpha, Side.RIGHT),
            PowerTerm(0.5, 2.0, Side.RIGHT),
        ]
        prob = BvpProblem(p, f, np.array([0.3, -0.1]), np.array([0.8, 0.2]))
        for n in range(5):
            got = assemble_system(prob, n)
            for g, r in zip(got, monomial_system(prob, n)):
                # the reference itself rounds at a level that grows with b - a
                assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.75, 0.9])
    def test_degree_12_manufactured_recovery(self, alpha):
        # phi* = 1 - t^2 has Legendre degree 2: the tail coefficients vanish
        p = params(alpha=alpha)
        phi_star = [PowerTerm(2.0, 1.0, Side.RIGHT), PowerTerm(-1.0, 2.0, Side.RIGHT)]
        prob, q_star = manufactured_problem(p, phi_star, [0.3])
        sol = solve_bvp(prob, 12)
        assert np.max(np.abs(sol.coeffs[3:])) <= 1e-13
        ts = np.linspace(0.05, 1.0, 20)
        err = max(abs(float(eval_split(sol.q, t)[0] - eval_split(q_star, t)[0])) for t in ts)
        assert err <= 1e-13


class TestSolve:
    def test_zero_problem(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        sol = solve_bvp(prob, 4)
        assert sol.energy_norm <= 1e-14
        assert np.max(np.abs(sol.coeffs)) <= 1e-14

    def test_manufactured_recovery(self):
        # phi* = (b-t)(1+t) = 2(b-t) - (b-t)^2 on [0,1]
        p = params(alpha=0.6)
        phi_star = [PowerTerm(2.0, 1.0, Side.RIGHT), PowerTerm(-1.0, 2.0, Side.RIGHT)]
        prob, q_star = manufactured_problem(p, phi_star, [0.3])
        sol = solve_bvp(prob, 4)
        theta = float(np.atleast_1d(feasible_element(prob).phi[0].coeff)[0])
        fit = legendre_fit(lambda x: 1.0 - x * x, 0.0, 1.0, 4)
        expected = fit.copy()
        expected[0] -= theta
        assert np.max(np.abs(sol.coeffs[:, 0] - expected)) <= 1e-8
        assert np.max(sol.bc_defect_b) <= 1e-10
        np.testing.assert_array_equal(sol.q.c, prob.q_a)
        # strong residual of the recovered solution
        for t in (0.2, 0.7, 1.0):
            assert float(eval_split(sol.q, t)[0]) == pytest.approx(
                float(eval_split(q_star, t)[0]), abs=1e-9
            )

    def test_weak_form_check_solution_vs_feasible(self):
        p = params(alpha=0.7)
        phi_star = [PowerTerm(1.0, 1.0, Side.RIGHT), PowerTerm(0.5, 3.0, Side.RIGHT)]
        prob, q_star = manufactured_problem(p, phi_star, [0.4])
        rng = np.random.default_rng(4)
        probes = [admissible_probe(p, rng) for _ in range(10)]
        defects = weak_form_check(q_star, prob, probes)
        assert np.max(np.abs(defects)) <= 1e-8
        # the feasible element alone is not a weak solution
        defects0 = weak_form_check(feasible_element(prob), prob, probes)
        assert np.max(np.abs(defects0)) > 1e-3

    def test_weak_form_check_rejects_bad_probe(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        p = params()
        with pytest.raises(ValueError):
            weak_form_check(
                feasible_element(prob), prob, [SplitFunction(p, [1.0], [])]
            )
        with pytest.raises(ValueError):
            weak_form_check(
                feasible_element(prob), prob,
                [SplitFunction(p, [0.0], [PowerTerm(1.0, 0.0)])],
            )

    def test_weak_form_check_rejects_right_split_functions(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        right = RightSplitFunction(params(), [0.0], [PowerTerm(1.0, 1.0, Side.RIGHT)])
        with pytest.raises(ValueError, match="left split"):
            weak_form_check(feasible_element(prob), prob, [right])
        with pytest.raises(ValueError, match="left split"):
            weak_form_check(right, prob, [])

    def test_zero_probe_zero_defect(self):
        prob = BvpProblem(params(), [], [0.0], [0.0])
        defects = weak_form_check(
            feasible_element(prob), prob, [SplitFunction(params(), [0.0], [])]
        )
        assert defects[0] == 0.0

    def test_under_resolved_monotone(self):
        # phi* = cos(t) - cos(b): vanishes at b, not in any low-degree space
        p = params(alpha=0.75)
        deg = 20
        coeffs = np.zeros(deg + 1)
        for k in range(1, deg + 1):
            # cos(t) - cos(b) = cos(b)(cos(b-t) - 1) + sin(b)sin(b-t), in (b-t) powers
            if k % 2 == 0:
                coeffs[k] = math.cos(1.0) * (-1.0) ** (k // 2) / math.factorial(k)
            else:
                coeffs[k] = math.sin(1.0) * (-1.0) ** ((k - 1) // 2) / math.factorial(k)
        phi_star = [PowerTerm(c, float(k), Side.RIGHT) for k, c in enumerate(coeffs) if c != 0.0]
        prob, q_star = manufactured_problem(p, phi_star, [0.2])

        def phi_exact(t):
            return math.cos(t) - math.cos(1.0)

        errors = []
        for deg_n in (2, 4, 6, 8):
            sol = solve_bvp(prob, deg_n)
            err2, _ = integrate.quad(
                lambda t: (
                    float(np.atleast_1d(terms_eval(sol.q.phi, t, 0.0, 1.0))[0])
                    - phi_exact(t)
                )
                ** 2,
                0.0,
                1.0,
            )
            errors.append(math.sqrt(err2))
        assert all(errors[i + 1] < errors[i] for i in range(3))

    def test_energy_monotone_in_degree(self):
        p = params(alpha=0.8)
        f = poly_to_left_terms([1.0, -2.0, 0.5, 1.5, -0.25, 0.4, 0.7], 0.0)
        prob = BvpProblem(p, f, [0.5], [-0.25])

        def energy(sol, problem):
            # 1/2 a(q,q) - int f.q in closed form; q = c kernel + I^a phi
            q = sol.q
            kernel = PowerTerm(q.c / gamma(p.alpha), p.alpha - 1.0, Side.LEFT)
            qt = [kernel] + frac_integral_terms(p.alpha, q.phi)
            aqq = float(np.sum(terms_product_integral(qt, qt, p.a, p.b)))
            aqq += float(np.sum(terms_product_integral(q.phi, q.phi, p.a, p.b)))
            lin = float(np.sum(terms_product_integral(problem.f, qt, p.a, p.b)))
            return 0.5 * aqq - lin

        vals = [energy(solve_bvp(prob, n), prob) for n in (2, 4, 6, 8)]
        assert all(vals[i + 1] <= vals[i] + 1e-13 for i in range(3))

    def test_componentwise_m2(self):
        p = params(alpha=0.65)
        # two independent scalar problems packed as components
        phi1 = [PowerTerm(1.0, 1.0, Side.RIGHT)]
        phi2 = [PowerTerm(-2.0, 2.0, Side.RIGHT)]
        prob1, qs1 = manufactured_problem(p, phi1, [0.1])
        prob2, qs2 = manufactured_problem(p, phi2, [-0.2])
        f = []
        for t in prob1.f:
            f.append(PowerTerm(np.array([float(np.asarray(t.coeff)), 0.0]), t.exponent, t.side))
        for t in prob2.f:
            f.append(PowerTerm(np.array([0.0, float(np.asarray(t.coeff))]), t.exponent, t.side))
        prob = BvpProblem(
            p, f,
            np.array([0.1, -0.2]),
            np.array([float(prob1.q_b[0]), float(prob2.q_b[0])]),
        )
        sol = solve_bvp(prob, 3)
        sol1 = solve_bvp(prob1, 3)
        sol2 = solve_bvp(prob2, 3)
        assert np.max(np.abs(sol.coeffs[:, 0] - sol1.coeffs[:, 0])) <= 1e-12
        assert np.max(np.abs(sol.coeffs[:, 1] - sol2.coeffs[:, 0])) <= 1e-12

    def test_strong_residual_pointwise(self):
        # solution density in the trial space: D^a_right phi + q - f ~ 0
        p = params(alpha=0.6)
        phi_star = [PowerTerm(2.0, 1.0, Side.RIGHT), PowerTerm(-1.0, 2.0, Side.RIGHT)]
        prob, _ = manufactured_problem(p, phi_star, [0.3])
        sol = solve_bvp(prob, 4)
        # re-anchor the solved density to (b-t) powers to differentiate from b
        coeffs_t = np.zeros(6)
        for t in sol.q.phi:
            w = np.polynomial.polynomial.Polynomial([0.0, 1.0]) ** int(round(t.exponent))
            c = float(np.atleast_1d(t.coeff)[0]) * np.atleast_1d(w.coef)
            coeffs_t[: c.size] += c
        from fraclab.special import frac_derivative_terms, poly_to_right_terms

        phi_right = poly_to_right_terms(coeffs_t, 1.0)
        d_phi = frac_derivative_terms(p.alpha, phi_right)
        # rounding-level coefficients make D^a formally singular at t = b;
        # the strong equation is checked on interior points
        worst = 0.0
        for t in np.linspace(0.05, 0.95, 37):
            val = float(np.atleast_1d(terms_eval(d_phi, float(t), 0.0, 1.0))[0])
            val += float(eval_split(sol.q, float(t))[0])
            val -= float(np.atleast_1d(terms_eval(prob.f, float(t), 0.0, 1.0))[0])
            worst = max(worst, abs(val))
        assert worst <= 1e-6

    def test_consistency_with_first_variation(self):
        # for f = 0 the solved q is a critical point of the quadratic cost
        # over variations tangent to the boundary constraints
        from fraclab.varcalc import first_variation, quadratic_lagrangian

        p = params(alpha=0.7)
        prob = BvpProblem(p, [], [0.4], [-0.3])
        sol = solve_bvp(prob, 5)
        spec = quadratic_lagrangian(p.alpha, 2.0)
        rng = np.random.default_rng(12)
        for _ in range(5):
            h = admissible_probe(p, rng)
            fv = first_variation(spec, sol.q, h, quad_n=512, validate=True)
            assert abs(fv) <= 1e-6 * max(1.0, sol.energy_norm)

    def test_grid_forcing_projection(self):
        # f given as samples: solution approaches the closed-form one
        p = params(alpha=0.7)
        phi_star = [PowerTerm(1.5, 1.0, Side.RIGHT)]
        prob, q_star = manufactured_problem(p, phi_star, [0.0])
        g = Grid(0.0, 1.0, 2048)
        f_vals = np.zeros((2049, 1))
        for i, t in enumerate(g.nodes):
            if i == 0:
                continue  # forcing has a (t-a)^(alpha-1) part only if q_a != 0
            f_vals[i, 0] = float(np.atleast_1d(terms_eval(prob.f, float(t), 0.0, 1.0))[0])
        f_vals[0, 0] = f_vals[1, 0]
        prob_g = BvpProblem(p, GridFunction(g, f_vals), [0.0], prob.q_b)
        sol_g = solve_bvp(prob_g, 3)
        sol_c = solve_bvp(prob, 3)
        assert sol_g.projection_tol > 0.0
        assert np.max(np.abs(sol_g.coeffs - sol_c.coeffs)) <= 1e-3


def mp_energy(problem, sol):
    """a(q, q)^(1/2) at 50 digits for the solution with singular part q_a and
    density theta + sum_j coeffs[j] B_j: the solver's own theta and
    coefficients, with the exact shifted Legendre coefficients of B_j."""
    p = problem.params
    theta = np.broadcast_to(feasible_element(problem).phi[0].coeff, (problem.m,))
    with mp.workdps(50):
        alpha, length = mp.mpf(p.alpha), mp.mpf(p.b) - mp.mpf(p.a)

        def inner(u, v):
            return mp.fsum(c * d * length ** (e + f + 1) / (e + f + 1) for c, e in u for d, f in v)

        total = 0
        for k in range(problem.m):
            phi = [mp.mpf(theta[k])] + [mp.mpf(0)] * (len(sol.coeffs) - 1)
            for j, cj in enumerate(sol.coeffs[:, k]):
                for i in range(j + 1):
                    binom = math.comb(j, i) * math.comb(j + i, i)
                    phi[i] += (-1) ** (i + j) * binom * mp.mpf(cj) / length**i
            phi = [(c, i) for i, c in enumerate(phi)]
            q = [(mp.mpf(problem.q_a[k]) / mp.gamma(alpha), alpha - 1)]
            q += [(c * mp.gamma(i + 1) / mp.gamma(i + 1 + alpha), i + alpha) for c, i in phi]
            total += inner(q, q) + inner(phi, phi)
        return float(mp.sqrt(total))


# Zero or at least 1e-3 in magnitude: squares of values below about 1e-154
# underflow, and no energy formula keeps its relative accuracy there.
data_coeffs = st.just(0.0) | st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)


class TestEnergyNorm:
    @pytest.mark.parametrize("degree", [8, 12])
    def test_readme_example(self, degree):
        prob = BvpProblem(params(alpha=0.6), [PowerTerm(1.0, 0.0)], [0.3], [0.55])
        sol = solve_bvp(prob, degree)
        assert sol.energy_norm == pytest.approx(mp_energy(prob, sol), rel=1e-14, abs=0.0)

    def test_two_components(self):
        f = [
            PowerTerm(np.array([1.0, -0.5]), 0.0),
            PowerTerm(np.array([0.3, 0.8]), 1.5, Side.RIGHT),
        ]
        prob = BvpProblem(params(alpha=0.7, a=-0.5, b=1.3), f, [0.3, -0.2], [0.55, 0.1])
        sol = solve_bvp(prob, 12)
        assert sol.energy_norm == pytest.approx(mp_energy(prob, sol), rel=1e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(0.55, 0.95),
        a=st.floats(-1.0, 1.0),
        length=st.floats(0.2, 2.0),
        degree=st.integers(1, 12),
        q_a=data_coeffs,
        data=st.data(),
    )
    def test_matches_manufactured_solution(self, alpha, a, length, degree, q_a, data):
        # The trial densities have degree <= N, so (b-t)^k with k <= N is
        # recovered exactly; N = 0 holds no manufactured density.
        powers = data.draw(
            st.lists(st.integers(1, min(3, degree)), min_size=1, max_size=3, unique=True)
        )
        coeffs = data.draw(st.lists(data_coeffs, min_size=len(powers), max_size=len(powers)))
        p = params(alpha=alpha, a=a, b=a + length)
        phi_star = [PowerTerm(c, float(k), Side.RIGHT) for c, k in zip(coeffs, powers)]
        prob, q_star = manufactured_problem(p, phi_star, [q_a])
        sol = solve_bvp(prob, degree)
        q_terms = _power_terms(q_star)
        expected = math.sqrt(
            float(np.sum(terms_product_integral(q_terms, q_terms, p.a, p.b)))
            + float(np.sum(terms_product_integral(q_star.phi, q_star.phi, p.a, p.b)))
        )
        assert sol.energy_norm == pytest.approx(expected, rel=1e-13, abs=0.0)
