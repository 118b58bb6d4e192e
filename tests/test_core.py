"""Grids, weight operators, discrete fractional operators, and split functions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from fraclab.core import (
    FracParams,
    Grid,
    GridFunction,
    RegimeError,
    RightSplitFunction,
    SplitFunction,
    admissible_r_range,
    build_weight_operator,
    eval_split,
    left_derivative_grid,
    left_derivative_split,
    left_integral,
    left_subdiffusion_boundary_value,
    right_derivative_grid,
    right_integral,
    rl_derivative_of_ac,
    sample_split,
)
from fraclab.special import (
    PowerTerm,
    Side,
    frac_integral_power,
    frac_integral_terms,
    gamma,
    poly_to_left_terms,
    terms_eval,
)


def eval_terms_on(nodes, terms, a, b):
    return np.array([float(np.atleast_1d(terms_eval(terms, float(t), a, b))[0]) for t in nodes])


class TestParamsAndGrid:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            FracParams(0.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FracParams(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FracParams(0.5, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            FracParams(0.5, 2.0, 1.0, 1.0)

    def test_continuity_regime(self):
        assert FracParams(0.6, 2.0, 0.0, 1.0).is_continuity_regime()
        assert not FracParams(0.5, 2.0, 0.0, 1.0).is_continuity_regime()
        assert FracParams(0.1, math.inf, 0.0, 1.0).is_continuity_regime()

    def test_grid_nodes(self):
        g = Grid(-1.0, 3.0, 8)
        assert g.nodes[0] == -1.0
        assert g.nodes[-1] == 3.0
        assert np.max(np.abs(np.diff(g.nodes) - g.h)) <= 1e-15 * (g.b - g.a)

    def test_grid_values_shape(self):
        g = Grid(0.0, 1.0, 4)
        f = GridFunction(g, np.ones(5))
        assert f.values.shape == (5, 1)
        with pytest.raises(ValueError):
            GridFunction(g, np.ones(4))

    def test_admissible_r_range(self):
        # exponent bookkeeping for the mapping ranges of I^alpha on L^p
        assert admissible_r_range(0.3, 1.0) == (pytest.approx(1.0 / 0.7), False)
        r, inc = admissible_r_range(0.25, 2.0)  # alpha < 1/p
        assert (r, inc) == (pytest.approx(2.0 / (1.0 - 0.5)), True)
        assert admissible_r_range(0.5, 2.0) == (math.inf, False)
        assert admissible_r_range(0.75, 2.0) == (math.inf, True)


class TestWeightOperator:
    def test_classical_trapezoid_at_alpha_one(self):
        g = Grid(0.0, 1.0, 4)
        w = build_weight_operator(1.0, g).dense()
        h = 0.25
        expected_row = np.array([h / 2, h, h, h / 2, 0.0])
        assert np.allclose(w[3, :], [h / 2, h, h, h / 2, 0.0][:5], atol=1e-15)
        assert np.allclose(w[4, :], [h / 2, h, h, h, h / 2], atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("n", [16, 257, 2048])
    def test_moment_property(self, alpha, n):
        g = Grid(0.0, 1.0, n)
        w = build_weight_operator(alpha, g)
        sums = w.dense().sum(axis=1)
        ref = g.nodes**alpha / gamma(alpha + 1.0)
        rel = np.abs(sums[1:] - ref[1:]) / ref[1:]
        assert np.max(rel) <= 1e-12

    def test_nonnegative_weights(self):
        for alpha in (0.2, 0.55, 0.95):
            w = build_weight_operator(alpha, Grid(0.0, 1.0, 64)).dense()
            assert np.min(w) >= 0.0

    def test_single_cell_exact_on_linear(self):
        # one cell, f linear: product rule integrates the interpolant exactly
        alpha = 0.5
        g = Grid(0.0, 1.0, 1)
        w = build_weight_operator(alpha, g).dense()
        f = np.array([[0.3], [1.7]])  # linear nodal data
        got = float((w @ f)[1, 0])
        terms = poly_to_left_terms([0.3, 1.4], 0.0)  # 0.3 + 1.4 t
        ref = float(
            np.atleast_1d(terms_eval(frac_integral_terms(alpha, terms), 1.0, 0.0, 1.0))[0]
        )
        assert got == pytest.approx(ref, rel=1e-13)

    def test_exact_on_linear_every_node(self):
        alpha, n = 0.7, 63
        g = Grid(0.0, 2.0, n)
        f = GridFunction(g, (0.5 + 1.25 * g.nodes)[:, None])
        out = left_integral(alpha, f)
        terms = frac_integral_terms(alpha, poly_to_left_terms([0.5, 1.25], 0.0))
        ref = eval_terms_on(g.nodes, terms, 0.0, 2.0)
        rel = np.abs(out.values[1:, 0] - ref[1:]) / np.maximum(np.abs(ref[1:]), 1e-30)
        assert np.max(rel) <= 1e-12
        assert out.values[0, 0] == 0.0

    def test_negative_weight_fails_closed(self, monkeypatch):
        # a real check, not an assert, so that python -O keeps it
        import os

        from fraclab import cli, core

        monkeypatch.setattr(core, "_first_column", lambda alpha, i: -np.ones_like(i))
        core._weight_kernel.cache_clear()
        try:
            with pytest.raises(ArithmeticError):
                build_weight_operator(0.5, Grid(0.0, 1.0, 8))
            ones = os.path.join(os.path.dirname(__file__), "fixtures", "ones.csv")
            assert cli.main(["apply", "--op", "ileft", "--alpha", "0.5", ones]) == 4
        finally:
            core._weight_kernel.cache_clear()

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        n=st.integers(1, 600),
        m=st.sampled_from([1, 2, 3]),
        a=st.floats(-5.0, 5.0),
        length=st.floats(1e-3, 10.0),
        data=st.data(),
    )
    def test_fft_apply_matches_dense(self, alpha, n, m, a, length, data):
        v = data.draw(hnp.arrays(float, (n + 1, m), elements=st.floats(-1e6, 1e6)))
        w = build_weight_operator(alpha, Grid(a, a + length, n))
        dense = w.dense()
        scale = np.max(np.abs(dense @ np.abs(v)))
        assert np.max(np.abs(w.apply(v) - dense @ v)) <= 1e-13 * scale

    def test_kernel_at_rounding_level(self):
        # every weight, first column included, against the direct differences
        # of k^(alpha+1) at 40 digits: relative error a few ulp for any alpha
        from fraclab.core import _weight_parts

        n = 4000
        for alpha in (1e-12, 1e-3, 0.125, 0.5, 0.875, 1.0):
            col, c = _weight_parts(alpha, 0.0, float(n), n)  # h = 1
            with mp.workdps(40):
                e = mp.mpf(alpha) + 1
                pref = 1 / mp.gamma(e + 1)
                for k in (1, 2, 3, 7, 100, n - 1):
                    ref_col = pref * (e * mp.mpf(k) ** alpha - mp.mpf(k) ** e + mp.mpf(k - 1) ** e)
                    ref_c = pref * (mp.mpf(k - 1) ** e - 2 * mp.mpf(k) ** e + mp.mpf(k + 1) ** e)
                    assert abs(col[k - 1] / ref_col - 1) <= 4e-15, (alpha, k)
                    assert abs(c[k] / ref_c - 1) <= 4e-15, (alpha, k)

    def test_apply_near_float_limit(self):
        # the FFT's partial sums reach L max|v|; the result itself is finite
        g = Grid(0.0, 1.0, 64)
        out = left_integral(0.5, GridFunction(g, np.full(65, 1e308)))
        ref = 1e308 * g.nodes**0.5 / gamma(1.5)
        assert np.all(np.isfinite(out.values))
        assert np.max(np.abs(out.values[:, 0] - ref)) <= 1e-13 * 1e308

    def test_zero_columns(self):
        g = Grid(0.0, 1.0, 8)
        assert left_integral(0.5, GridFunction(g, np.zeros((9, 0)))).values.shape == (9, 0)

    def test_cache_returns_readonly(self):
        w = build_weight_operator(0.5, Grid(0.0, 1.0, 8))
        assert not w.col.flags.writeable
        assert not w.c_hat.flags.writeable
        w2 = build_weight_operator(0.5, Grid(0.0, 1.0, 8))
        assert w.col is w2.col and w.c_hat is w2.c_hat  # cached


class TestIntegralOperators:
    def test_zero_in_zero_out(self):
        g = Grid(0.0, 1.0, 16)
        z = GridFunction(g, np.zeros((17, 1)))
        assert np.all(left_integral(0.5, z).values == 0.0)
        assert np.all(right_integral(0.5, z).values == 0.0)

    def test_left_constant(self):
        g = Grid(0.0, 1.0, 200)
        f = GridFunction(g, np.ones((201, 1)))
        out = left_integral(0.5, f)
        ref = g.nodes**0.5 / gamma(1.5)
        assert np.max(np.abs(out.values[:, 0] - ref)) <= 2.0 / 200**2 + 1e-12

    def test_right_constant(self):
        g = Grid(0.0, 1.0, 200)
        f = GridFunction(g, np.ones((201, 1)))
        out = right_integral(0.5, f)
        ref = (1.0 - g.nodes) ** 0.5 / gamma(1.5)
        assert np.max(np.abs(out.values[:, 0] - ref)) <= 2.0 / 200**2 + 1e-12
        assert out.values[-1, 0] == 0.0

    def test_reflection_bit_identical(self):
        g = Grid(0.0, 1.0, 37)
        rng = np.random.default_rng(3)
        f = GridFunction(g, rng.normal(size=(38, 2)))
        right = right_integral(0.43, f)
        left_of_reflected = left_integral(0.43, f.reflected())
        assert np.array_equal(right.values, left_of_reflected.values[::-1])

    def test_semigroup_grid(self):
        n = 1024
        g = Grid(0.0, 1.0, n)
        f = GridFunction(g, (g.nodes**2)[:, None])
        lhs = left_integral(0.3, left_integral(0.4, f))
        rhs = left_integral(0.7, f)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 10.0 / n**2

    def test_rejects_singular_input(self):
        g = Grid(0.0, 1.0, 8)
        f = GridFunction(g, np.ones((9, 1)), left_endpoint_finite=False)
        with pytest.raises(RegimeError):
            left_integral(0.5, f)
        with pytest.raises(RegimeError):
            left_derivative_grid(0.5, f)

    def test_convergence_order_cos(self):
        # empirical order >= 1.8 between n=256 and n=2048
        from fraclab.cli import _cos_terms

        for alpha in (0.3, 0.5, 0.7):
            ref_terms = frac_integral_terms(alpha, _cos_terms(0.0, 1.0, Side.LEFT))
            errs = []
            for n in (256, 512, 1024, 2048):
                g = Grid(0.0, 1.0, n)
                f = GridFunction(g, np.cos(g.nodes)[:, None])
                out = left_integral(alpha, f)
                ref = eval_terms_on(g.nodes, ref_terms, 0.0, 1.0)
                errs.append(np.max(np.abs(out.values[:, 0] - ref)))
            for i in range(3):
                assert math.log2(errs[i] / errs[i + 1]) >= 1.8


class TestDerivativeGrid:
    def test_zero(self):
        g = Grid(0.0, 1.0, 16)
        z = GridFunction(g, np.zeros((17, 1)))
        assert np.all(left_derivative_grid(0.5, z).values == 0.0)

    def test_derivative_of_t(self):
        # D^0.5 t = 2 sqrt(t/pi); O(h) near a, O(h^2)-ish in the interior
        n = 512
        g = Grid(0.0, 1.0, n)
        f = GridFunction(g, g.nodes[:, None])
        out = left_derivative_grid(0.5, f)
        ref = 2.0 * np.sqrt(g.nodes / np.pi)
        interior = slice(n // 10, n)
        assert np.max(np.abs(out.values[interior, 0] - ref[interior])) <= 5.0 / n
        assert not out.left_endpoint_finite

    def test_derivative_of_power_alpha(self):
        # D^a (t-a)^a = Gamma(a+1), constant
        alpha, n = 0.6, 512
        g = Grid(0.0, 1.0, n)
        f = GridFunction(g, (g.nodes**alpha)[:, None])
        out = left_derivative_grid(alpha, f)
        ref = gamma(alpha + 1.0)
        interior = slice(n // 10, n)
        assert np.max(np.abs(out.values[interior, 0] - ref)) <= 20.0 * (1.0 / n) ** (
            2.0 - alpha
        )

    def test_d_of_i_recovers_f(self):
        alpha, n = 0.5, 512
        g = Grid(0.0, 1.0, n)
        f = np.sin(g.nodes)[:, None]
        out = left_derivative_grid(alpha, left_integral(alpha, GridFunction(g, f)))
        interior = slice(n // 10, n - n // 10)
        assert np.max(np.abs(out.values[interior] - f[interior])) <= 10.0 / n

    def test_right_derivative_mirrors_left(self):
        g = Grid(0.0, 1.0, 64)
        rng = np.random.default_rng(5)
        f = GridFunction(g, rng.normal(size=(65, 1)))
        right = right_derivative_grid(0.4, f)
        left = left_derivative_grid(0.4, f.reflected())
        assert np.array_equal(right.values, left.values[::-1])


class TestSplitFunctions:
    def params(self, alpha=0.6, p=2.0):
        return FracParams(alpha, p, 0.0, 1.0)

    def test_eval_zero(self):
        q = SplitFunction(self.params(), [0.0], [])
        for t in (0.2, 1.0):
            assert eval_split(q, t) == pytest.approx(0.0)

    def test_eval_singular_only(self):
        p = FracParams(0.5, 4.0, 0.0, 1.0)
        q = SplitFunction(p, [1.0], [])
        assert float(eval_split(q, 1.0)[0]) == pytest.approx(0.5641895835477563, rel=1e-12)
        with pytest.raises(ValueError):
            eval_split(q, 0.0)

    def test_eval_regular_only(self):
        p = FracParams(0.5, 4.0, 0.0, 1.0)
        q = SplitFunction(p, [0.0], [PowerTerm(1.0, 0.0)])
        assert float(eval_split(q, 1.0)[0]) == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_grid_phi_matches_closed_form(self):
        p = FracParams(0.6, 4.0, 0.0, 1.0)
        g = Grid(0.0, 1.0, 256)
        terms = poly_to_left_terms([1.0, -0.4], 0.0)
        phi_g = GridFunction(g, eval_terms_on(g.nodes, terms, 0.0, 1.0)[:, None])
        q_grid = SplitFunction(p, [0.7], phi_g)
        q_poly = SplitFunction(p, [0.7], terms)
        for t in (0.111, 0.5, 0.87, 1.0):
            assert float(eval_split(q_grid, t)[0]) == pytest.approx(
                float(eval_split(q_poly, t)[0]), abs=5e-6
            )

    def test_grid_phi_requires_continuity_regime(self):
        p = FracParams(0.5, 2.0, 0.0, 1.0)  # 1/p = alpha: not continuous
        g = Grid(0.0, 1.0, 16)
        q = SplitFunction(p, [0.0], GridFunction(g, np.ones((17, 1))))
        with pytest.raises(RegimeError):
            eval_split(q, 0.5)

    def test_derivative_split_returns_density(self):
        terms = [PowerTerm(2.0, 1.0)]
        q = SplitFunction(self.params(), [1.0], terms)
        assert left_derivative_split(q) is q.phi
        assert left_derivative_split(SplitFunction(self.params(), [1.0], [])) == []

    def test_boundary_value_is_stored_c(self):
        q = SplitFunction(self.params(), [3.25, -1.0], [])
        np.testing.assert_array_equal(
            left_subdiffusion_boundary_value(q), np.array([3.25, -1.0])
        )

    @pytest.mark.parametrize("side", ["left", "right", Side.LEFT, Side.RIGHT])
    def test_side_from_enum_or_string(self, side):
        q = SplitFunction(self.params(), [1.0], [], side)
        assert q.side is Side(side)

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError):
            SplitFunction(self.params(), [1.0], [], "up")

    @pytest.mark.parametrize("read", [left_derivative_split, left_subdiffusion_boundary_value])
    def test_left_readers_reject_right_functions(self, read):
        q = RightSplitFunction(self.params(), [1.0], [PowerTerm(2.0, 1.0, Side.RIGHT)])
        with pytest.raises(ValueError, match="left split"):
            read(q)

    def test_boundary_value_consistent_with_symbolic_limit(self):
        # I^(1-a) q = c + I^1 phi in closed form; its value at a is c
        p = self.params(alpha=0.7)
        terms = [PowerTerm(2.0, 1.5)]
        q = SplitFunction(p, [0.9], terms)
        sing = PowerTerm(0.9 / gamma(p.alpha), p.alpha - 1.0)
        i_sing = frac_integral_power(1.0 - p.alpha, sing)
        assert i_sing.exponent == pytest.approx(0.0, abs=1e-14)
        assert float(np.asarray(i_sing.coeff)) == pytest.approx(0.9, rel=1e-12)
        i_reg = frac_integral_terms(1.0 - p.alpha, frac_integral_terms(p.alpha, terms))
        for term in i_reg:
            assert term.exponent > 0.0  # regular part vanishes at a
        assert float(left_subdiffusion_boundary_value(q)[0]) == 0.9

    def test_right_split_eval(self):
        p = FracParams(0.5, 4.0, 0.0, 1.0)
        q = RightSplitFunction(p, [1.0], [])
        assert float(eval_split(q, 0.0)[0]) == pytest.approx(
            0.5641895835477563, rel=1e-12
        )
        with pytest.raises(ValueError):
            eval_split(q, 1.0)

    def test_right_split_off_node_closed_form(self):
        # q = d (b-t)^(alpha-1)/Gamma(alpha) + I^alpha_(b-) (1.5 - 0.8 (b-t))
        alpha, a, b, d = 0.65, 0.5, 2.0, 0.4
        p = FracParams(alpha, math.inf, a, b)

        def exact(t):
            u = b - t
            return (
                d * u ** (alpha - 1.0) / math.gamma(alpha)
                + 1.5 * u**alpha / math.gamma(alpha + 1.0)
                - 0.8 * u ** (alpha + 1.0) / math.gamma(alpha + 2.0)
            )

        g = Grid(a, b, 200)
        psi_terms = [PowerTerm(1.5, 0.0, Side.RIGHT), PowerTerm(-0.8, 1.0, Side.RIGHT)]
        psi_grid = GridFunction(g, 1.5 - 0.8 * (b - g.nodes))
        q_terms = RightSplitFunction(p, [d], psi_terms)
        q_grid = RightSplitFunction(p, [d], psi_grid)
        for t in (0.5, 0.61, 1.001, 1.37, 1.9999):
            assert eval_split(q_terms, t)[0] == pytest.approx(exact(t), rel=1e-12)
            # psi is linear, which the product trapezoid integrates exactly
            assert eval_split(q_grid, t)[0] == pytest.approx(exact(t), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 10, 64, 100, 250])
    def test_grid_density_one_ulp_from_nodes(self, n):
        # A point one ulp below a node once fell into the next cell, where
        # (t - t_j)^alpha took a negative base and gave NaN.
        p = FracParams(0.7, math.inf, 0.0, 1.0)
        g = Grid(0.0, 1.0, n)
        f = GridFunction(g, 1.0 + g.nodes**2)
        pairs = ((SplitFunction(p, [0.3], f), eval_split),
                 (RightSplitFunction(p, [0.3], f), eval_split))
        for q, evaluate in pairs:
            for node in g.nodes[1:-1]:
                at = float(evaluate(q, float(node))[0])
                for direction in (-math.inf, math.inf):
                    near = float(evaluate(q, float(np.nextafter(node, direction)))[0])
                    assert math.isfinite(near)
                    assert near == pytest.approx(at, rel=1e-13)

    def test_sample_split_flags(self):
        p = self.params()
        q = SplitFunction(p, [1.0], [])
        s = sample_split(q, Grid(0.0, 1.0, 8))
        assert not s.left_endpoint_finite
        q0 = SplitFunction(p, [0.0], [PowerTerm(1.0, 0.0)])
        s0 = sample_split(q0, Grid(0.0, 1.0, 8))
        assert s0.left_endpoint_finite
        assert s0.values[0, 0] == 0.0

    def test_round_trip_derivative(self):
        # sample eval_split on a grid, derive, compare to phi away from a
        alpha, n = 0.75, 512
        p = FracParams(alpha, 2.0, 0.0, 1.0)
        terms = poly_to_left_terms([0.4, 1.0, -0.7], 0.0)
        q = SplitFunction(p, [0.0], terms)
        g = Grid(0.0, 1.0, n)
        d = left_derivative_grid(alpha, sample_split(q, g))
        ref = eval_terms_on(g.nodes, terms, 0.0, 1.0)
        window = slice(n // 10, n + 1)
        err = np.max(np.abs(d.values[window, 0] - ref[window]))
        assert err <= 2.0 * (1.0 / n) ** (2.0 - alpha)


class TestRlDerivativeOfAc:
    def test_constant_q(self):
        # q constant: D^a q = q_a (t-a)^(-a) / Gamma(1-a), no regular part
        alpha = 0.6
        rl = rl_derivative_of_ac(alpha, [2.0], [], 0.0, 1.0)
        assert rl.regular == []
        for t in (0.3, 1.0):
            ref = 2.0 * t ** (-alpha) / gamma(1.0 - alpha)
            assert float(rl.eval(t)[0]) == pytest.approx(ref, rel=1e-12)

    def test_linear_q(self):
        # q = t - a with q(a) = 0: D^a q = I^(1-a) 1, matching the power rule
        alpha = 0.5
        rl = rl_derivative_of_ac(alpha, [0.0], [PowerTerm(1.0, 0.0)], 0.0, 1.0)
        assert np.all(rl.singular_coeff == 0.0)
        for t in (0.25, 1.0):
            assert float(rl.eval(t)[0]) == pytest.approx(
                2.0 * math.sqrt(t / math.pi), rel=1e-12
            )

    def test_zero(self):
        rl = rl_derivative_of_ac(0.4, [0.0], [], 0.0, 1.0)
        assert float(rl.eval(0.5)[0]) == 0.0

    def test_matches_grid_derivative_for_cubics(self):
        rng = np.random.default_rng(11)
        alpha, n = 0.6, 2048
        g = Grid(0.0, 1.0, n)
        for _ in range(5):
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            qprime = poly_to_left_terms(np.polynomial.polynomial.polyder(coeffs), 0.0)
            q_a = float(np.polynomial.polynomial.polyval(0.0, coeffs))
            rl = rl_derivative_of_ac(alpha, [q_a], qprime, 0.0, 1.0).sample(g)
            qvals = np.polynomial.polynomial.polyval(g.nodes, coeffs)[:, None]
            fd = left_derivative_grid(alpha, GridFunction(g, qvals))
            window = slice(n // 10, n + 1)
            assert np.max(np.abs(rl.values[window] - fd.values[window])) <= 1e-3


class TestDuality:
    def test_closed_form(self):
        a, b = 0.0, 1.0
        rng = np.random.default_rng(17)
        from fraclab.special import poly_to_right_terms, terms_product_integral

        for alpha in (0.3, 0.6, 0.9):
            c1 = rng.uniform(-1, 1, size=4)
            c2 = rng.uniform(-1, 1, size=4)
            q1L = poly_to_left_terms(c1, a)
            q2L = poly_to_left_terms(c2, a)
            q1R = poly_to_right_terms(c1, b)
            q2R = poly_to_right_terms(c2, b)
            lhs = float(
                np.sum(terms_product_integral(frac_integral_terms(alpha, q1L), q2L, a, b))
            )
            rhs = float(
                np.sum(terms_product_integral(q1R, frac_integral_terms(alpha, q2R), a, b))
            )
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid(self):
        a, b, alpha, n = 0.0, 1.0, 0.6, 512
        g = Grid(a, b, n)
        f1 = GridFunction(g, (1.0 + g.nodes)[:, None])
        f2 = GridFunction(g, (2.0 - g.nodes)[:, None])
        i1 = left_integral(alpha, f1)
        i2 = right_integral(alpha, f2)
        h = g.h

        def trapz(u):
            return h * (np.sum(u) - 0.5 * (u[0] + u[-1]))

        lhs = trapz(i1.values[:, 0] * f2.values[:, 0])
        rhs = trapz(f1.values[:, 0] * i2.values[:, 0])
        assert abs(lhs - rhs) <= 10.0 * h * h


class TestAcEmbedding:
    def test_decomposition_matches_quadrature(self):
        # I^(1-a) q' part against the defining integral
        alpha = 0.7
        rl = rl_derivative_of_ac(alpha, [0.5], [PowerTerm(2.0, 1.0)], 0.0, 1.0)
        for t in (0.4, 0.9):
            reg, _ = integrate.quad(
                lambda x: 2.0 * x, 0.0, t, weight="alg", wvar=(0.0, -alpha)
            )
            ref = 0.5 * t ** (-alpha) / gamma(1.0 - alpha) + reg / gamma(1.0 - alpha)
            assert float(rl.eval(t)[0]) == pytest.approx(ref, rel=1e-9)
