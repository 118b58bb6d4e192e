"""Closed-form references for the benchmark, computed with mpmath only.

Every reference is a sum of shifted powers on [0, 1], the family the
fractional integral and derivative map to itself.  Nothing here imports
fraclab, so a change to ``fraclab.special`` cannot move the oracle along
with the code it checks.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

LEFT, RIGHT = "left", "right"


class Series:
    """sum_k c_k u^e_k with u = t (left side) or u = 1 - t (right side), t in [0, 1]."""

    def __init__(self, side: str, terms):
        self.side = side
        self.terms = [(mp.mpf(c), mp.mpf(e)) for c, e in terms if c != 0]

    def __add__(self, other: "Series") -> "Series":
        assert self.side == other.side
        return Series(self.side, self.terms + other.terms)

    def integral(self, alpha) -> "Series":
        """Same-sided fractional integral of order alpha."""
        alpha = mp.mpf(alpha)
        return Series(
            self.side,
            [(c * mp.gamma(e + 1) / mp.gamma(e + 1 + alpha), e + alpha) for c, e in self.terms],
        )

    def derivative(self, alpha) -> "Series":
        """Same-sided Riemann-Liouville derivative of order alpha (rgamma is 0 at poles)."""
        alpha = mp.mpf(alpha)
        return Series(
            self.side,
            [(c * mp.gamma(e + 1) * mp.rgamma(e + 1 - alpha), e - alpha) for c, e in self.terms],
        )

    def _u(self, t):
        return t if self.side == LEFT else 1 - t

    def at(self, t):
        """High-precision value at one point of (0, 1]."""
        u = self._u(mp.mpf(t))
        return mp.fsum(c * u**e for c, e in self.terms)

    def values(self, t: np.ndarray) -> np.ndarray:
        """Float values at many points: mpmath coefficients, float64 powers."""
        u = self._u(np.asarray(t, dtype=float))
        out = np.zeros_like(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            for c, e in self.terms:
                out += float(c) * u ** float(e)
        return out

    def float_terms(self) -> list[tuple[float, float]]:
        return [(float(c), float(e)) for c, e in self.terms]

    def times(self, other: "Series") -> "Series":
        assert self.side == other.side
        return Series(
            self.side, [(c1 * c2, e1 + e2) for c1, e1 in self.terms for c2, e2 in other.terms]
        )

    def flipped(self) -> "Series":
        """The same polynomial written in powers of the other side's variable.

        Needs non-negative integer exponents: t^k = (1 - (1 - t))^k.
        """
        out = []
        for c, e in self.terms:
            k = int(e)
            assert k == e and k >= 0, "flipping needs integer exponents"
            for j in range(k + 1):
                out.append((c * math.comb(k, j) * (-1) ** j, j))
        return Series(RIGHT if self.side == LEFT else LEFT, out)


def product_integral(s1: Series, s2: Series):
    """Exact int_0^1 s1(t) s2(t) dt (Beta function for opposite sides)."""
    total = []
    for c1, e1 in s1.terms:
        for c2, e2 in s2.terms:
            if s1.side == s2.side:
                total.append(c1 * c2 / (e1 + e2 + 1))
            else:
                total.append(c1 * c2 * mp.beta(e1 + 1, e2 + 1))
    return mp.fsum(total)


def singular_quad(f, gamma):
    """int_0^1 f(t) dt for f ~ t^gamma at 0 (gamma > -1), by t = s^m.

    With m = 2 / (1 + gamma) the integrand in s vanishes like s at 0, where
    plain tanh-sinh loses digits when gamma is close to -1.
    """
    m = max(mp.mpf(1), 2 / (1 + mp.mpf(gamma)))
    return mp.quad(lambda s: f(s**m) * m * s ** (m - 1), [0, 1])


def kernel(side: str, coeff, alpha) -> Series:
    """coeff u^(alpha-1) / Gamma(alpha): the singular part of a split function."""
    return Series(side, [(mp.mpf(coeff) / mp.gamma(alpha), mp.mpf(alpha) - 1)])


def split_value(side: str, coeff, density: Series, alpha) -> Series:
    """q = coeff u^(alpha-1)/Gamma(alpha) + I^alpha density, as one series."""
    return kernel(side, coeff, alpha) + density.integral(alpha)


def cos_series(side: str, degree: int = 24) -> Series:
    """cos(t) expanded around the side's anchor (t = 0 or t = 1)."""
    anchor = mp.mpf(0) if side == LEFT else mp.mpf(1)
    sign = 1 if side == LEFT else -1
    terms = []
    for n in range(degree + 1):
        d = mp.cos(anchor) if n % 4 == 0 else -mp.sin(anchor) if n % 4 == 1 else (
            -mp.cos(anchor) if n % 4 == 2 else mp.sin(anchor)
        )
        terms.append((d * sign**n / mp.factorial(n), n))
    return Series(side, terms)


def reference(name: str, side: str) -> Series:
    """The grid workload's reference functions one, t, t^2 and cos."""
    if name == "cos":
        return cos_series(side)
    poly = {"one": [(1, 0)], "t": [(1, 1)], "t2": [(1, 2)]}[name]
    s = Series(LEFT, poly)
    return s if side == LEFT else s.flipped()


def legendre_coeffs(poly: Series, degree: int) -> list:
    """Shifted-Legendre coefficients on [0, 1] of a left polynomial, j = 0..degree."""
    out = []
    for j in range(degree + 1):
        integral = mp.quad(
            lambda t: poly.at(t) * mp.legendre(j, 2 * t - 1), [0, 1], method="gauss-legendre"
        )
        out.append((2 * j + 1) * integral)
    return out


def digits(err: float, ref_scale: float) -> float:
    """-log10(err / max(1, scale)), capped at 17 for an exact match."""
    rel = err / max(1.0, ref_scale)
    return 17.0 if rel <= 1e-17 else -math.log10(rel)
