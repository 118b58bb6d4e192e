"""Special-function primitives: Gamma, Beta, and exact fractional calculus on powers.

Shifted power functions ``(t-a)^beta`` and ``(b-t)^beta`` are closed under
fractional integration and differentiation, so sums of :class:`PowerTerm`
serve as the exact-arithmetic backbone for every other module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = [
    "Side",
    "PowerTerm",
    "gamma",
    "reciprocal_gamma",
    "beta",
    "frac_integral_power",
    "frac_derivative_power",
    "frac_integral_terms",
    "frac_derivative_terms",
    "terms_eval",
    "terms_integral",
    "terms_product_integral",
    "poly_to_left_terms",
    "poly_to_right_terms",
]

# Tolerance for detecting the exponent beta = alpha - 1 whose fractional
# derivative vanishes identically.
_ZERO_EXPONENT_TOL = 1e-14

_GAMMA_OVERFLOW_X = 171.624


def gamma(x: float) -> float:
    """Gamma function for real x > 0, from ``math.gamma`` (within a few ulp).

    Raises ValueError outside (0, ~171.62] where the double-precision
    result would be undefined or overflow, and OverflowError for x below
    about 5.6e-309, where Gamma(x) ~ 1/x overflows.
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x > _GAMMA_OVERFLOW_X:
        raise ValueError(f"gamma({x}) overflows double precision")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1 / Gamma(x) for any real x; exactly 0 at the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x > 0.0:
        return 1.0 / gamma(x)
    n = round(x)
    if abs(x - n) <= _ZERO_EXPONENT_TOL:
        return 0.0
    # Reflection: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi.
    return math.sin(math.pi * x) * gamma(1.0 - x) / math.pi


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) for x, y > 0."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    if x + y > _GAMMA_OVERFLOW_X:
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
    num = gamma(x) * gamma(y)
    if math.isinf(num):  # Gamma(max) alone stays finite: divide before multiplying
        return gamma(max(x, y)) / gamma(x + y) * gamma(min(x, y))
    return num / gamma(x + y)


class Side(enum.Enum):
    """Which endpoint a shifted power is anchored to."""

    LEFT = "left"  # (t - a)^exponent
    RIGHT = "right"  # (b - t)^exponent


@dataclass(frozen=True)
class PowerTerm:
    """``coeff * (t-a)^exponent`` (left) or ``coeff * (b-t)^exponent`` (right).

    ``exponent > -1`` so the term is integrable on [a, b].  ``coeff`` may be
    a scalar or an (m,) vector; the algebra is componentwise.
    """

    coeff: float | np.ndarray
    exponent: float
    side: Side = Side.LEFT

    def __post_init__(self) -> None:
        if not self.exponent > -1.0:
            raise ValueError(f"exponent must exceed -1, got {self.exponent}")

    def eval(self, t: float, a: float, b: float):
        u = (t - a) if self.side is Side.LEFT else (b - t)
        if u < 0.0:
            raise ValueError(f"t={t} outside [{a}, {b}]")
        if u == 0.0:
            if self.exponent == 0.0:
                return np.asarray(self.coeff) * 1.0
            if self.exponent < 0.0:
                raise ValueError("singular endpoint evaluation (exponent < 0)")
            return np.asarray(self.coeff) * 0.0
        return np.asarray(self.coeff) * u**self.exponent

    def is_zero(self) -> bool:
        return bool(np.all(np.asarray(self.coeff) == 0.0))


def frac_integral_power(alpha: float, term: PowerTerm) -> PowerTerm:
    """Same-sided fractional integral of order ``alpha`` in (0, 1].

    Closed form: I^alpha (t-a)^beta = Gamma(beta+1)/Gamma(beta+1+alpha)
    (t-a)^(beta+alpha), and mirrored for right-sided terms.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    factor = gamma(term.exponent + 1.0) / gamma(term.exponent + 1.0 + alpha)
    return replace(term, coeff=np.asarray(term.coeff) * factor, exponent=term.exponent + alpha)


def frac_derivative_power(alpha: float, term: PowerTerm) -> PowerTerm | None:
    """Same-sided fractional derivative of order ``alpha`` in (0, 1).

    D^alpha (t-a)^beta = Gamma(beta+1)/Gamma(beta+1-alpha) (t-a)^(beta-alpha);
    returns None (exact zero) when beta = alpha - 1, the singular kernel
    annihilated by the derivative.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if abs(term.exponent - (alpha - 1.0)) <= _ZERO_EXPONENT_TOL:
        return None
    factor = gamma(term.exponent + 1.0) * reciprocal_gamma(term.exponent + 1.0 - alpha)
    return replace(term, coeff=np.asarray(term.coeff) * factor, exponent=term.exponent - alpha)


def frac_integral_terms(alpha: float, terms: Sequence[PowerTerm]) -> list[PowerTerm]:
    return [frac_integral_power(alpha, t) for t in terms]


def frac_derivative_terms(alpha: float, terms: Sequence[PowerTerm]) -> list[PowerTerm]:
    out = []
    for t in terms:
        d = frac_derivative_power(alpha, t)
        if d is not None:
            out.append(d)
    return out


def terms_eval(terms: Sequence[PowerTerm], t: float, a: float, b: float):
    """Evaluate a sum of power terms at a single point."""
    total = 0.0
    for term in terms:
        total = total + term.eval(t, a, b)
    return total


def terms_integral(terms: Sequence[PowerTerm], a: float, b: float):
    """Exact integral of a sum of power terms over [a, b]."""
    length = b - a
    total = 0.0
    for term in terms:
        total = total + np.asarray(term.coeff) * length ** (term.exponent + 1.0) / (
            term.exponent + 1.0
        )
    return total


def _pair_integral(t1: PowerTerm, t2: PowerTerm, a: float, b: float):
    length = b - a
    c = np.asarray(t1.coeff) * np.asarray(t2.coeff)
    if t1.side is t2.side:
        e = t1.exponent + t2.exponent
        if not e > -1.0:
            raise ValueError(f"non-integrable same-side product, exponent sum {e}")
        return c * length ** (e + 1.0) / (e + 1.0)
    # Opposite sides: int_a^b (t-a)^mu (b-t)^nu dt = (b-a)^(mu+nu+1) B(mu+1, nu+1).
    mu, nu = t1.exponent, t2.exponent
    return c * length ** (mu + nu + 1.0) * beta(mu + 1.0, nu + 1.0)


def terms_product_integral(
    terms1: Sequence[PowerTerm], terms2: Sequence[PowerTerm], a: float, b: float
):
    """Exact integral over [a, b] of the product of two power-term sums.

    Same-side pairs reduce to plain power integrals, opposite-side pairs to
    the Beta closed form; both hold for any real exponents > -1 whose sum
    stays integrable.
    """
    total = 0.0
    for t1 in terms1:
        for t2 in terms2:
            total = total + _pair_integral(t1, t2, a, b)
    return total


def _compose_affine(coeffs: Sequence[float], shift: float, scale: float) -> np.ndarray:
    """Coefficients of p(shift + scale*u) in powers of u, given p's coefficients in t."""
    c = np.asarray(coeffs, dtype=float)
    out = np.zeros(c.size)
    for k, ck in enumerate(c[::-1]):  # Horner: out <- out * (shift + scale*u) + ck
        out[1 : k + 1] = out[1 : k + 1] * shift + out[:k] * scale
        out[0] = out[0] * shift + ck
    return out


def poly_to_left_terms(coeffs: Sequence[float], a: float) -> list[PowerTerm]:
    """Rewrite a polynomial given by coefficients in t (low to high) in powers of (t-a)."""
    c = _compose_affine(coeffs, a, 1.0)
    return [PowerTerm(ck, float(k), Side.LEFT) for k, ck in enumerate(c) if ck != 0.0]


def poly_to_right_terms(coeffs: Sequence[float], b: float) -> list[PowerTerm]:
    """Rewrite a polynomial given by coefficients in t (low to high) in powers of (b-t)."""
    c = _compose_affine(coeffs, b, -1.0)
    return [PowerTerm(ck, float(k), Side.RIGHT) for k, ck in enumerate(c) if ck != 0.0]
