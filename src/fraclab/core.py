"""Grids, split representations, and discrete Riemann-Liouville operators.

A function with a p-integrable left-sided fractional derivative of order
``alpha`` decomposes as

    q(t) = c / (Gamma(alpha) (t-a)^(1-alpha)) + (I^alpha phi)(t),

with ``c`` the value of I^(1-alpha) q at ``a`` and ``phi`` the fractional
derivative.  :class:`SplitFunction` stores exactly this pair, confining all
endpoint singularities to the analytic first term; grid data that is
singular at an endpoint is rejected rather than approximated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .special import PowerTerm, Side, frac_integral_terms, gamma

__all__ = [
    "RegimeError",
    "FracParams",
    "Grid",
    "GridFunction",
    "WeightOperator",
    "SplitFunction",
    "RightSplitFunction",
    "RlDerivative",
    "build_weight_operator",
    "left_integral",
    "right_integral",
    "left_derivative_grid",
    "right_derivative_grid",
    "eval_split",
    "sample_split",
    "left_derivative_split",
    "left_subdiffusion_boundary_value",
    "rl_derivative_of_ac",
    "admissible_r_range",
]


class RegimeError(ValueError):
    """Raised when an operation's integrability/continuity hypotheses fail."""


@dataclass(frozen=True)
class FracParams:
    """Order alpha in (0,1), integrability exponent p in [1, inf], interval [a, b]."""

    alpha: float
    p: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.p >= 1.0:
            raise ValueError(f"p must lie in [1, inf], got {self.p}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    def is_continuity_regime(self) -> bool:
        """True when 1/p < alpha, so I^alpha maps L^p into continuous functions."""
        return (0.0 if math.isinf(self.p) else 1.0 / self.p) < self.alpha

    def require_continuity_regime(self) -> None:
        if not self.is_continuity_regime():
            raise RegimeError(
                f"requires 1/p < alpha; got p={self.p}, alpha={self.alpha}"
            )


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n subintervals on [a, b]."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one subinterval, got n={self.n}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.linspace(self.a, self.b, self.n + 1)
        t.setflags(write=False)
        return t


def _as_values(values, n_nodes: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != n_nodes:
        raise ValueError(f"values must have shape ({n_nodes}, m), got {v.shape}")
    return v


@dataclass(frozen=True)
class GridFunction:
    """Samples of an R^m-valued function at the grid nodes.

    When ``left_endpoint_finite`` is False the sample at t = a is a
    placeholder that every consumer must ignore.
    """

    grid: Grid
    values: np.ndarray
    left_endpoint_finite: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n + 1))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def reflected(self) -> "GridFunction":
        """Samples of t -> f(a + b - t); node i maps to node n - i."""
        return GridFunction(self.grid, self.values[::-1].copy(), True)


def _power_series(coeffs: list[float], x: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] x^(j+1) by Horner's rule."""
    s = np.zeros_like(x)
    for b in reversed(coeffs):
        s += b
        s *= x
    return s


def _second_difference(alpha: float, k: np.ndarray) -> np.ndarray:
    # (k-1)^e - 2 k^e + (k+1)^e with e = alpha + 1, for integers k >= 1.
    # For k >= 2 this is 2 k^e sum_{j>=1} binom(e, 2j) k^(-2j): for e in
    # (1, 2] every term is positive, so no digits cancel however small alpha
    # is, and 30 terms reach rounding level at k = 2.  k = 1 gives 2^e - 2.
    e = alpha + 1.0
    x = 1.0 / k**2
    coeffs, b = [], alpha * e / 2.0
    for j in range(1, 31):
        coeffs.append(b)  # binom(e, 2j)
        b *= (e - 2 * j) * (e - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2))
    s = _power_series(coeffs, x)
    return np.where(k == 1.0, 2.0 * math.expm1(alpha * math.log(2.0)), 2.0 * k**e * s)


def _first_column(alpha: float, i: np.ndarray) -> np.ndarray:
    # e i^alpha - i^e + (i-1)^e for integers i >= 1, the same way: i^e times
    # (1-x)^e - 1 + e x = sum_{j>=2} binom(e, j) (-x)^j at x = 1/i, again
    # all positive terms; 60 of them reach rounding level at i = 2.  i = 1
    # gives alpha.
    e = alpha + 1.0
    x = 1.0 / i
    coeffs, d = [], alpha * e / 2.0
    for j in range(2, 62):
        coeffs.append(d)  # binom(e, j) (-1)^j
        d *= (j - e) / (j + 1)
    return np.where(i == 1.0, alpha, i**e * _power_series(coeffs, x) * x)


def _weight_parts(alpha: float, a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The O(n) numbers behind the weights: col = w[1:, 0] and the Toeplitz
    kernel c with w[i, j] = c[i - j] for 1 <= j <= i, both of length n."""
    pref = ((b - a) / n) ** alpha / gamma(alpha + 2.0)
    i = np.arange(1, n + 1, dtype=float)
    col = pref * _first_column(alpha, i)
    c = np.empty(n)
    c[0] = pref
    c[1:] = pref * _second_difference(alpha, i[:-1])
    # Scheme sanity: for this kernel every product-trapezoidal weight is >= 0.
    if not (np.all(col >= 0.0) and np.all(c >= 0.0)):
        raise ArithmeticError(f"negative or nan product-trapezoidal weight (alpha={alpha}, n={n})")
    return col, c


def _fft_length(n: int) -> int:
    """Smallest power of two >= 2n - 1: room for a linear convolution of length-n sequences."""
    return 2 << (n - 1).bit_length()


@functools.lru_cache(maxsize=32)
def _weight_kernel(alpha: float, a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only col and rfft(c, L) of :func:`_weight_parts`, L = _fft_length(n)."""
    col, c = _weight_parts(alpha, a, b, n)
    c_hat = np.fft.rfft(c, _fft_length(n))
    col.setflags(write=False)
    c_hat.setflags(write=False)
    return col, c_hat


@dataclass(frozen=True)
class WeightOperator:
    """Lower-triangular weights w with (I^alpha f)(t_i) ~= sum_j w[i, j] f(t_j).

    Product-trapezoidal: the kernel (t_i - tau)^(alpha-1)/Gamma(alpha) is
    integrated exactly against the piecewise-linear interpolant of f, so
    rows applied to constants reproduce (t_i - a)^alpha / Gamma(alpha+1)
    and linear data is integrated exactly.  w is a first column plus a
    Toeplitz part; only those O(n) numbers are kept, and :meth:`apply`
    convolves with the Toeplitz part by FFT in O(n log n).
    """

    alpha: float
    grid: Grid
    col: np.ndarray = field(repr=False)  # w[1:, 0]
    c_hat: np.ndarray = field(repr=False)  # rfft of the Toeplitz kernel, transform length L

    def apply(self, values: np.ndarray) -> np.ndarray:
        """w @ values for values of shape (n+1,) or (n+1, m); row 0 is 0."""
        v = np.asarray(values, dtype=float)
        n = self.grid.n
        if v.shape[:1] != (n + 1,):
            raise ValueError(f"values must have {n + 1} rows, got shape {v.shape}")
        L = _fft_length(n)
        c_hat = self.c_hat.reshape(self.c_hat.shape + (1,) * (v.ndim - 1))
        # Scaling by a power of two is exact and keeps the FFT's partial sums,
        # up to L max|v|, from overflowing on samples near the float limit.
        e = math.frexp(np.abs(v).max(initial=0.0))[1]
        conv = np.fft.irfft(np.fft.rfft(np.ldexp(v[1:], -e), L, axis=0) * c_hat, L, axis=0)
        out = np.zeros(v.shape)
        out[1:] = np.multiply.outer(self.col, v[0]) + np.ldexp(conv[:n], e)
        return out

    def dense(self) -> np.ndarray:
        """The (n+1, n+1) weight matrix, built on demand and not cached."""
        n = self.grid.n
        col, c = _weight_parts(float(self.alpha), self.grid.a, self.grid.b, n)
        w = np.zeros((n + 1, n + 1))
        w[1:, 0] = col
        for i in range(1, n + 1):
            w[i, 1 : i + 1] = c[i - 1 :: -1]
        return w


def build_weight_operator(alpha: float, grid: Grid) -> WeightOperator:
    """Discrete left-sided fractional integral of order alpha in (0, 1].

    The O(n) kernels are cached per (alpha, interval, n); the cached arrays
    are read-only, so shared use across threads is safe.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    col, c_hat = _weight_kernel(float(alpha), grid.a, grid.b, grid.n)
    return WeightOperator(alpha, grid, col, c_hat)


def left_integral(alpha: float, f: GridFunction) -> GridFunction:
    """I^alpha from the left endpoint; the output vanishes at t = a.

    Rejects inputs flagged singular at a: samples of a blowing-up function
    carry no usable information for quadrature, use the split form instead.
    """
    if not f.left_endpoint_finite:
        raise RegimeError("left_integral requires data finite at t = a")
    op = build_weight_operator(alpha, f.grid)
    return GridFunction(f.grid, op.apply(f.values), True)


def right_integral(alpha: float, f: GridFunction) -> GridFunction:
    """I^alpha from the right endpoint, by reflection of :func:`left_integral`."""
    if not f.left_endpoint_finite:
        raise RegimeError("right_integral requires data finite at t = a")
    g = left_integral(alpha, f.reflected())
    return GridFunction(f.grid, g.values[::-1].copy(), True)


def _differentiate(grid: Grid, g: np.ndarray) -> np.ndarray:
    # Second-order finite differences: central interior, one-sided at the ends.
    h = grid.h
    d = np.empty_like(g)
    d[1:-1] = (g[2:] - g[:-2]) / (2.0 * h)
    d[0] = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h)
    d[-1] = (3.0 * g[-1] - 4.0 * g[-2] + g[-3]) / (2.0 * h)
    return d


def left_derivative_grid(alpha: float, f: GridFunction) -> GridFunction:
    """D^alpha = d/dt I^(1-alpha) on grid samples.

    The result is flagged possibly-singular at t = a; accuracy degrades to
    O(h^(2-alpha)) approaching the left endpoint.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not f.left_endpoint_finite:
        raise RegimeError("left_derivative_grid requires data finite at t = a")
    if f.grid.n < 2:
        raise ValueError("need at least 2 subintervals to differentiate")
    g = left_integral(1.0 - alpha, f)
    return GridFunction(f.grid, _differentiate(f.grid, g.values), False)


def right_derivative_grid(alpha: float, f: GridFunction) -> GridFunction:
    """D^alpha from the right endpoint, by reflection; possibly singular at t = b."""
    if not f.left_endpoint_finite:
        raise RegimeError("right_derivative_grid requires data finite at t = a")
    d = left_derivative_grid(alpha, f.reflected())
    return GridFunction(f.grid, d.values[::-1].copy(), True)


Density = Union[list[PowerTerm], GridFunction]


def _as_vector(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected scalar or (m,) vector, got shape {v.shape}")
    return v


def _check_density(density: Density, a: float, b: float, side: Side) -> Density:
    if isinstance(density, GridFunction):
        if (density.grid.a, density.grid.b) != (a, b):
            raise ValueError(f"density grid must cover [{a}, {b}]")
        return density
    terms = list(density)
    if any(t.side is not side for t in terms):
        raise ValueError(f"density terms must be {side.value}-sided")
    return terms


def _integrate(params: FracParams, density: Density) -> Density:
    """I^alpha density for :func:`_evaluate`: power terms in closed form, grid samples as is."""
    if isinstance(density, GridFunction):
        params.require_continuity_regime()  # the product-trapezoidal rows need it
        return density
    return frac_integral_terms(params.alpha, density)


def _trapezoid_rows(alpha: float, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Product-trapezoidal rows of I^alpha at the points x, shape (len(x), n+1).

    Distances x - t_j are clamped at 0: cells past x contribute nothing and
    the cell holding x is integrated up to x.
    """
    d = np.maximum(x[:, None] - grid.nodes, 0.0)
    da, da1 = d**alpha, d ** (alpha + 1.0)
    m0 = (da[:, :-1] - da[:, 1:]) / alpha
    m1 = d[:, :-1] * m0 - (da1[:, :-1] - da1[:, 1:]) / (alpha + 1.0)
    ga, h = gamma(alpha), grid.h
    rows = np.zeros_like(d)
    rows[:, :-1] = (m0 - m1 / h) / ga
    rows[:, 1:] += m1 / (h * ga)
    return rows


def _evaluate(t, a: float, b: float, side: Side, m: int, density: Density,
              order: float = 0.0, coeff: np.ndarray | None = None) -> np.ndarray:
    """Values of  coeff u^(order-1) / Gamma(order) + I^order density  at the
    points t, shape (len(t), m); u = t - a on the left side, b - t on the right.

    ``coeff`` is an (m,) vector, or None to drop the first term.  Power terms
    are summed in closed form, so callers pass I^order of them; grid samples
    are interpolated linearly (order 0) or integrated by product-trapezoidal
    rows.  For order > 0 the value at u = 0 is the limit 0: coeff must vanish.
    """
    t = np.asarray(t, dtype=float)
    if t.size and not (a <= t.min() and t.max() <= b):
        raise ValueError(f"t={t[~((t >= a) & (t <= b))][0]} outside [{a}, {b}]")
    left = side is Side.LEFT
    u = t - a if left else b - t
    out = np.zeros((t.shape[0], m))
    if order > 0.0 and not (u > 0.0).all():
        if coeff is not None and np.any(coeff != 0.0):
            raise ValueError(f"split function is singular at t = {a if left else b}")
        out[u > 0.0] = _evaluate(t[u > 0.0], a, b, side, m, density, order, coeff)
        return out
    if coeff is not None:
        out = coeff * u[:, None] ** (order - 1.0) / gamma(order)
    if isinstance(density, GridFunction):
        grid, vals = density.grid, density.values
        if order == 0.0:
            return out + np.stack([np.interp(t, grid.nodes, v) for v in vals.T], axis=1)
        x, vals = (t, vals) if left else (a + b - t, vals[::-1])
        step = max(1, 4096 // (grid.n + 1))  # rows per block: bounds the temporaries
        for i in range(0, t.shape[0], step):
            out[i : i + step] += _trapezoid_rows(order, grid, x[i : i + step]) @ vals
        return out
    total = 0.0
    for term in density:
        total = total + term.coeff * u[:, None] ** term.exponent
    return out + total


def _density_bounded(density: Density) -> bool:
    """Whether a density is bounded at its endpoint: the grid flag, or every exponent >= 0."""
    if isinstance(density, GridFunction):
        return density.left_endpoint_finite
    return all(t.exponent >= 0.0 for t in density)


@dataclass(frozen=True)
class SplitFunction:
    """Canonical element q = c u^(alpha-1) / Gamma(alpha) + I^alpha phi.

    On the left u = t - a, ``c`` equals (I^(1-alpha) q)(a) and ``phi`` equals
    D^alpha q; on the right u = b - t, I^alpha is right-sided and both mirror.
    The pair is the exact coordinate system, never recovered numerically.
    """

    params: FracParams
    c: np.ndarray
    phi: Density = field(default_factory=list)
    side: Side = Side.LEFT

    def __post_init__(self) -> None:
        p = self.params
        object.__setattr__(self, "side", Side(self.side))
        object.__setattr__(self, "c", _as_vector(self.c))
        object.__setattr__(self, "phi", _check_density(self.phi, p.a, p.b, self.side))

    # The paper's names for c and phi on the right side.
    d = property(lambda self: self.c)
    psi = property(lambda self: self.phi)

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @cached_property
    def _regular(self) -> Density:
        return _integrate(self.params, self.phi)

    def _values(self, t) -> np.ndarray:
        """q at the points t in [a, b], shape (len(t), m)."""
        p = self.params
        return _evaluate(t, p.a, p.b, self.side, self.m, self._regular, p.alpha, self.c)

    def _density_values(self, t) -> np.ndarray:
        """phi at the points t in [a, b], shape (len(t), m)."""
        return _evaluate(t, self.params.a, self.params.b, self.side, self.m, self.phi)


def RightSplitFunction(params: FracParams, d, psi: Density = ()) -> SplitFunction:
    """Mirror element q = d (b-t)^(alpha-1) / Gamma(alpha) + I^alpha_(b-) psi."""
    return SplitFunction(params, d, psi, Side.RIGHT)


def _require_left(*qs: SplitFunction) -> None:
    if any(q.side is not Side.LEFT for q in qs):
        raise ValueError("this operation takes left split functions only, got a right one")


def _power_terms(q: SplitFunction) -> list[PowerTerm]:
    """q as power terms: the kernel coeff u^(alpha-1)/Gamma(alpha) plus I^alpha
    of its power-term density (u = t-a on the left, b-t on the right)."""
    alpha = q.params.alpha
    return [PowerTerm(q.c / gamma(alpha), alpha - 1.0, q.side)] + q._regular


def eval_split(q: SplitFunction, t: float) -> np.ndarray:
    """Pointwise value on (a, b] for a left split function, on [a, b) for a right one.

    The regular part is exact for power-term densities and a single
    product-trapezoidal row for grid densities.
    """
    return q._values([t])[0]


def sample_split(q: SplitFunction, grid: Grid) -> GridFunction:
    """Evaluate a split function at the grid nodes.

    The node at t = a is 0 when c = 0 (the regular part vanishes there) and
    a ignored placeholder otherwise.
    """
    singular_at_a = bool(np.any(q.c != 0.0))
    start = 1 if singular_at_a else 0
    values = np.zeros((grid.n + 1, q.m))
    values[start:] = q._values(grid.nodes[start:])
    return GridFunction(grid, values, left_endpoint_finite=not singular_at_a)


def left_derivative_split(q: SplitFunction) -> Density:
    """D^alpha q read off the split form: the stored density phi.

    The singular basis term contributes nothing; no numerics involved.
    """
    _require_left(q)
    return q.phi


def left_subdiffusion_boundary_value(q: SplitFunction) -> np.ndarray:
    """(I^(1-alpha) q)(a), read exactly from the split form as c."""
    _require_left(q)
    return q.c


@dataclass(frozen=True)
class RlDerivative:
    """D^alpha of an absolutely continuous q, as singular + regular parts.

    D^alpha q = q(a) (t-a)^(-alpha) / Gamma(1-alpha) + I^(1-alpha) q'.
    """

    alpha: float
    singular_coeff: np.ndarray  # q(a) / Gamma(1-alpha)
    regular: Density
    a: float
    b: float

    def _values(self, t: np.ndarray) -> np.ndarray:
        regular = _evaluate(t, self.a, self.b, Side.LEFT, len(self.singular_coeff), self.regular)
        return self.singular_coeff * (t[:, None] - self.a) ** -self.alpha + regular

    def eval(self, t: float) -> np.ndarray:
        if not self.a < t <= self.b:
            raise ValueError(f"t={t} outside ({self.a}, {self.b}]")
        return self._values(np.array([t], dtype=float))[0]

    def sample(self, grid: Grid) -> GridFunction:
        values = np.zeros((grid.n + 1, self.singular_coeff.shape[0]))
        values[1:] = self._values(grid.nodes[1:])
        return GridFunction(grid, values, left_endpoint_finite=False)


def rl_derivative_of_ac(alpha: float, q_a, qprime: Density, a: float, b: float) -> RlDerivative:
    """Fractional derivative of q(t) = q_a + int_a^t q', without differencing.

    ``qprime`` is either grid samples or left-sided power terms; the regular
    part is I^(1-alpha) q', computed by weights or in closed form.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    q_a = _as_vector(q_a)
    coeff = q_a / gamma(1.0 - alpha)
    if isinstance(qprime, GridFunction):
        regular: Density = left_integral(1.0 - alpha, qprime)
    else:
        regular = frac_integral_terms(1.0 - alpha, _check_density(qprime, a, b, Side.LEFT))
    return RlDerivative(alpha, coeff, regular, a, b)


def admissible_r_range(alpha: float, p: float) -> tuple[float, bool]:
    """Largest exponent range [1, r_max) or [1, r_max] with I^alpha(L^p) in L^r.

    Returns (r_max, inclusive).  r_max = inf with inclusive=True means the
    image is essentially bounded (the continuity regime 1/p < alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not p >= 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if p == 1.0:
        return 1.0 / (1.0 - alpha), False
    if alpha < inv_p:
        return p / (1.0 - alpha * p), True
    if alpha == inv_p:
        return math.inf, False
    return math.inf, True
