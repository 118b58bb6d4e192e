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
    "eval_right_split",
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


@dataclass(frozen=True)
class WeightOperator:
    """Lower-triangular weights w with (I^alpha f)(t_i) ~= sum_j w[i, j] f(t_j).

    Product-trapezoidal: the kernel (t_i - tau)^(alpha-1)/Gamma(alpha) is
    integrated exactly against the piecewise-linear interpolant of f, so
    rows applied to constants reproduce (t_i - a)^alpha / Gamma(alpha+1)
    and linear data is integrated exactly.
    """

    alpha: float
    grid: Grid
    weights: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.weights @ values


def _second_difference(alpha: float, k: np.ndarray) -> np.ndarray:
    # (k-1)^(a+1) - 2 k^(a+1) + (k+1)^(a+1), evaluated as
    # k^(a+1) * (expm1((a+1) log1p(1/k)) + expm1((a+1) log1p(-1/k)))
    # to avoid the catastrophic cancellation of the direct form.
    # k = 1 passes through log1p(-1) = -inf, expm1(-inf) = -1 exactly.
    e = alpha + 1.0
    with np.errstate(divide="ignore"):
        up = e * np.log1p(1.0 / k)
        um = e * np.log1p(-1.0 / k)
    return k**e * (np.expm1(up) + np.expm1(um))


def _first_column(alpha: float, i: np.ndarray) -> np.ndarray:
    # (alpha+1) i^alpha - i^(alpha+1) + (i-1)^(alpha+1), same rewrite.
    e = alpha + 1.0
    with np.errstate(divide="ignore"):
        u = e * np.log1p(-1.0 / i)
    return i**e * (e / i + np.expm1(u))


@functools.lru_cache(maxsize=32)
def _weight_matrix(alpha: float, a: float, b: float, n: int) -> np.ndarray:
    h = (b - a) / n
    pref = h**alpha / gamma(alpha + 2.0)
    w = np.zeros((n + 1, n + 1))
    if n >= 1:
        i = np.arange(1, n + 1, dtype=float)
        w[1:, 0] = pref * _first_column(alpha, i)
        w[np.arange(1, n + 1), np.arange(1, n + 1)] = pref
    if n >= 2:
        k = np.arange(1, n, dtype=float)
        interior = pref * _second_difference(alpha, k)
        for i in range(2, n + 1):
            w[i, 1:i] = interior[i - 2 :: -1]
    # Scheme sanity: for this kernel every product-trapezoidal weight is >= 0.
    assert np.all(w >= 0.0)
    w.setflags(write=False)
    return w


def build_weight_operator(alpha: float, grid: Grid) -> WeightOperator:
    """Discrete left-sided fractional integral of order alpha in (0, 1].

    Weight matrices are cached per (alpha, interval, n); the cached array is
    read-only, so shared use across threads is safe.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    w = _weight_matrix(float(alpha), grid.a, grid.b, grid.n)
    return WeightOperator(alpha, grid, w)


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


@dataclass(frozen=True)
class SplitFunction:
    """Canonical element q = c (t-a)^(alpha-1) / Gamma(alpha) + I^alpha phi.

    ``c`` equals (I^(1-alpha) q)(a) and ``phi`` equals D^alpha q; the pair
    is the exact coordinate system, never recovered numerically.
    """

    params: FracParams
    c: np.ndarray
    phi: Density = field(default_factory=list)

    def __post_init__(self) -> None:
        p = self.params
        object.__setattr__(self, "c", _as_vector(self.c))
        object.__setattr__(self, "phi", _check_density(self.phi, p.a, p.b, Side.LEFT))

    @property
    def m(self) -> int:
        return self.c.shape[0]

    @cached_property
    def _regular(self) -> Density:
        return _integrate(self.params, self.phi)

    def _values(self, t) -> np.ndarray:
        """q at the points t in [a, b], shape (len(t), m)."""
        p = self.params
        return _evaluate(t, p.a, p.b, Side.LEFT, self.m, self._regular, p.alpha, self.c)

    def _density_values(self, t) -> np.ndarray:
        """D^alpha q = phi at the points t in [a, b], shape (len(t), m)."""
        return _evaluate(t, self.params.a, self.params.b, Side.LEFT, self.m, self.phi)


@dataclass(frozen=True)
class RightSplitFunction:
    """Mirror element q = d (b-t)^(alpha-1) / Gamma(alpha) + I^alpha_(b-) psi."""

    params: FracParams
    d: np.ndarray
    psi: Density = field(default_factory=list)

    def __post_init__(self) -> None:
        p = self.params
        object.__setattr__(self, "d", _as_vector(self.d))
        object.__setattr__(self, "psi", _check_density(self.psi, p.a, p.b, Side.RIGHT))

    @property
    def m(self) -> int:
        return self.d.shape[0]

    @cached_property
    def _regular(self) -> Density:
        return _integrate(self.params, self.psi)


def eval_split(q: SplitFunction, t: float) -> np.ndarray:
    """Pointwise value of a left split function on (a, b], including t = b.

    The regular part is exact for power-term densities and a single
    product-trapezoidal row for grid densities.
    """
    return q._values([t])[0]


def eval_right_split(q: RightSplitFunction, t: float) -> np.ndarray:
    """Pointwise value of a right split function on [a, b)."""
    p = q.params
    return _evaluate([t], p.a, p.b, Side.RIGHT, q.m, q._regular, p.alpha, q.d)[0]


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
    return q.phi


def left_subdiffusion_boundary_value(q: SplitFunction) -> np.ndarray:
    """(I^(1-alpha) q)(a), read exactly from the split form as c."""
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
