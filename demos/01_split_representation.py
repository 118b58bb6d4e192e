"""Split representations: the canonical coordinates of fractional calculus.

A function with an integrable fractional derivative of order alpha in (0,1)
decomposes uniquely as

    q(t) = c / (Gamma(alpha) (t-a)^(1-alpha)) + (I^alpha phi)(t),

where c is the value of I^(1-alpha) q at the left endpoint and phi is the
fractional derivative D^alpha q.  This demo builds such functions, shows the
boundary blow-up carried by c, and checks the operator calculus on powers.
"""

import numpy as np

from fraclab import (
    FracParams,
    Grid,
    GridFunction,
    PowerTerm,
    SplitFunction,
    eval_split,
    frac_derivative_power,
    frac_integral_power,
    gamma,
    left_derivative_split,
    left_integral,
    left_subdiffusion_boundary_value,
    sample_split,
)

params = FracParams(alpha=0.6, p=4.0, a=0.0, b=1.0)
print(f"working on [0, 1] with alpha = {params.alpha}, p = {params.p}")
print(f"continuity regime (1/p < alpha): {params.is_continuity_regime()}")

# A split function with both a singular part and a smooth density.
q = SplitFunction(params, c=[0.5], phi=[PowerTerm(1.0, 0.0), PowerTerm(-0.5, 1.0)])
print("\nq = 0.5 * kernel + I^0.6 (1 - 0.5 t); values approaching t = a:")
for t in (0.5, 0.1, 0.01, 0.001):
    print(f"  q({t:7.3f}) = {float(eval_split(q, t)[0]):12.6f}")
print("the blow-up rate is (t-a)^(alpha-1); its coefficient is read exactly:")
print(f"  (I^(1-alpha) q)(a) = {float(left_subdiffusion_boundary_value(q)[0])}")
print(f"  D^alpha q = stored density ({len(left_derivative_split(q))} power terms)")

# Fractional calculus on powers is closed form.
print("\nclosed-form calculus on shifted powers:")
t1 = PowerTerm(1.0, 1.0)  # (t-a)
i_t = frac_integral_power(0.5, t1)
d_t = frac_derivative_power(0.5, t1)
print(f"  I^0.5 (t-a)   = {float(np.asarray(i_t.coeff)):.10f} (t-a)^{i_t.exponent}")
print(f"  D^0.5 (t-a)   = {float(np.asarray(d_t.coeff)):.10f} (t-a)^{d_t.exponent}")
kernel = PowerTerm(1.0, params.alpha - 1.0)
print(f"  D^0.6 (t-a)^(alpha-1) = {frac_derivative_power(0.6, kernel)}  (annihilated)")

# The semigroup property I^a1 I^a2 = I^(a1+a2), exact on powers.
one = frac_integral_power(0.3, frac_integral_power(0.4, PowerTerm(1.0, 0.0)))
two = frac_integral_power(0.7, PowerTerm(1.0, 0.0))
print("\nsemigroup on powers: I^0.3 I^0.4 1 vs I^0.7 1")
print(f"  coefficients {float(np.asarray(one.coeff)):.15f} vs {float(np.asarray(two.coeff)):.15f}")

# Grid operators: product-trapezoidal weights, applied as an FFT convolution.
grid = Grid(0.0, 1.0, 512)
f = GridFunction(grid, np.ones((513, 1)))
out = left_integral(0.5, f)
ref = grid.nodes**0.5 / gamma(1.5)
print(f"\ngrid I^0.5 of f = 1 on {grid.n} cells: sup error vs t^0.5/Gamma(1.5) "
      f"= {np.max(np.abs(out.values[:, 0] - ref)):.2e}")

# Sampling a split function keeps the singular node flagged.
s = sample_split(q, Grid(0.0, 1.0, 8))
print(f"\nsampled q: left endpoint finite = {s.left_endpoint_finite} "
      "(the t = a node is a placeholder)")
