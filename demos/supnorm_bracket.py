"""
Bracketing the sup norm on the polydisc
=======================================

The engine squeezes ||P|| between an attained lower estimate (torus grid
search plus local refinement) and a rigorous upper bracket (Szego's
sampling bound on the grid value, or the l1 coefficient norm where smaller).
Refinement runs a safeguarded Newton ascent from every grid cell that the
sampling bound leaves open: along the line of a single free variable in
plain Python, over two or more in one numpy pass per step.  The quadratic
family

    P = a z1^2 + b z2^2 + c z1 z2,   ab < 0,  |c(a+b)| <= 4|ab|

has a closed-form norm (|a|+|b|) sqrt(1 + c^2/(4|ab|)), which makes it a
perfect end-to-end check of the whole machinery.
"""

import math

from bhbounds import HomogeneousPolynomial, coefficient_lp_norm, quadratic_sup_norm, sup_norm
from bhbounds.supnorm import torus_grid_max

a, b, c = 1.0, -1.0, 2.0**1.5
P = HomogeneousPolynomial(2, 2, {(2, 0): a, (0, 2): b, (1, 1): c})

# Step 1: the raw grid lower bound.  K divisible by 4 puts the true
# maximizer of this family on the grid, so K = 64 is already exact here.
value, angles = torus_grid_max(P, 64)
print(f"grid maximum (K=64):   {value:.12f} at angles {tuple(round(t, 4) for t in angles)}")

# Step 2: the two bounds that turn the grid value G into an upper bracket.
# Along the one free axis |P| is a trigonometric polynomial whose exponents
# span D = 2, so Szego's sampling bound gives G / cos(D*pi/(2K)), plus a
# rounding bound of about 1e-13 relative.  The triangle bound, the l1
# coefficient norm (plus the same rounding bound), is looser here.
l1 = coefficient_lp_norm(P, 1.0)
print(f"sampling bound:        G / cos(2*pi/128) = {value / math.cos(2 * math.pi / 128):.12f}")
print(f"triangle bound:        ||c||_1 = {l1:.12f}")

# Step 3: the full bracket, against the closed form.
result = sup_norm(P)
exact = quadratic_sup_norm(a, b, c)
print(f"bracket:               [{result.lower_estimate:.12f}, {result.upper_bracket:.12f}]")
print(f"closed form sqrt(12):  {exact:.12f}")
print(f"lower-estimate error:  {abs(result.lower_estimate - exact):.2e}")

# The grid is the engine's only setting.  Refining it shrinks the bracket;
# the certified side of any ratio built on this bracket improves accordingly.
print("\nbracket width by grid size:")
for K in (16, 64, 256, 1024):
    r = sup_norm(P, K)
    print(f"  K = {K:4d}: width = {r.upper_bracket - r.lower_estimate:.6f}")
