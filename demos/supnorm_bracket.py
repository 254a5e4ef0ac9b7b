"""
Bracketing the sup norm on the polydisc
=======================================

The engine squeezes ||P|| between an attained lower estimate (torus grid
search plus local refinement) and a rigorous upper bracket (grid value
plus a first-order Lipschitz slack).  Refinement maximises |P| exactly
along a line of one free variable; with two or more free variables it
takes safeguarded Newton steps and confirms with a sweep of exact line
maximisations.  The quadratic family

    P = a z1^2 + b z2^2 + c z1 z2,   ab < 0,  |c(a+b)| <= 4|ab|

has a closed-form norm (|a|+|b|) sqrt(1 + c^2/(4|ab|)), which makes it a
perfect end-to-end check of the whole machinery.
"""

import math

from bhbounds import (
    HomogeneousPolynomial,
    quadratic_sup_norm,
    sup_norm,
    torus_grid_max,
    torus_lipschitz_bound,
)

a, b, c = 1.0, -1.0, 2.0**1.5
P = HomogeneousPolynomial(2, 2, {(2, 0): a, (0, 2): b, (1, 1): c})

# Step 1: the raw grid lower bound.  K divisible by 4 puts the true
# maximizer of this family on the grid, so K = 64 is already exact here.
value, angles = torus_grid_max(P, 64)
print(f"grid maximum (K=64):   {value:.12f} at angles {tuple(round(t, 4) for t in angles)}")

# Step 2: the Lipschitz slack that turns the grid value into an upper
# bracket.  Crude by design: degree times the l1 coefficient norm.
L = torus_lipschitz_bound(P)
print(f"Lipschitz bound L:     {L:.6f}  ->  slack L*pi/K = {L * math.pi / 64:.6f}")

# Step 3: the full bracket, against the closed form.
result = sup_norm(P)
exact = quadratic_sup_norm(a, b, c)
print(f"bracket:               [{result.lower_estimate:.12f}, {result.upper_bracket:.12f}]")
print(f"closed form sqrt(12):  {exact:.12f}")
print(f"lower-estimate error:  {abs(result.lower_estimate - exact):.2e}")

# The grid is the engine's only setting.  Tightening it shrinks the slack;
# the certified side of any ratio built on this bracket improves accordingly.
print("\nbracket width by grid size:")
for K in (16, 64, 256, 1024):
    r = sup_norm(P, K)
    print(f"  K = {K:4d}: width = {r.upper_bracket - r.lower_estimate:.6f}")
