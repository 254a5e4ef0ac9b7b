"""Independent brute-force oracles for the test suite.

Everything here re-derives quantities from first principles (direct grid
evaluation, direct formula evaluation) without touching the library's
grid/refine machinery, so a bug in the engine cannot hide in its own
oracle.  The one-free-axis line maximum is kept in its scalar form (np.roots
on the whole line, P.evaluate) as the reference for sup_norm on one free
axis.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterator

import numpy as np

from bhbounds import HomogeneousPolynomial, degree_multi_indices


def brute_force_torus_max(P: HomogeneousPolynomial, K: int) -> float:
    """Max of |P| over the full K^N angle grid by direct evaluation.

    For three variables only the theta_1 = 0 slice is evaluated, which
    holds every grid value (see _brute_3d); full_grid_max checks that.
    """
    if P.num_vars == 1:
        return _brute_1d(P, K)
    if P.num_vars == 2:
        return _brute_2d(P, K)
    if P.num_vars == 3:
        return _brute_3d(P, K)
    raise ValueError("oracle only handles up to 3 variables")


def brute_force_torus_argmax(
    P: HomogeneousPolynomial, K: int
) -> tuple[float, tuple[float, ...]]:
    """Grid max plus an attaining angle vector (2-variable case)."""
    if P.num_vars != 2:
        raise ValueError("argmax oracle only handles 2 variables")
    theta = 2 * np.pi * np.arange(K) / K
    vals = np.zeros((K, K), dtype=np.complex128)
    for alpha, c in P.terms.items():
        vals += c * np.exp(1j * np.add.outer(alpha[0] * theta, alpha[1] * theta))
    mags = np.abs(vals)
    k1, k2 = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return float(mags[k1, k2]), (float(theta[k1]), float(theta[k2]))


def _brute_1d(P: HomogeneousPolynomial, K: int) -> float:
    theta = 2 * np.pi * np.arange(K) / K
    vals = np.zeros(K, dtype=np.complex128)
    for alpha, c in P.terms.items():
        vals += c * np.exp(1j * alpha[0] * theta)
    return float(np.abs(vals).max())


def _brute_2d(P: HomogeneousPolynomial, K: int) -> float:
    theta = 2 * np.pi * np.arange(K) / K
    vals = np.zeros((K, K), dtype=np.complex128)
    for alpha, c in P.terms.items():
        vals += c * np.exp(1j * np.add.outer(alpha[0] * theta, alpha[1] * theta))
    return float(np.abs(vals).max())


def _brute_3d(P: HomogeneousPolynomial, K: int) -> float:
    # |P| is invariant under the diagonal phase theta -> theta + phi*(1, 1, 1)
    # (P is homogeneous), and a shift by one grid step permutes the grid, so
    # every grid value also appears on the theta_1 = 0 slice.
    theta = 2 * np.pi * np.arange(K) / K
    vals = np.zeros((K, K), dtype=np.complex128)
    for alpha, c in P.terms.items():
        vals += c * np.exp(1j * np.add.outer(alpha[1] * theta, alpha[2] * theta))
    return float(np.abs(vals).max())


def full_grid_max(P: HomogeneousPolynomial, K: int) -> float:
    """Max of |P| over all K^N grid points, using no symmetry (small K only)."""
    theta = 2 * np.pi * np.arange(K) / K
    axes = np.meshgrid(*([theta] * P.num_vars), indexing="ij")
    vals = np.zeros(axes[0].shape, dtype=np.complex128)
    for alpha, c in P.terms.items():
        vals += c * np.exp(1j * sum(a * t for a, t in zip(alpha, axes)))
    return float(np.abs(vals).max())


def evaluate_grid_max(P: HomogeneousPolynomial, K: int) -> float:
    """Max of |P.evaluate| over the K^(N-1) grid points with theta_1 = 0,
    one point at a time; by the diagonal phase (see _brute_3d) these hold
    every value of the full K^N grid."""
    roots = [cmath.exp(2j * math.pi * k / K) for k in range(K)]
    return max(
        abs(P.evaluate((1.0 + 0j,) + tuple(roots[k] for k in point)))
        for point in itertools.product(range(K), repeat=P.num_vars - 1)
    )


def line_coefficients(P: HomogeneousPolynomial, angles, axis: int) -> np.ndarray:
    """g with P(theta with theta_axis = t) = sum_a g_a e^{i a t}."""
    g = np.zeros(P.degree + 1, dtype=np.complex128)
    for alpha, coeff in P.terms.items():
        phase = sum(alpha[l] * angles[l] for l in range(len(angles)) if l != axis)
        g[alpha[axis]] += coeff * cmath.exp(1j * phase)
    return g


def scalar_line_max(P: HomogeneousPolynomial, angles, axis: int) -> tuple[float, float]:
    """Maximum of |P| along one axis from angles, one polynomial at a time.

    The line g is trimmed to its nonzero span and scaled to unit peak;
    |sum g_a e^{iat}|^2 has the autocorrelation h = correlate(g, g) as
    coefficients, and np.roots gives the roots of its derivative.  Returns
    the best of |P.evaluate| at angles and at every root angle, and that
    angle.
    """
    best = abs(P.evaluate([cmath.exp(1j * t) for t in angles])), angles[axis]
    g = line_coefficients(P, angles, axis)
    nonzero = g.nonzero()[0]
    if len(nonzero) < 2:
        return best
    g = g[nonzero[0] : nonzero[-1] + 1]
    g = g / abs(g).max()
    D = len(g) - 1
    h = np.correlate(g, g, "full")
    for t in np.angle(np.roots((np.arange(-D, D + 1) * h)[::-1])).tolist():
        point = list(angles)
        point[axis] = t % (2 * math.pi)
        value = abs(P.evaluate([cmath.exp(1j * a) for a in point]))
        if value > best[0]:
            best = value, point[axis]
    return best


def coefficient_l1(P: HomogeneousPolynomial) -> float:
    return math.fsum(abs(c) for c in P.terms.values())


def lipschitz_slack(P: HomogeneousPolynomial, K: int) -> float:
    """Worst-case drift of the brute grid itself: (sum_j,a |c| a_j) * pi/K."""
    L = math.fsum(abs(c) * sum(alpha) for alpha, c in P.terms.items())
    return L * math.pi / K


def brute_lp_norm(P: HomogeneousPolynomial, p: float) -> float:
    """Plain unscaled power-sum norm, as naive as possible."""
    return sum(abs(c) ** p for c in P.terms.values()) ** (1.0 / p)


def direct_lower_bound(m: int) -> float:
    """The closed-form constant, evaluated literally (safe for small m)."""
    return (2.0 + 2.0**m) ** ((m + 1) / (2.0 * m)) / math.sqrt(4.0 + 2.0 ** (m + 1))


def direct_upper_bound(m: int) -> float:
    return (1.0 + 1.0 / m) ** (m - 1) * math.sqrt(m) * math.sqrt(2.0) ** (m - 1)


def random_valid_quadratic(rng: np.random.Generator) -> tuple[float, float, float]:
    """Random (a, b, c) strictly inside the closed-form validity domain."""
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    a = sign * rng.uniform(0.2, 2.0)
    b = -sign * rng.uniform(0.2, 2.0)
    denom = abs(a + b)
    c_max = 4.0 if denom < 1e-9 else min(4.0, 4.0 * abs(a * b) / denom)
    c = rng.uniform(-c_max, c_max) * 0.999
    return a, b, c


def random_polynomial(
    rng: np.random.Generator, m: int, n: int, density: float = 0.7
) -> HomogeneousPolynomial:
    """Random sparse polynomial with complex coefficients in [-2, 2]^2."""
    terms = {}
    for alpha in degree_multi_indices(m, n):
        if rng.uniform() <= density:
            terms[alpha] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if not terms:
        alpha = degree_multi_indices(m, n)[0]
        terms[alpha] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return HomogeneousPolynomial(m, n, terms)


def recursive_multi_indices(m: int, n: int) -> list[tuple[int, ...]]:
    """Weight-m exponent vectors on n variables: every first exponent, then
    every completion on the other variables, sorted lexicographically."""

    def gen(prefix: tuple[int, ...], remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        for a in range(remaining, -1, -1):
            yield from gen(prefix + (a,), remaining - a, slots - 1)

    return sorted(gen((), m, n))

