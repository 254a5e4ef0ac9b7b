"""Independent brute-force oracles for the test suite.

Everything here re-derives quantities from first principles (direct grid
evaluation, direct formula evaluation) without touching the library's
grid/refine machinery, so a bug in the engine cannot hide in its own
oracle.  The one-free-axis line maximum is kept in its scalar form (np.roots
on the whole line, P.evaluate) as the reference for sup_norm on one free
axis.  The sequential search at the end is a reference for the search's
scheduling, not its numbers: it reuses the library's phase table,
bh_ratio and certify.  upper_bracket_from_parts likewise rebuilds
sup_norm's upper bracket from the library's parts, so tests can check
that sup_norm puts them together as documented.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterator

import numpy as np

from bhbounds import HomogeneousPolynomial, SearchConfig, WitnessCertificate, bh_ratio
from bhbounds.poly import MultiIndex, _lp_norm, bh_exponent
from bhbounds.search import (
    _STEP_INIT,
    _STEP_MIN,
    _phase_table,
    _vector_to_polynomial,
    certify,
    degree_multi_indices,
    family_seed_vector,
)
from bhbounds.supnorm import (
    _NOT_FINITE,
    _free_axes,
    _rounding_bound,
    _unit_exponent,
)


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


def sampling_parts(P: HomogeneousPolynomial, K: int) -> tuple[float, float]:
    """(prod_j cos(D_j pi/(2K)), E) of sup_norm's sampling bound over the
    free axes j, D_j the span of axis j's exponents and E the library's
    rounding bound; the product is 0 when some D_j >= K, and (1, 0)
    stands for no free axis."""
    axes = _free_axes(P)
    if not axes:
        return 1.0, 0.0
    spans = [max(a[j] for a in P.terms) - min(a[j] for a in P.terms) for j in axes]
    e = _unit_exponent(P)
    l1 = math.fsum(abs(c * 2.0**-e) for c in P.terms.values())
    error = _rounding_bound(P.degree, len(P.terms), P.num_vars, K, l1) * 2.0**e
    if max(spans) >= K:
        return 0.0, error
    return math.prod(math.cos(D * math.pi / (2 * K)) for D in spans), error


def upper_bracket_from_parts(P: HomogeneousPolynomial, K: int, grid_value: float) -> float:
    """sup_norm's upper bracket from the grid value G and the library's
    parts: min(||c||_1 + E, (G + E) / prod_j cos(D_j pi/(2K))) (see
    sampling_parts, coefficient_l1); the second term is inf when some
    D_j >= K and G without a free axis, where E is 0."""
    ratio, error = sampling_parts(P, K)
    sampled = (grid_value + error) / ratio if ratio else math.inf
    return min(coefficient_l1(P) + error, sampled)


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


# --- the sequential search, one restart at a time -----------------------------
#
# The grid-score search as it was before restarts ran in lockstep windows and
# finalists that cannot win were skipped: _grid_column, _grid_values,
# _grid_score and _run_restart verbatim, and a merge that scores every
# finalist with bh_ratio.  search() must return the same certificate.


def _grid_column(table: np.ndarray | None, alpha: MultiIndex) -> np.ndarray:
    """Phi[:, alpha]: the values of z^alpha on the grid, axis 0 at angle 0
    and the grid points of axes 1..N-1 flattened with the last fastest.
    One variable has the one grid point 1 and no table (None)."""
    if len(alpha) == 1:
        return np.ones(1, dtype=np.complex128)
    column = table[alpha[1]]
    for a in alpha[2:]:
        column = np.multiply.outer(column, table[a]).ravel()
    return column


def _grid_values(
    table: np.ndarray | None, indices: list[MultiIndex], vec: np.ndarray
) -> np.ndarray:
    """v = Phi vec, one column at a time."""
    n = len(indices[0])
    values = np.zeros(table.shape[1] ** (n - 1) if n > 1 else 1, dtype=np.complex128)
    # _grid_score reports an overflow, so numpy's warning is not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, c in zip(indices, vec.tolist()):
            if c:
                values += c * _grid_column(table, alpha)
    return values


def _grid_score(vec: np.ndarray, values: np.ndarray, p: float) -> float:
    """||vec||_p / max_k |values_k|; -inf for the zero vector or an all-zero
    grid, and the ValueError of sup_norm for a grid value that is not
    finite."""
    peak = float(np.abs(values).max())
    if not math.isfinite(peak):
        raise ValueError(_NOT_FINITE)
    mags = np.abs(vec).tolist()
    if peak == 0.0 or not any(mags):
        return -math.inf
    return _lp_norm(mags, p) / peak


def reference_run_restart(
    cfg: SearchConfig, indices: list[MultiIndex], table: np.ndarray | None, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern search of restart r on grid scores: its start vector and the
    best vector it reached."""
    rng = np.random.default_rng(cfg.rng_seed + r)
    if r == 0:
        start = family_seed_vector(cfg.m, cfg.num_vars, indices)
    else:
        start = rng.uniform(-2.0, 2.0, len(indices))

    p = bh_exponent(cfg.m)
    best_vec = start
    best_values = _grid_values(table, indices, start)
    best_val = _grid_score(best_vec, best_values, p)
    evals = 1
    step = _STEP_INIT
    while step >= _STEP_MIN:
        improved = False
        for i in range(len(indices)):
            column = _grid_column(table, indices[i])
            for sign in (1.0, -1.0):
                if evals >= cfg.eval_budget:
                    return start, best_vec
                candidate = best_vec.copy()
                candidate[i] += sign * step
                values = best_values + (sign * step) * column
                val = _grid_score(candidate, values, p)
                evals += 1
                if val > best_val:
                    best_vec, best_values, best_val = candidate, values, val
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return start, best_vec


def reference_finalists(cfg: SearchConfig) -> list[tuple[int, np.ndarray]]:
    """(restart, vector) of every finalist of the sequential search, in
    merge order: each restart's start, then its final vector if it moved."""
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    table = _phase_table(cfg.m, cfg.grid) if cfg.num_vars >= 2 else None
    finalists = []
    for r in range(cfg.restarts):
        start, final = reference_run_restart(cfg, indices, table, r)
        finalists.append((r, start))
        if final is not start:
            finalists.append((r, final))
    return finalists


def reference_search(cfg: SearchConfig) -> WitnessCertificate:
    """The sequential search: every finalist scored by bh_ratio, the
    earliest largest estimate certified."""
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    best = None
    for r, vec in reference_finalists(cfg):
        poly = _vector_to_polynomial(cfg.m, cfg.num_vars, indices, vec)
        estimate = bh_ratio(poly, cfg.grid).estimate
        if best is None or estimate > best[0]:
            best = (estimate, r, poly)
    _, index, poly = best
    return certify(poly, cfg.grid, search_config=cfg, restart_index=index)
