"""Supremum norm of a homogeneous polynomial on the closed unit polydisc.

The maximum of |P| over {z : |z_j| <= 1} is attained with every |z_j| = 1
(apply the maximum modulus principle one coordinate at a time), so the
whole module works on the torus: the objective is

    g(theta) = |P(e^{i theta_1}, ..., e^{i theta_N})|.

Variables whose exponent is the same in every term only contribute a
unimodular factor on the torus, so they are pinned to angle zero.  An
m-homogeneous P also has P(e^{i phi} z) = e^{i m phi} P(z), so g is
invariant under the diagonal phase theta -> theta + phi*(1, ..., 1); the
first remaining (active) axis is pinned to zero as well and the search
runs on the quotient torus over the other, free, axes.  For the witness
family this leaves one free axis at every degree.

Strategy: a uniform angle grid over the free axes gives a lower bound and
a starting point, cyclic coordinate ascent maximises each line exactly
(the line is a trigonometric polynomial, maximised through the roots of
its derivative), and a first-order Lipschitz slack turns the grid value
into a rigorous upper bracket.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .poly import HomogeneousPolynomial

TWO_PI = 2.0 * math.pi

# Hard cap on evaluated grid points (over the free axes only).
MAX_GRID_POINTS = 1 << 26

# Grid points evaluated per numpy slab; bounds peak memory per worker.
_SLAB_POINTS = 1 << 20


class GridTooLargeError(ValueError):
    """The requested torus grid exceeds the addressable size."""


class FormulaDomainError(ValueError):
    """A closed-form norm formula was requested outside its validity domain."""


@dataclass(frozen=True)
class SupNormConfig:
    """Tuning knobs for the grid-then-refine sup-norm engine."""

    grid_points_per_axis: int = 64
    refine_tolerance: float = 1e-10
    max_refine_iterations: int = 200
    parallel_chunks: int = 1

    def __post_init__(self) -> None:
        if self.grid_points_per_axis < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if self.refine_tolerance <= 0:
            raise ValueError("refine_tolerance must be > 0")
        if self.max_refine_iterations < 1:
            raise ValueError("max_refine_iterations must be >= 1")
        if self.parallel_chunks < 1:
            raise ValueError("parallel_chunks must be >= 1")


@dataclass(frozen=True)
class SupNormResult:
    """Two-sided bracket lower_estimate <= ||P|| <= upper_bracket.

    lower_estimate is |P| at e^{i arg_angles}, so it is always attained;
    grid_used records the grid points per axis that produced the bracket.
    """

    lower_estimate: float
    upper_bracket: float
    arg_angles: tuple[float, ...]
    grid_used: int
    converged: bool

    def __post_init__(self) -> None:
        if self.lower_estimate > self.upper_bracket:
            raise ValueError("lower_estimate exceeds upper_bracket")


class RefineResult(NamedTuple):
    value: float
    angles: tuple[float, ...]
    sweeps: int
    converged: bool


def _free_axes(P: HomogeneousPolynomial) -> list[int]:
    """Axes the torus search varies: those whose exponent varies across
    terms, except the first of them.

    A variable with the same exponent a in every term factors out as
    z_j^a, which has modulus one on the torus; |P| does not depend on its
    angle, so it is pinned to 0.  The first varying axis is pinned to 0 by
    the diagonal phase: moving every angle by the same phi leaves |P|
    unchanged, so every orbit meets the slice where that angle is 0.  Two
    terms of equal degree that differ on one axis differ on two, so a
    polynomial with two or more terms always keeps a free axis.
    """
    alphas = list(P.terms)
    if len(alphas) <= 1:
        return []
    first = alphas[0]
    return [
        j for j in range(P.num_vars) if any(alpha[j] != first[j] for alpha in alphas)
    ][1:]


def _phase_tables(P: HomogeneousPolynomial, axes: list[int], K: int) -> list[np.ndarray]:
    """tables[t][a, k] = exp(2*pi*i * a * k / K) for axis axes[t]."""
    tables = []
    for j in axes:
        max_exp = max(alpha[j] for alpha in P.terms)
        tables.append(
            np.exp(2j * np.pi * np.outer(np.arange(max_exp + 1), np.arange(K)) / K)
        )
    return tables


def _grid_chunk_max(
    P: HomogeneousPolynomial,
    axes: list[int],
    tables: list[np.ndarray],
    K: int,
    start: int,
    stop: int,
) -> tuple[float, int]:
    """Max of |P| over flat grid indices [start, stop) and its first argmax.

    Flat index order is row-major over the free axes in ascending
    variable order, which is exactly lexicographic order of the angle
    vectors; np.argmax returns the first maximizer, so scanning slabs in
    order preserves the global lexicographic tie-break.
    """
    best_val = -1.0
    best_flat = start
    for lo in range(start, stop, _SLAB_POINTS):
        hi = min(lo + _SLAB_POINTS, stop)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = []
        rem = idx
        for _ in range(len(axes)):
            rem, digit = np.divmod(rem, K)
            digits.append(digit)
        digits.reverse()  # digits[t] now corresponds to axes[t]
        vals = np.zeros(hi - lo, dtype=np.complex128)
        for alpha, coeff in P.terms.items():
            term = np.full(hi - lo, coeff, dtype=np.complex128)
            for t, j in enumerate(axes):
                if alpha[j]:
                    term *= tables[t][alpha[j]][digits[t]]
            vals += term
        mags = np.abs(vals)
        local = int(np.argmax(mags))
        if mags[local] > best_val:
            best_val = float(mags[local])
            best_flat = lo + local
    return best_val, best_flat


def torus_grid_max(
    P: HomogeneousPolynomial, K: int, parallel_chunks: int = 1
) -> tuple[float, tuple[float, ...]]:
    """Max of |P(e^{i theta})| over the uniform K^N angle grid.

    Returns the value (a valid lower bound on ||P||) and an attaining
    angle vector; ties are broken by the lexicographically smallest
    vector.  Only the free axes are scanned, K^(d-1) points for d active
    axes: a diagonal shift by one grid step permutes the grid and keeps
    |P|, so every grid maximum has a copy whose first active angle is 0,
    and the lexicographically smallest one is such a copy.  Pinned angles
    are 0, so the result is that of a literal scan of all K^N points, up
    to rounding in the values of shifted copies.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if P.is_zero:
        return 0.0, (0.0,) * P.num_vars
    axes = _free_axes(P)
    if not axes:
        # No free axis means a single term.
        (coeff,) = P.terms.values()
        return abs(coeff), (0.0,) * P.num_vars
    total = K ** len(axes)
    if total > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid of {K}^{len(axes)} = {total} points exceeds the limit of "
            f"{MAX_GRID_POINTS}; use fewer variables or a smaller grid"
        )
    tables = _phase_tables(P, axes, K)
    chunks = min(parallel_chunks, total)
    bounds = [(total * c) // chunks for c in range(chunks + 1)]
    ranges = [(bounds[c], bounds[c + 1]) for c in range(chunks)]

    def run(span: tuple[int, int]) -> tuple[float, int]:
        return _grid_chunk_max(P, axes, tables, K, span[0], span[1])

    if chunks > 1:
        with ThreadPoolExecutor(max_workers=min(chunks, os.cpu_count() or 1)) as pool:
            results = list(pool.map(run, ranges))
    else:
        results = [run(span) for span in ranges]

    # Deterministic max-reduce in chunk order; strict inequality keeps the
    # earliest (lexicographically smallest) argmax on ties.
    best_val, best_flat = results[0]
    for val, flat in results[1:]:
        if val > best_val:
            best_val, best_flat = val, flat

    angles = [0.0] * P.num_vars
    rem = best_flat
    for j in reversed(axes):
        rem, digit = divmod(rem, K)
        angles[j] = TWO_PI * digit / K
    return best_val, tuple(angles)


def _torus_point(angles: tuple[float, ...] | list[float]) -> tuple[complex, ...]:
    return tuple([cmath.exp(1j * t) for t in angles])


def _line_argmax(P: HomogeneousPolynomial, angles: list[float], axis: int) -> float | None:
    """Global maximiser t of f(t) = |P(theta with theta_axis = t)|^2.

    With the other angles frozen, P = sum_a g_a e^{i a t}.  Trimmed to its
    nonzero span of D+1 entries (a unimodular factor drops out) and scaled
    to unit peak, f(t) = sum_{|k|<=D} h_k e^{i k t} with h = correlate(g, g),
    and f'(t) = 0 exactly when w = e^{i t} is a root of
    sum_k k h_k w^(k+D).  f is evaluated at the angle of every root, so
    the best is the global maximiser up to root accuracy.  Returns None
    when f is constant.
    """
    g = np.zeros(P.degree + 1, dtype=np.complex128)
    for alpha, coeff in P.terms.items():
        phase = sum(alpha[l] * angles[l] for l in range(len(angles)) if l != axis)
        g[alpha[axis]] += coeff * cmath.exp(1j * phase)
    nonzero = np.flatnonzero(g)
    if len(nonzero) < 2:
        return None
    g = g[nonzero[0] : nonzero[-1] + 1]
    g /= np.abs(g).max()
    D = len(g) - 1
    h = np.correlate(g, g, "full")
    ts = np.angle(np.roots((np.arange(-D, D + 1) * h)[::-1]))
    fs = np.abs(np.exp(1j * np.outer(ts, np.arange(D + 1))) @ g)
    return float(ts[int(np.argmax(fs))])


def refine_local(
    P: HomogeneousPolynomial,
    angles: tuple[float, ...] | list[float],
    tol: float = 1e-10,
    max_iter: int = 200,
) -> RefineResult:
    """Cyclic coordinate ascent on theta -> |P(e^{i theta})| over the free axes.

    Each free coordinate moves to the global maximum of |P| along its
    line, found exactly (see _line_argmax).  Pinned axes keep their angles;
    every diagonal-phase orbit meets the points that share them.  A move
    is accepted only if the re-evaluated |P| strictly increases, so the
    returned value never drops below the input value.  With one free axis
    that line is the whole quotient torus, so one sweep finds the global
    maximum and the ascent stops (converged).  Otherwise it stops when a
    sweep improves the value by less than tol (converged) or after
    max_iter sweeps (not converged).
    """
    theta = [t % TWO_PI for t in angles]
    if len(theta) != P.num_vars:
        raise ValueError(
            f"angle vector has length {len(theta)}, expected {P.num_vars}"
        )
    value = abs(P.evaluate(_torus_point(theta)))
    axes = _free_axes(P)
    if not axes:
        return RefineResult(value, tuple(theta), 0, True)

    sweeps = 0
    converged = False
    for _ in range(max_iter):
        sweeps += 1
        sweep_start = value
        for j in axes:
            t = _line_argmax(P, theta, j)
            if t is None:
                continue
            candidate = list(theta)
            candidate[j] = t % TWO_PI
            cand_value = abs(P.evaluate(_torus_point(candidate)))
            if cand_value > value:
                theta = candidate
                value = cand_value
        if len(axes) == 1 or value - sweep_start < tol:
            converged = True
            break
    return RefineResult(value, tuple(theta), sweeps, converged)


def torus_lipschitz_bound(P: HomogeneousPolynomial) -> float:
    """L = sum_j sum_alpha |c_alpha| alpha_j, bounding the angular drift.

    |d/dtheta_j P(e^{i theta})| <= sum_alpha |c_alpha| alpha_j, so moving
    every coordinate by at most delta changes |P| by at most L*delta.
    For a homogeneous polynomial the double sum collapses to degree times
    the l_1 coefficient norm.
    """
    return math.fsum(abs(c) * sum(alpha) for alpha, c in P.terms.items())


def sup_norm(P: HomogeneousPolynomial, cfg: SupNormConfig | None = None) -> SupNormResult:
    """Two-sided bracket of ||P|| on the unit polydisc.

    lower_estimate: grid maximum polished by refine_local (attained value).
    upper_bracket:  grid maximum + L*(pi/K), where L is the Lipschitz
    bound and pi/K the worst per-coordinate distance to a grid point, so
    lower_estimate <= ||P|| <= upper_bracket rigorously (up to rounding).
    """
    cfg = cfg or SupNormConfig()
    K = cfg.grid_points_per_axis
    if P.is_zero:
        return SupNormResult(0.0, 0.0, (0.0,) * P.num_vars, K, True)
    grid_value, grid_angles = torus_grid_max(P, K, cfg.parallel_chunks)
    refined = refine_local(
        P, grid_angles, tol=cfg.refine_tolerance, max_iter=cfg.max_refine_iterations
    )
    slack = torus_lipschitz_bound(P) * math.pi / K
    return SupNormResult(
        lower_estimate=refined.value,
        upper_bracket=grid_value + slack,
        arg_angles=refined.angles,
        grid_used=K,
        converged=refined.converged,
    )


def quadratic_sup_norm(a: float, b: float, c: float) -> float:
    """Closed-form sup norm of a*z1^2 + b*z2^2 + c*z1*z2 on the bidisc.

    Valid only for real a, b, c with ab < 0 and |c(a+b)| <= 4|ab|, where
    the norm equals (|a|+|b|) * sqrt(1 + c^2 / (4|ab|)).  Outside that
    domain the formula does not apply and this function refuses to
    extrapolate.
    """
    if not a * b < 0:
        raise FormulaDomainError(
            f"closed form requires ab < 0 (got a={a}, b={b})"
        )
    if abs(c * (a + b)) > 4 * abs(a * b):
        raise FormulaDomainError(
            f"closed form requires |c(a+b)| <= 4|ab| (got a={a}, b={b}, c={c})"
        )
    return (abs(a) + abs(b)) * math.sqrt(1.0 + c * c / (4.0 * abs(a * b)))
