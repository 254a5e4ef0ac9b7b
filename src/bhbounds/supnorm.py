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
a starting point (on the K-point grid P is an inverse DFT of its
coefficients, with exponents taken mod K); refinement climbs from there
and a first-order Lipschitz slack turns the grid value into a rigorous
upper bracket.  Refinement maximises a line of one free coordinate
exactly (the line is a trigonometric polynomial, maximised through the
roots of its derivative), which settles one free axis outright.  With two
or more free axes it takes safeguarded Newton steps on |P|^2 and confirms
convergence with a sweep of exact line maximisations, so the result is a
point that no coordinate line improves.

Polynomials with one free axis each share one batched grid pass and one
batched line pass when bracketed together (the search evaluates its
candidates so); sup_norm is such a batch of one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .poly import HomogeneousPolynomial

TWO_PI = 2.0 * math.pi

# Grid points per free axis unless the caller asks for another grid.
DEFAULT_GRID = 64

# Hard cap on evaluated grid points (over the free axes only).  The
# transformed coefficient array of torus_grid_max has at most this many
# complex values, so the largest grid holds up to 1 GiB at once.
MAX_GRID_POINTS = 1 << 26

# Grid points evaluated per numpy slab; bounds the size of each |P| array.
_SLAB_POINTS = 1 << 20

# refine_local stops once an iteration's confirming line sweep gains at
# most this fraction of the value, or after this many iterations.
_REFINE_RTOL = 1e-10
_MAX_ITERATIONS = 200


class GridTooLargeError(ValueError):
    """The requested torus grid exceeds the addressable size."""


class FormulaDomainError(ValueError):
    """A closed-form norm formula was requested outside its validity domain."""


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
    """Outcome of refine_local.

    value is |P| at e^{i angles}; sweeps counts refine iterations (one
    Newton step, or one sweep of line maximisations, or both), which is a
    single sweep when there is one free axis.
    """

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


def _grid_maxima(C: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """For every column p of C, the first maximum over k = 0..K-1 of
    |sum_a e^{2 pi i a k/K} C[a, p]|: its value and its k.

    Rows k are computed a slab at a time, which bounds the size of each
    |P| array; slabs in order and a strict > keep the first maximum across
    slabs, as argmax does within one.  einsum sums each entry over a in
    order whatever the slab size (a BLAS product need not), so slabbing
    does not change a value.
    """
    first_len, cols = C.shape
    slab = max(1, _SLAB_POINTS // cols)
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    every = np.arange(cols)
    values = np.full(cols, -1.0)
    rows = np.zeros(cols, dtype=np.intp)
    for k0 in range(0, K, slab):
        k = np.arange(k0, min(k0 + slab, K))
        phases = roots[np.outer(k, np.arange(first_len)) % K]
        mags = np.abs(np.einsum("ka,ap->kp", phases, C))
        local = mags.argmax(axis=0)
        slab_values = mags[local, every]
        better = slab_values > values
        values[better] = slab_values[better]
        rows[better] = k0 + local[better]
    return values, rows


def torus_grid_max(P: HomogeneousPolynomial, K: int) -> tuple[float, tuple[float, ...]]:
    """Max of |P(e^{i theta})| over the uniform K^N angle grid.

    Returns the value (a valid lower bound on ||P||) and an attaining
    angle vector; ties are broken by the lexicographically smallest
    vector.  Only the free axes are scanned, K^(d-1) points for d active
    axes: a diagonal shift by one grid step permutes the grid and keeps
    |P|, so every grid maximum has a copy whose first active angle is 0,
    and the lexicographically smallest one is such a copy.  Pinned angles
    are 0, so the result is that of a literal scan of all K^N points, up
    to rounding in the values of shifted copies.

    On the grid, P is an inverse DFT of its coefficients: e^{2 pi i a k/K}
    depends on the exponent a only mod K, so the coefficients are summed
    into an array indexed by exponents mod K over the free axes.  Every
    free axis but the first is inverse-transformed by an FFT; the first
    is summed directly against e^{2 pi i a k_0/K}, a slab of rows at a
    time, which bounds the size of each |P| array.
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
    first_len = min(K, max(alpha[axes[0]] for alpha in P.terms) + 1)
    C = np.zeros((first_len,) + (K,) * (len(axes) - 1), dtype=np.complex128)
    # Exponents that agree mod K give the same grid values, so add.at
    # accumulates the terms that alias onto one cell.
    cells = tuple(np.array([alpha[j] % K for alpha in P.terms]) for j in axes)
    np.add.at(C, cells, np.array(list(P.terms.values()), dtype=np.complex128))
    for ax in range(1, C.ndim):
        # norm="forward" leaves the inverse transform unscaled; out=C keeps
        # a single copy of the array (numpy >= 2.0).
        np.fft.ifft(C, axis=ax, norm="forward", out=C)
    values, rows = _grid_maxima(C.reshape(first_len, -1), K)
    # The lexicographically smallest argmax: the smallest first-axis index
    # among the columns that reach the maximum, then the first such column.
    tops = np.flatnonzero(values == values.max())
    col = int(tops[rows[tops].argmin()])
    best_val = float(values[col])
    best_flat = int(rows[col]) * len(values) + col

    angles = [0.0] * P.num_vars
    for j, digit in zip(axes, np.unravel_index(best_flat, (K,) * len(axes))):
        angles[j] = TWO_PI * int(digit) / K
    return best_val, tuple(angles)


def _torus_point(angles: tuple[float, ...] | list[float]) -> tuple[complex, ...]:
    return tuple([cmath.exp(1j * t) for t in angles])


def _line_coefficients(
    P: HomogeneousPolynomial, angles: list[float], axis: int
) -> np.ndarray:
    """g with P(theta with theta_axis = t) = sum_a g_a e^{i a t}."""
    g = np.zeros(P.degree + 1, dtype=np.complex128)
    for alpha, coeff in P.terms.items():
        phase = sum(alpha[l] * angles[l] for l in range(len(angles)) if l != axis)
        g[alpha[axis]] += coeff * cmath.exp(1j * phase)
    return g


def _line_argmaxes(lines: list[np.ndarray]) -> list[float | None]:
    """Global maximiser t of f(t) = |sum_a g_a e^{i a t}|^2 for every g in
    lines, or None where f is constant (up to rounding).

    Trimmed to its nonzero span of D+1 entries (a unimodular factor drops
    out) and scaled to unit peak, f(t) = sum_{|k|<=D} h_k e^{i k t} with
    h = correlate(g, g), and f'(t) = 0 exactly when w = e^{i t} is a root
    of sum_k k h_k w^(k+D).  f is evaluated at the angle of every root, so
    the best is the global maximiser up to root accuracy.

    The roots are those np.roots gives: the eigenvalues of the companion
    matrix of the polynomial stripped of its leading and trailing zeros,
    plus one zero root per trailing zero.  Polynomials of one shape (length
    and zero ends) share one eigvals call and one evaluation of f.
    """
    out: list[float | None] = [None] * len(lines)
    shapes: dict[tuple[int, int, int], list[tuple[int, np.ndarray, np.ndarray]]] = {}
    for i, g in enumerate(lines):
        nonzero = g.nonzero()[0]
        if len(nonzero) < 2:
            continue
        g = g[nonzero[0] : nonzero[-1] + 1]
        g = g / abs(g).max()
        D = len(g) - 1
        h = np.correlate(g, g, "full")
        deriv = (np.arange(-D, D + 1) * h)[::-1]
        ends = deriv.nonzero()[0]
        if len(ends) < 2:  # every term of f' underflowed: f is constant
            continue
        shapes.setdefault((len(deriv), ends[0], ends[-1]), []).append((i, g, deriv))
    for (length, lead, last), members in shapes.items():
        stripped = np.array([deriv[lead : last + 1] for _, _, deriv in members])
        batch, N = stripped.shape
        companion = np.zeros((batch, N - 1, N - 1), dtype=np.complex128)
        companion[:, np.arange(1, N - 1), np.arange(N - 2)] = 1.0
        companion[:, 0, :] = -stripped[:, 1:] / stripped[:, :1]
        roots = np.linalg.eigvals(companion)
        roots = np.hstack([roots, np.zeros((batch, length - 1 - last), roots.dtype)])
        ts = np.angle(roots)
        gs = np.array([g for _, g, _ in members])
        phases = np.exp(1j * ts[:, :, None] * np.arange(gs.shape[1]))
        fs = np.abs(phases @ gs[:, :, None])[:, :, 0]
        for (i, _, _), t in zip(members, ts[np.arange(batch), fs.argmax(axis=1)].tolist()):
            out[i] = t
    return out


def _line_move(
    P: HomogeneousPolynomial, theta: list[float], value: float, axis: int, t: float | None
) -> tuple[list[float], float]:
    """theta with theta_axis = t and its |P|, if that strictly exceeds
    value; otherwise theta and value unchanged."""
    if t is None:
        return theta, value
    candidate = list(theta)
    candidate[axis] = t % TWO_PI
    cand_value = abs(P.evaluate(_torus_point(candidate)))
    if cand_value > value:
        return candidate, cand_value
    return theta, value


def _line_sweep(
    P: HomogeneousPolynomial, theta: list[float], value: float, axes: list[int]
) -> tuple[list[float], float]:
    """Move each free coordinate in turn to the exact maximum of its line.

    A move is kept only if the re-evaluated |P| strictly increases.
    """
    for j in axes:
        (t,) = _line_argmaxes([_line_coefficients(P, theta, j)])
        theta, value = _line_move(P, theta, value, j, t)
    return theta, value


def _refine_one_axis(
    starts: list[tuple[HomogeneousPolynomial, list[float], int]]
) -> list[RefineResult]:
    """refine_local(P, theta) of every P whose only free axis is j, with
    theta reduced mod 2 pi: one exact line maximisation each, the lines
    maximised in one batch (see _line_argmaxes)."""
    lines = [_line_coefficients(P, theta, j) for P, theta, j in starts]
    results = []
    for (P, theta, j), t in zip(starts, _line_argmaxes(lines)):
        theta, value = _line_move(P, theta, abs(P.evaluate(_torus_point(theta))), j, t)
        results.append(RefineResult(value, tuple(theta), 1, True))
    return results


def _newton_step(coeffs: np.ndarray, a: np.ndarray, t: list[float]) -> np.ndarray | None:
    """Newton step on f = |P|^2 over the free angles t, or None unless the
    Hessian is negative definite.

    a holds the free-axis exponents, one row per term.  With
    e = c e^{i alpha.t} and P = sum e, the derivatives are
    dP_j = i sum alpha_j e and d2P_jk = -sum alpha_j alpha_k e, so
    grad f = 2 Re(conj(P) dP) and Hess f = 2 Re(conj(dP)^T dP + conj(P) d2P);
    the common factor 2 cancels in the step, so it is left out.
    """
    e = coeffs * np.exp(1j * (a @ t))
    p = e.sum()
    dp = 1j * (e @ a)
    grad = np.real(np.conj(p) * dp)
    hess = np.real(np.outer(np.conj(dp), dp) - np.conj(p) * ((a.T * e) @ a))
    # Eigenvalues within rounding of zero (numpy's matrix_rank tolerance)
    # do not count as negative: |P| can be constant along a direction.
    w, v = np.linalg.eigh(hess)
    if w[-1] >= -len(w) * np.finfo(float).eps * abs(w[0]):
        return None
    return -(v @ ((grad @ v) / w))


def refine_local(
    P: HomogeneousPolynomial, angles: tuple[float, ...] | list[float]
) -> RefineResult:
    """Local ascent on theta -> |P(e^{i theta})| over the free axes.

    Pinned axes keep their angles; every diagonal-phase orbit meets the
    points that share them.  With one free axis that axis is the whole
    quotient torus, so a single exact line maximisation (see _line_argmaxes)
    finds the global maximum: one iteration, converged.  With two or more,
    each iteration takes a Newton step on |P|^2 over the free axes when
    its Hessian is negative definite.  When Newton is unavailable or
    gains at most 1e-10 times the value, the iteration ends with a sweep
    of exact line maximisations over the free axes; if that sweep also
    gains at most 1e-10 times the value, no coordinate line improves the
    result and the ascent stops (converged), a test that scaling P does
    not change.  Otherwise it stops after 200 iterations (not converged);
    sweeps counts the iterations.  Every move is accepted only if the
    re-evaluated |P| strictly increases, so the returned value never drops
    below the input value.
    """
    theta = [t % TWO_PI for t in angles]
    if len(theta) != P.num_vars:
        raise ValueError(
            f"angle vector has length {len(theta)}, expected {P.num_vars}"
        )
    axes = _free_axes(P)
    if len(axes) == 1:
        return _refine_one_axis([(P, theta, axes[0])])[0]
    value = abs(P.evaluate(_torus_point(theta)))
    if not axes:
        return RefineResult(value, tuple(theta), 0, True)

    exps = np.array(list(P.terms), dtype=np.float64)
    coeffs = np.array(list(P.terms.values()), dtype=np.complex128)
    # Pinned angles never move, so their phases fold into the coefficients.
    # Scaling P does not change the Newton step; unit peak keeps f finite.
    pinned = [j for j in range(P.num_vars) if j not in axes]
    coeffs *= np.exp(1j * (exps[:, pinned] @ [theta[j] for j in pinned]))
    coeffs /= np.abs(coeffs).max()
    a = exps[:, axes]
    for iteration in range(1, _MAX_ITERATIONS + 1):
        start = value
        step = _newton_step(coeffs, a, [theta[j] for j in axes])
        if step is not None:
            candidate = list(theta)
            for j, s in zip(axes, step.tolist()):
                candidate[j] = (theta[j] + s) % TWO_PI
            cand_value = abs(P.evaluate(_torus_point(candidate)))
            if cand_value > value:
                theta = candidate
                value = cand_value
        if value - start > _REFINE_RTOL * value:
            continue
        # Newton stalled: the line sweep confirms convergence or escapes.
        sweep_start = value
        theta, value = _line_sweep(P, theta, value, axes)
        if value - sweep_start <= _REFINE_RTOL * value:
            return RefineResult(value, tuple(theta), iteration, True)
    return RefineResult(value, tuple(theta), _MAX_ITERATIONS, False)


def torus_lipschitz_bound(P: HomogeneousPolynomial) -> float:
    """L = sum_j sum_alpha |c_alpha| alpha_j, bounding the angular drift.

    |d/dtheta_j P(e^{i theta})| <= sum_alpha |c_alpha| alpha_j, so moving
    every coordinate by at most delta changes |P| by at most L*delta.
    For a homogeneous polynomial the double sum collapses to degree times
    the l_1 coefficient norm.
    """
    return math.fsum(abs(c) * sum(alpha) for alpha, c in P.terms.items())


def sup_norm(P: HomogeneousPolynomial, grid: int = DEFAULT_GRID) -> SupNormResult:
    """Two-sided bracket of ||P|| on the unit polydisc.

    grid is K, the grid points per free axis (at least 2).
    lower_estimate: grid maximum polished by refine_local (attained value).
    upper_bracket:  grid maximum + L*(pi/K), where L is the Lipschitz
    bound and pi/K the worst per-coordinate distance to a grid point, so
    lower_estimate <= ||P|| <= upper_bracket rigorously (up to rounding).
    Raises ValueError when the bracket overflows to a non-finite value.
    """
    (result,) = _sup_norms([P], grid)
    if isinstance(result, ValueError):
        raise result
    return result


def _sup_norms(
    polys: list[HomogeneousPolynomial], grid: int
) -> list[SupNormResult | ValueError]:
    """sup_norm(P, grid) of every P, or the ValueError it raises for P.

    The polynomials with exactly one free axis share one grid pass (one
    column each, see _one_axis_grid_maxes) and one line pass (see
    _refine_one_axis); the others go through torus_grid_max and
    refine_local one at a time.  A batch runs the same code as a batch of
    one, and each polynomial's numbers come out the same as long as numpy
    computes each einsum entry and each eigvals matrix the same way
    whatever the batch width, which numpy does not promise; the tests
    check it on the installed build.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    results: list = [None] * len(polys)
    starts: dict[int, tuple[float, tuple[float, ...]]] = {}
    one_axis: dict[int, int] = {}
    for i, P in enumerate(polys):
        if P.is_zero:
            results[i] = SupNormResult(0.0, 0.0, (0.0,) * P.num_vars, grid, True)
            continue
        axes = _free_axes(P)
        if len(axes) == 1 and grid <= MAX_GRID_POINTS:
            one_axis[i] = axes[0]
            continue
        try:
            starts[i] = torus_grid_max(P, grid)
        except GridTooLargeError as exc:
            results[i] = exc
    batch = [(polys[i], j) for i, j in one_axis.items()]
    starts.update(zip(one_axis, _one_axis_grid_maxes(batch, grid)))

    uppers = {}
    for i, (grid_value, _) in starts.items():
        upper = grid_value + torus_lipschitz_bound(polys[i]) * math.pi / grid
        if math.isfinite(upper):
            uppers[i] = upper
        else:
            results[i] = ValueError("sup-norm bracket is not finite; rescale the polynomial")
    # Grid angles already lie in [0, 2 pi), as refine_local would reduce them.
    lines = [i for i in uppers if i in one_axis]
    on_line = [(polys[i], list(starts[i][1]), one_axis[i]) for i in lines]
    refined = dict(zip(lines, _refine_one_axis(on_line)))
    for i, upper in uppers.items():
        r = refined[i] if i in refined else refine_local(polys[i], starts[i][1])
        results[i] = SupNormResult(r.value, upper, r.angles, grid, r.converged)
    return results


def _one_axis_grid_maxes(
    batch: list[tuple[HomogeneousPolynomial, int]], K: int
) -> list[tuple[float, tuple[float, ...]]]:
    """torus_grid_max(P, K) of every P whose only free axis is j, from one
    einsum whose columns are the polynomials.

    Column p holds P's coefficients summed by their exponent on j mod K:
    the array torus_grid_max builds for P, up to zero rows at the end,
    which add nothing to a sum.
    """
    if not batch:
        return []
    cells: tuple[list[int], list[int]] = ([], [])
    coeffs: list[complex] = []
    for col, (P, j) in enumerate(batch):
        for alpha, coeff in P.terms.items():
            cells[0].append(alpha[j] % K)
            cells[1].append(col)
            coeffs.append(coeff)
    C = np.zeros((max(cells[0]) + 1, len(batch)), dtype=np.complex128)
    np.add.at(C, cells, np.array(coeffs, dtype=np.complex128))
    values, rows = _grid_maxima(C, K)
    maxes = []
    for (P, j), value, k in zip(batch, values.tolist(), rows.tolist()):
        angles = [0.0] * P.num_vars
        angles[j] = TWO_PI * k / K
        maxes.append((value, tuple(angles)))
    return maxes


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
