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

Strategy: a uniform angle grid over the free axes, one inverse FFT per
free axis, gives a lower bound and a starting point; refinement climbs
from there and a first-order Lipschitz slack turns the grid value into a
rigorous upper bracket.  Refinement maximises a line of one free
coordinate exactly (the line is a trigonometric polynomial, maximised
through the roots of its derivative), which settles one free axis
outright.  With two or more free axes it takes safeguarded Newton steps
on |P|^2 and confirms convergence with a sweep of exact line
maximisations, so the result is a point that no coordinate line improves;
at a saddle it first tries a step along the direction where |P|^2 curves
upward.

sup_norm brackets every polynomial on one path: the grid maximum of
torus_grid_max plus the Lipschitz slack is the upper end, and
refine_local, started from the grid point, gives the lower end.  Every
line maximisation goes through one root finder, _line_roots, which takes
one line and one start angle.  The search scores its candidates on the
grid without this module (see the search module) and calls sup_norm only
for its finalists.
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

# Grid points per slab of the last free axis's FFT; bounds each |P| array.
_SLAB_POINTS = 1 << 20

# refine_local stops once an iteration's confirming line sweep gains at
# most this fraction of the value, or after this many iterations.
_REFINE_RTOL = 1e-10
_MAX_ITERATIONS = 200

_EPS = float(np.finfo(float).eps)

_NOT_FINITE = "sup-norm bracket is not finite; rescale the polynomial"


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
    varying = [
        j for j, column in enumerate(zip(*P.terms)) if column.count(column[0]) != len(column)
    ]
    return varying[1:]


def _grid_size_error(K: int, free: int) -> GridTooLargeError | None:
    """The error a K-point grid over free axes raises, or None if it fits."""
    total = K**free
    if total > MAX_GRID_POINTS:
        return GridTooLargeError(
            f"grid of {K}^{free} = {total} points exceeds the limit of "
            f"{MAX_GRID_POINTS}; use fewer variables or a smaller grid"
        )
    return None


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
    into an array indexed by exponents mod K over the free axes, and each
    free axis is inverse-transformed by an FFT.  The last free axis holds
    only the exponents up to its largest; it is transformed last, padded
    to K points, a slab of rows at a time, which bounds each |P| array.
    A grid value that overflows in the transforms makes the value inf.
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
    error = _grid_size_error(K, len(axes))
    if error is not None:
        raise error
    last_len = min(K, max(alpha[axes[-1]] for alpha in P.terms) + 1)
    C = np.zeros((K,) * (len(axes) - 1) + (last_len,), dtype=np.complex128)
    slab = max(1, _SLAB_POINTS // K)
    best_val, best_flat = -1.0, 0
    # Coefficients near the largest float overflow here; sup_norm reports
    # the bracket that is not finite, so numpy's warning is not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        # Exponents that agree mod K give the same grid values, so the
        # terms that alias onto one cell are added, in term order.
        for alpha, coeff in P.terms.items():
            C[tuple([alpha[j] % K for j in axes])] += coeff
        for ax in range(C.ndim - 1):
            # norm="forward" leaves the inverse transform unscaled; out=C
            # keeps a single copy of the array (numpy >= 2.0).
            np.fft.ifft(C, axis=ax, norm="forward", out=C)
        rows = C.reshape(-1, last_len)
        for r in range(0, len(rows), slab):
            mags = np.abs(np.fft.ifft(rows[r : r + slab], n=K, norm="forward"))
            # argmax and a strict > across slabs keep the first maximum in
            # flat (lexicographic) order; both take NaN, which ends the scan.
            i = int(mags.argmax())
            if not mags.flat[i] <= best_val:
                best_val, best_flat = float(mags.flat[i]), r * K + i
                if math.isnan(best_val):
                    break
    angles = [0.0] * P.num_vars
    for j in reversed(axes):
        best_flat, digit = divmod(best_flat, K)
        angles[j] = TWO_PI * digit / K
    return (math.inf if math.isnan(best_val) else best_val), tuple(angles)


def _torus_point(angles: tuple[float, ...] | list[float]) -> tuple[complex, ...]:
    # e^{i 0} is exactly 1, and pinned angles are mostly 0.
    return tuple([cmath.exp(1j * t) if t else 1 + 0j for t in angles])


def _line_coefficients(
    P: HomogeneousPolynomial, angles: list[float], axis: int
) -> np.ndarray:
    """g with P(theta with theta_axis = t) = sum_a g_a e^{i a t}, up to the
    largest exponent of the axis.

    Each coefficient is multiplied by the powers of the other coordinates
    in the order P.evaluate multiplies them; coordinates at angle 0 are 1
    and are skipped.
    """
    z = {l: cmath.exp(1j * t) for l, t in enumerate(angles) if t and l != axis}
    g = np.zeros(max(alpha[axis] for alpha in P.terms) + 1, dtype=np.complex128)
    for alpha, coeff in P.terms.items():
        for l, w in z.items():
            if alpha[l]:
                coeff *= w ** alpha[l]
        g[alpha[axis]] += coeff
    return g


def _line_roots(g: np.ndarray, t0: float) -> float:
    """The critical angle in [0, 2 pi) where |q(t)| = |sum_a g_a e^{i a t}|
    is largest, or t0 where q has no critical point to offer (one term, or
    |q| constant up to rounding).

    Scaled to unit peak, |q|^2 = sum_{|k|<=D} h_k e^{i k t} with
    h_k = sum_n g_{n+k} conj(g_n) = conj(h_{-k}) (D + 1 = len(g)), so its
    derivative vanishes where w = e^{i t} is a root of
    sum_{k=1..D} k (h_k w^(D+k) - conj(h_k) w^(D-k)).  Terms of the largest
    k that are zero or below rounding (zeros or tiny entries at the ends of
    g) are stripped; they only carry roots near 0 or infinity.  The roots
    are the eigenvalues of a companion matrix, and the best of them is
    the one where |q|, summed in order of a, is largest.  Zero entries at
    the end of g add exact zeros to h and to |q|, so they change nothing.
    """
    L = len(g)
    D = L - 1
    peak = np.abs(g).max()
    if not peak:
        return t0
    g = g / peak
    kh = np.zeros(D, dtype=np.complex128)  # kh[k - 1] = h_k, then k h_k
    for n in range(D):
        kh[: D - n] += g[n + 1 :] * g[n : n + 1].conj()
    kh *= np.arange(1, D + 1)
    size = np.abs(kh).tolist()
    # Coefficients below rounding of the largest one change the polynomial
    # on the unit circle by no more than rounding; kept at the ends, they
    # would put huge entries into the companion matrix.
    floor = _EPS * max(size)
    k = next((k for k in range(D, 0, -1) if size[k - 1] > floor), 0)
    if not k:
        return t0
    # Coefficients from the highest power of w down.
    p = np.concatenate([kh[k - 1 :: -1], [0.0], -kh[:k].conj()])
    N = 2 * k
    companion = np.eye(N, k=-1, dtype=np.complex128)
    companion[0] = -p[1:] / p[:1]
    roots = np.angle(np.linalg.eigvals(companion)) % TWO_PI
    phases = np.exp(1j * roots * np.arange(L)[:, None])
    f = np.abs((phases * g[:, None]).sum(axis=0))
    return float(roots[f.argmax()])


def _line_sweep(
    P: HomogeneousPolynomial, theta: list[float], value: float, axes: list[int]
) -> tuple[list[float], float]:
    """Move each free coordinate in turn to the maximum of its line (see
    _line_roots), keeping a move only if the re-evaluated |P| strictly
    increases."""
    for j in axes:
        candidate = list(theta)
        candidate[j] = _line_roots(_line_coefficients(P, theta, j), theta[j])
        cand_value = abs(P.evaluate(_torus_point(candidate)))
        if cand_value > value:
            theta, value = candidate, cand_value
    return theta, value


def _newton_step(
    coeffs: np.ndarray, a: np.ndarray, t: list[float]
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Newton step on f = |P|^2 over the free angles t, or None unless the
    Hessian is negative definite; and, when the Hessian's largest
    eigenvalue is positive, its eigenvector (f curves upward along it), or
    None.

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
    w, v = np.linalg.eigh(hess)
    scale = np.abs(w).max()
    # Eigenvalues within rounding of zero (numpy's matrix_rank tolerance)
    # do not count as negative: |P| can be constant along a direction.
    if w[-1] < -len(w) * _EPS * scale:
        return -(v @ ((grad @ v) / w)), None
    # Only a clearly positive one, far above the rounding of the entries,
    # counts as a direction where f rises both ways.
    return None, (v[:, -1] if w[-1] > math.sqrt(_EPS) * scale else None)


def _escape(
    P: HomogeneousPolynomial,
    theta: list[float],
    value: float,
    axes: list[int],
    a: np.ndarray,
    direction: np.ndarray,
) -> tuple[list[float], float]:
    """Step from theta along +-direction, where |P|^2 curves upward, and
    return the first point where |P| strictly rises, with its value;
    theta and value if there is none.

    The first step is half a period of the fastest phase difference of two
    terms along direction; it is halved up to three times.
    """
    phases = (a @ direction).tolist()
    step = math.pi / (max(phases) - min(phases))
    for _ in range(4):
        for s in (step, -step):
            candidate = list(theta)
            for j, d in zip(axes, direction.tolist()):
                candidate[j] = (theta[j] + s * d) % TWO_PI
            cand_value = abs(P.evaluate(_torus_point(candidate)))
            if cand_value > value:
                return candidate, cand_value
        step /= 2
    return theta, value


def refine_local(
    P: HomogeneousPolynomial, angles: tuple[float, ...] | list[float]
) -> RefineResult:
    """Local ascent on theta -> |P(e^{i theta})| over the free axes.

    Pinned axes keep their angles; every diagonal-phase orbit meets the
    points that share them.  With one free axis that axis is the whole
    quotient torus, so a single exact line maximisation (see _line_roots)
    finds the global maximum: one iteration, converged.  With two or more,
    each iteration takes a Newton step on |P|^2 over the free axes when
    its Hessian is negative definite.  When Newton is unavailable or
    gains at most 1e-10 times the value, the iteration ends with a sweep
    of exact line maximisations over the free axes; if that sweep also
    gains at most 1e-10 times the value, no coordinate line improves the
    result.  Where the Hessian then has a clearly positive eigenvalue (a
    saddle or a minimum of |P|), steps along its eigenvector are tried in
    both signs (see _escape); if none gains more than 1e-10 times the
    value, the ascent stops (converged), a test that scaling P does not
    change.  Otherwise it stops after 200 iterations (not converged);
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
    value = abs(P.evaluate(_torus_point(theta)))
    if len(axes) < 2:
        theta, value = _line_sweep(P, theta, value, axes)
        return RefineResult(value, tuple(theta), len(axes), True)

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
        step, rise = _newton_step(coeffs, a, [theta[j] for j in axes])
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
        if value - sweep_start > _REFINE_RTOL * value:
            continue
        # No coordinate line improves, but at a saddle (or a minimum) |P|
        # still rises along the Hessian's positive-curvature direction.
        settled = value
        if rise is not None:
            theta, value = _escape(P, theta, value, axes, a, rise)
        if value - settled <= _REFINE_RTOL * value:
            return RefineResult(value, tuple(theta), iteration, True)
    return RefineResult(value, tuple(theta), _MAX_ITERATIONS, False)


def torus_lipschitz_bound(P: HomogeneousPolynomial) -> float:
    """L = sum_j sum_alpha |c_alpha| alpha_j, bounding the angular drift.

    |d/dtheta_j P(e^{i theta})| <= sum_alpha |c_alpha| alpha_j, so moving
    every coordinate by at most delta changes |P| by at most L*delta.
    For a homogeneous polynomial the double sum collapses to degree times
    the l_1 coefficient norm.  It is inf when the sum overflows.
    """
    return _overflowing_fsum([abs(c) * sum(alpha) for alpha, c in P.terms.items()])


def _overflowing_fsum(terms: list[float]) -> float:
    """math.fsum(terms), or inf where the sum overflows (fsum raises
    OverflowError when finite terms add up past the largest float)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def sup_norm(P: HomogeneousPolynomial, grid: int = DEFAULT_GRID) -> SupNormResult:
    """Two-sided bracket of ||P|| on the unit polydisc.

    grid is K, the grid points per free axis (at least 2).
    lower_estimate: the maximum of torus_grid_max polished by
    refine_local (an attained value).
    upper_bracket:  grid maximum + L*(pi/K), where L is the Lipschitz
    bound and pi/K the worst per-coordinate distance to a grid point, so
    lower_estimate <= ||P|| <= upper_bracket rigorously (up to rounding).
    Raises ValueError when the bracket overflows to a non-finite value.
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    if P.is_zero:
        return SupNormResult(0.0, 0.0, (0.0,) * P.num_vars, grid, True)
    grid_value, start = torus_grid_max(P, grid)
    upper = grid_value + torus_lipschitz_bound(P) * math.pi / grid
    if not math.isfinite(upper):
        raise ValueError(_NOT_FINITE)
    r = refine_local(P, start)
    return SupNormResult(r.value, upper, r.angles, grid, r.converged)


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
