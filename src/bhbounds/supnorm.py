"""Supremum norm of a homogeneous polynomial on the closed unit polydisc.

The maximum of |P| over {z : |z_j| <= 1} is attained with every |z_j| = 1
(apply the maximum modulus principle one coordinate at a time), so the
whole module works on the torus: the objective is

    g(theta) = |P(e^{i theta_1}, ..., e^{i theta_N})|.

Variables of constant exponent and, by the diagonal phase symmetry of a
homogeneous P, one more are pinned to angle zero (see _free_axes); the
search runs over the other, free, axes, one for the witness family.

Strategy: a uniform angle grid over the free axes, one inverse FFT per
free axis, gives a lower bound and starting points; refinement climbs
from there, and Szego's sampling bound (or a Lipschitz slack, if less)
turns the grid value into a rigorous upper bracket; all of them run on
the coefficients scaled by an exact power of two to unit size, where no
sum overflows.  One free axis is settled by an exact line maximisation
(_line_roots).  With two or more, the grid cells the sampling bound
leaves open, up to _MAX_STARTS of the highest, start a safeguarded
Newton ascent (_ascend).  The search scores its candidates on the grid
without this module (see the search module) and calls sup_norm only
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

# At most this many grid cells start sup_norm's Newton ascent.
_MAX_STARTS = 256

# The Newton ascent gives up after this many iterations.
_MAX_ITERATIONS = 200

_EPS = float(np.finfo(float).eps)

_NOT_FINITE = "sup-norm bracket is not finite; rescale the polynomial"


class GridTooLargeError(ValueError):
    """The requested torus grid exceeds the addressable size."""


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

    value is |P| at e^{i angles}; sweeps counts refine iterations.
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


def _check_grid(K: int, free: int = 0) -> None:
    """Refuse K < 2 (ValueError) and a K^free grid over the limit."""
    if K < 2:
        raise ValueError(f"grid must be >= 2, got {K}")
    if K**free > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"grid of {K}^{free} = {K**free} points exceeds the limit of "
            f"{MAX_GRID_POINTS}; use fewer variables or a smaller grid"
        )


def _unit_exponent(P: HomogeneousPolynomial) -> int:
    """e putting P's largest coefficient part divided by 2^e in [1, 2),
    clamped so that 2^e and 2^-e are normal: scaling by them is exact, and
    at unit scale no sum of the terms can overflow."""
    peak = 0.0
    for c in P.terms.values():
        peak = max(peak, abs(c.real), abs(c.imag))
    return min(max(math.frexp(peak)[1] - 1, -1022), 1022)


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
    At unit scale (see _unit_exponent) the value is inf only past the largest float.

    K >= 2 is checked first; the zero polynomial (0) and a single term
    (|c|, at unit scale) return before the grid size is checked.
    """
    return _grid_scan(P, K)[:2]


def _grid_scan(
    P: HomogeneousPolynomial, K: int, ratio: float = 1.0, error: float = 0.0
) -> tuple[float, tuple[float, ...], np.ndarray | None]:
    """torus_grid_max's value G and angles, and the free angles of the open
    cells, those of value at least ratio * G - error (for sup_norm, those
    that may be nearest the maximiser): G's cell first, then at most
    _MAX_STARTS - 1 others, the highest (see _highest).  None with fewer
    than two free axes, where refine_local's line maximum is global."""
    _check_grid(K)
    axes = _free_axes(P)
    e = _unit_exponent(P)
    scale = 2.0**-e
    if not axes:
        # No term, or one: |P| is the same at every point of the torus.
        value = sum(abs(c * scale) for c in P.terms.values()) * 2.0**e
        return value, (0.0,) * P.num_vars, None
    _check_grid(K, len(axes))
    last_len = min(K, max(alpha[axes[-1]] for alpha in P.terms) + 1)
    C = np.zeros((K,) * (len(axes) - 1) + (last_len,), dtype=np.complex128)
    slab = max(1, _SLAB_POINTS // K)
    several = len(axes) > 1
    best_val, best_flat = -1.0, 0
    at, values, error = np.zeros(0, dtype=np.intp), np.zeros(0), error * scale
    # Exponents that agree mod K give the same grid values, so the terms
    # that alias onto one cell are added, in term order.
    for alpha, coeff in P.terms.items():
        C[tuple([alpha[j] % K for j in axes])] += coeff * scale
    for ax in range(C.ndim - 1):
        # norm="forward" leaves the inverse transform unscaled; out=C keeps
        # a single copy of the array (numpy >= 2.0).
        np.fft.ifft(C, axis=ax, norm="forward", out=C)
    rows = C.reshape(-1, last_len)
    for r in range(0, len(rows), slab):
        mags = np.abs(np.fft.ifft(rows[r : r + slab], n=K, norm="forward")).ravel()
        # argmax and a strict > across slabs keep the first maximum in flat
        # (lexicographic) order.
        i = int(mags.argmax())
        if mags[i] > best_val:
            best_val, best_flat = float(mags[i]), r * K + i
        if several:
            new = np.flatnonzero(mags >= best_val * ratio - error)
            at, values = _highest(np.append(at, r * K + new), np.append(values, mags[new]), _MAX_STARTS)
    angles = [0.0] * P.num_vars
    flat = best_flat
    for j in reversed(axes):
        flat, digit = divmod(flat, K)
        angles[j] = TWO_PI * digit / K
    if not several:
        return best_val * 2.0**e, tuple(angles), None
    others = (values >= best_val * ratio - error) & (at != best_flat)
    at = np.append(best_flat, _highest(at[others], values[others], _MAX_STARTS - 1)[0])
    cells = TWO_PI * np.stack(np.unravel_index(at, (K,) * len(axes)), axis=1) / K
    return best_val * 2.0**e, tuple(angles), cells


def _highest(
    at: np.ndarray, values: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The count entries of at and values with the largest values, ties
    to the first, in their order.  Merged slab by slab, they hold the
    count highest of the whole grid, so a nearly constant |P| starts no
    more ascents than a peaked one."""
    if len(at) <= count:
        return at, values
    kth = np.partition(values, len(values) - count)[len(values) - count]
    tie = values == kth
    keep = (values > kth) | (tie & (np.cumsum(tie) <= count - np.count_nonzero(values > kth)))
    return at[keep], values[keep]


def _torus_point(angles: tuple[float, ...] | list[float]) -> tuple[complex, ...]:
    # e^{i 0} is exactly 1, and pinned angles are mostly 0.
    return tuple([cmath.exp(1j * t) if t else 1 + 0j for t in angles])


def _line_coefficients(
    P: HomogeneousPolynomial, angles: list[float], axis: int
) -> np.ndarray:
    """g with P(theta with theta_axis = t) = 2^e sum_a g_a e^{i a t}, up to
    the largest exponent of the axis, e from _unit_exponent (exact, and
    its peak is normal, so _line_roots can divide by it).

    Each coefficient is multiplied by the powers of the other coordinates
    in the order P.evaluate multiplies them; coordinates at angle 0 are 1
    and are skipped.
    """
    scale = 2.0**-_unit_exponent(P)
    z = {l: cmath.exp(1j * t) for l, t in enumerate(angles) if t and l != axis}
    g = np.zeros(max(alpha[axis] for alpha in P.terms) + 1, dtype=np.complex128)
    for alpha, coeff in P.terms.items():
        coeff *= scale
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
    A 2k x 2k companion matrix over MAX_GRID_POINTS entries (k > 4096
    after stripping) raises GridTooLargeError before it is allocated.
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
    N = 2 * k
    if N * N > MAX_GRID_POINTS:
        raise GridTooLargeError(
            f"a line of degree {k} needs a {N} x {N} companion matrix, over the "
            f"limit of {MAX_GRID_POINTS} entries; use a lower degree"
        )
    # Coefficients from the highest power of w down.
    p = np.concatenate([kh[k - 1 :: -1], [0.0], -kh[:k].conj()])
    companion = np.eye(N, k=-1, dtype=np.complex128)
    companion[0] = -p[1:] / p[:1]
    roots = np.angle(np.linalg.eigvals(companion)) % TWO_PI
    phases = np.exp(1j * roots * np.arange(L)[:, None])
    f = np.abs((phases * g[:, None]).sum(axis=0))
    return float(roots[f.argmax()])


def _ascend(
    P: HomogeneousPolynomial,
    theta: list[float],
    axes: list[int],
    starts: np.ndarray,
    slack: float = 0.0,
) -> RefineResult:
    """Safeguarded Newton ascent on f = |P|^2 over the free axes from each
    row of starts (free angles, the first theta's own; the others stay
    theta's), one numpy pass per iteration over the rows of a chunk of
    _SLAB_POINTS values that are still climbing.  The first row's end wins unless another's |P| is higher by
    more than slack; theta if |P.evaluate| is no lower there.

    With e = c e^{i a.t} at unit scale, grad f = 2 Re(conj(P) dP) and
    Hess f = 2 Re(conj(dP)^T dP + conj(P) d2P), dP = i sum a e and
    d2P = -sum a a^T e.  The step is Newton's with each Hessian eigenvalue
    w taken as |w| (at least numpy's matrix_rank tolerance), so Newton's
    own where the Hessian is negative definite; it moves no phase a.t by
    over one radian and is halved until f rises.  A row stops at a Newton
    step predicting a gain grad . step of at most sqrt(u) f, taken
    untested (Newton converges quadratically, leaving u f, below rounding
    reach; u = 2^-52); any other row before a step predicting u f.
    """
    e = _unit_exponent(P)
    exps = np.array(list(P.terms), dtype=np.float64)
    pinned = [j for j in range(P.num_vars) if j not in axes]
    phases = np.exp(1j * (exps[:, pinned] @ [theta[j] for j in pinned]))
    coeffs = np.array(list(P.terms.values())) * 2.0**-e * phases
    a, d = exps[:, axes], len(axes)
    # One product with the columns 1, i a_j and -a_j a_k gives P, dP and d2P.
    squares = -(a[:, :, None] * a[:, None, :]).reshape(-1, d * d)
    columns = np.concatenate([np.ones((len(a), 1)), 1j * a, squares], axis=1)
    T, STEP, GAIN, F, NEWTON = slice(0, d), slice(d, 2 * d), 2 * d, 2 * d + 1, 2 * d + 2

    def local(t: np.ndarray) -> np.ndarray:
        """Rows of t, the step, its gain, f and 1.0 if Newton's."""
        derivs = np.dot(coeffs * np.exp(1j * np.dot(t, a.T)), columns)
        p, dp, pc = derivs[:, 0], derivs[:, 1 : d + 1], derivs[:, 0].conj()
        d2p = derivs[:, d + 1 :].reshape(-1, d, d)
        hess = dp.conj()[:, :, None] * dp[:, None, :] + pc[:, None, None] * d2p
        w, v = np.linalg.eigh(hess.real)
        scale = np.maximum(-w[:, 0], w[:, -1])
        # grad . v_k / |w_k| along eigenvector k; grad itself if Hess f = 0.
        along = ((pc[:, None] * dp).real[:, None, :] @ v)[:, 0]
        along_step = along / np.maximum(np.abs(w), (d * _EPS * scale + (scale == 0))[:, None])
        step = (v @ along_step[:, :, None])[:, :, 0]
        cut = 1.0 / np.maximum(np.abs(step @ a.T).max(axis=1), 1.0)
        gain = (along * along_step).sum(axis=1) * cut
        newton = w[:, -1] < -d * _EPS * scale
        return np.column_stack([t, step * cut[:, None], gain, (p * pc).real, newton])

    end, iterations, converged = None, 0, True
    size = max(1, _SLAB_POINTS // (d * len(a)))
    for lo in range(0, len(starts), size):
        state = local(starts[lo : lo + size])
        rows, ends = np.arange(len(state)), np.empty((len(state), d + 1))
        for its in range(_MAX_ITERATIONS + 1):
            trusted = (state[:, NEWTON] > 0) & (state[:, GAIN] <= _EPS**0.5 * state[:, F])
            stopped = trusted | (state[:, GAIN] <= _EPS * state[:, F])
            if its == _MAX_ITERATIONS:
                converged, stopped[:] = converged and bool(stopped.all()), True
            state[:, T] += state[:, STEP] * trusted[:, None]
            ends[rows[stopped]] = state[stopped][:, [*range(d), F]]
            # Only the rows still climbing are evaluated again.
            state, rows = state[~stopped], rows[~stopped]
            if not len(rows):
                break
            cand = local(state[:, T] + state[:, STEP])
            take = cand[:, F] > state[:, F]
            np.copyto(state, cand, where=take[:, None])
            state[~take, STEP.start : GAIN + 1] /= 2
        iterations = max(iterations, its)
        top = np.sqrt(ends[:, d])
        if end is None:
            end, best = ends[0, :d], top[0]
        if top.max() > best + slack * 2.0**-e:
            end, best = ends[top.argmax(), :d], top.max()
    polished = dict(zip(axes, (end % TWO_PI).tolist()))
    polished = [polished.get(j, t) for j, t in enumerate(theta)]
    value, polished_value = (abs(P.evaluate(_torus_point(x))) for x in (theta, polished))
    if polished_value > value:
        theta, value = polished, polished_value
    return RefineResult(value, tuple(theta), iterations, converged)


def refine_local(
    P: HomogeneousPolynomial, angles: tuple[float, ...] | list[float]
) -> RefineResult:
    """Local ascent on theta -> |P(e^{i theta})| over the free axes.

    Pinned axes keep their angles; every diagonal-phase orbit meets the
    points that share them.  With one free axis that axis is the whole
    quotient torus, so a single exact line maximisation (see _line_roots)
    finds the global maximum: one iteration, converged; the root is kept
    only if |P| there is strictly higher.  With two or more, it is
    _ascend from the one start, with as many sweeps as iterations, not
    converged after 200; it stays where the gradient vanishes (a saddle,
    a zero of P).  The value is |P.evaluate| at the returned angles, never
    below its value at the input angles.
    """
    theta = [t % TWO_PI for t in angles]
    if len(theta) != P.num_vars:
        raise ValueError(
            f"angle vector has length {len(theta)}, expected {P.num_vars}"
        )
    axes = _free_axes(P)
    if len(axes) > 1:
        return _ascend(P, theta, axes, np.array([[theta[j] for j in axes]]))
    value = abs(P.evaluate(_torus_point(theta)))
    for j in axes:
        candidate = list(theta)
        candidate[j] = _line_roots(_line_coefficients(P, theta, j), theta[j])
        cand_value = abs(P.evaluate(_torus_point(candidate)))
        if cand_value > value:
            theta, value = candidate, cand_value
    return RefineResult(value, tuple(theta), len(axes), True)


def torus_lipschitz_bound(P: HomogeneousPolynomial) -> float:
    """L = sum_j sum_alpha |c_alpha| alpha_j, bounding the angular drift.

    |d/dtheta_j P(e^{i theta})| <= sum_alpha |c_alpha| alpha_j, so moving
    every coordinate by at most delta changes |P| by at most L*delta.
    For a homogeneous polynomial the double sum collapses to degree times
    the l_1 coefficient norm.  Summed on the coefficients divided by 2^e
    (see _unit_exponent), it is inf only where L exceeds the largest float.
    """
    e = _unit_exponent(P)
    scale = 2.0**-e
    return math.fsum([abs(c * scale) * sum(alpha) for alpha, c in P.terms.items()]) * 2.0**e


def _rounding_bound(m: int, terms: int, num_vars: int, grid: int, l1: float) -> float:
    """E = 64 (m + N + n (1 + log2 K)) u ||c||_1, u = 2^-53, for a degree-m
    polynomial with N = terms coefficients, l1 = ||c||_1, on n = num_vars
    variables at K = grid points per axis.  With G* its exact grid maximum
    (the same with axis 0 pinned and on the free axes), in the standard
    model of floating point:

    - the search's grid values (search._grid_values) exceed G* by at most
      (16 (n - 1) + 2 N + 4) u ||c||_1: a table entry is within about 12u
      of its root of unity, a column multiplies n - 1 of them, and the N
      products c_alpha Phi[:, alpha] are summed one after another;
    - torus_grid_max's values are within 8 log2(K) u ||c||_1 per free
      axis of the exact ones (the componentwise bound of a radix-2 FFT,
      Higham, Accuracy and Stability of Numerical Algorithms, sec. 24.1,
      taken to hold for numpy's mixed-radix passes too), so its argmax
      point has |P| >= G* - 16 (n - 1) log2(K) u ||c||_1;
    - P.evaluate there errs by at most (16 m + 4 n + 2 N) u ||c||_1 (the
      rounded angle and its powers, the products, the sum).

    E bounds the three together.
    """
    return 64.0 * (m + terms + num_vars * (1.0 + math.log2(grid))) * 2.0**-53 * l1


def sup_norm(P: HomogeneousPolynomial, grid: int = DEFAULT_GRID) -> SupNormResult:
    """Two-sided bracket of ||P|| on the unit polydisc.

    grid is K, the grid points per free axis (at least 2).
    lower_estimate: |P.evaluate| at arg_angles, never below its value at
    the grid maximum's angles: refine_local's exact line maximum from
    there with one free axis, else where _ascend climbs from the cells
    that the sampling bound below leaves open, G's and at most
    _MAX_STARTS - 1 of the highest others (see _grid_scan).
    upper_bracket: the smaller of two bounds from the grid maximum G.
    One is G + L*(pi/K), where L is the Lipschitz bound and pi/K the worst
    per-coordinate distance to a grid point.  The other is Szego's
    sampling bound (Ehlich and Zeller, Math. Z. 86, 1964): along free
    axis j, |P| is that of a polynomial of degree D_j, the span of axis
    j's exponents, and K > D_j samples of it reach cos(D_j pi/(2K)) of its
    maximum; axis by axis, ||P|| <= (G + E) / prod_j cos(D_j pi/(2K)), inf
    if some D_j >= K.  E (_rounding_bound, on ||c||_1 summed at unit
    scale) exceeds the rounding of G by 56 (m + N + n) u ||c||_1, which
    covers the quotient and the cosines: each is within (3c + 2)u, where
    c = K/(K - D_j) <= m + 1, and more than 18 free axes fit the grid
    limit only at K = 2, where c = 2.
    Fewer than two terms (the zero polynomial too) leave no free axis, and
    |P| is G at every point: both ends are G.  Raises a ValueError for a
    grid below 2, first, and when the bracket is not finite.
    """
    _check_grid(grid)
    axes = _free_axes(P)
    ratio, error = 1.0, 0.0
    if axes:
        e = _unit_exponent(P)
        l1 = math.fsum([abs(c * 2.0**-e) for c in P.terms.values()])
        error = _rounding_bound(P.degree, len(P.terms), P.num_vars, grid, l1) * 2.0**e
        spans = [max(a[j] for a in P.terms) - min(a[j] for a in P.terms) for j in axes]
        cosines = [math.cos(D * math.pi / (2 * grid)) for D in spans]
        ratio = math.prod(cosines) if max(spans) < grid else 0.0
    grid_value, start, cells = _grid_scan(P, grid, ratio, error)
    sampled = (grid_value + error) / ratio if ratio else math.inf
    upper = min(grid_value + torus_lipschitz_bound(P) * math.pi / grid, sampled)
    if not math.isfinite(upper):
        raise ValueError(_NOT_FINITE)
    r = refine_local(P, start) if cells is None else _ascend(P, list(start), axes, cells, error)
    return SupNormResult(r.value, upper, r.angles, grid, r.converged)
