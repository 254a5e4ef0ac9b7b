"""Supremum norm of a homogeneous polynomial on the closed unit polydisc.

The maximum of |P| over {z : |z_j| <= 1} is attained with every |z_j| = 1
(apply the maximum modulus principle one coordinate at a time), so the
whole module works on the torus: the objective is

    g(theta) = |P(e^{i theta_1}, ..., e^{i theta_N})|.

Variables of constant exponent and, by the diagonal phase symmetry of a
homogeneous P, one more are pinned to angle zero (see _free_axes); the
search runs over the other, free, axes, one for the witness family.

Scale: the public functions divide P's coefficients by an exact power of
two, 2^e (_unit), which puts the largest part in [1, 2), where no sum of
the terms can overflow, and multiply the values they return by 2^e.
Past _unit, every helper that reads coefficients takes and returns
unit-scale numbers only, except _attained, which compares P.evaluate at
P's own scale.

Strategy: a uniform angle grid over the free axes, one inverse FFT per
free axis, gives a lower bound and starting points; refinement climbs
from there, and Szego's sampling bound (or the triangle bound ||c||_1,
if less) turns the grid value into a rigorous upper bracket.  The grid
cells the sampling bound leaves open, up to _MAX_STARTS of the highest,
start a safeguarded Newton ascent.  Each free-axis count has one grid
path and one ascent: a single free axis works on its line, built once
(_line), with one FFT for its grid (_line_scan) and an ascent in plain
Python (_polish), which on a real line skips the mirror of the first
cell; two or more free axes take the whole grid (_grid_scan) and a
batched ascent in numpy (_ascend).  The search scores its candidates on
the grid without this module (see the search module) and calls sup_norm
only for its finalists.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .poly import HomogeneousPolynomial, MultiIndex

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
    peak = max([max(abs(c.real), abs(c.imag)) for c in P.terms.values()], default=0.0)
    return min(max(math.frexp(peak)[1] - 1, -1022), 1022)


def _unit(P: HomogeneousPolynomial) -> tuple[int, dict[MultiIndex, complex]]:
    """e (_unit_exponent) and P's terms divided by 2^e, in term order."""
    e = _unit_exponent(P)
    return e, {alpha: c * 2.0**-e for alpha, c in P.terms.items()}


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
    free axis is inverse-transformed by an FFT.  There is one grid path
    per free-axis count: one free axis transforms its line (_line_scan),
    two or more the whole array (_grid_scan), both at unit scale (_unit);
    scaled back by 2^e, the value is inf only past the largest float.

    K >= 2 is checked first (ValueError); the zero polynomial (0) and a
    single term (|c|) return before the grid size is (GridTooLargeError).
    """
    _check_grid(K)
    axes = _free_axes(P)
    e, unit = _unit(P)
    angles = [0.0] * P.num_vars
    if len(axes) == 1:
        (j,) = axes
        value, cell, _ = _line_scan(_line(unit, angles, j), K, 1.0, 0.0)
        angles[j] = TWO_PI * cell / K
    else:
        value, angles, _ = _grid_scan(unit, P.num_vars, K, axes, 1.0, 0.0)
    return value * 2.0**e, tuple(angles)


def _grid_scan(
    terms: dict[MultiIndex, complex], n: int, K: int, axes: list[int], ratio: float, error: float
) -> tuple[float, tuple[float, ...], np.ndarray]:
    """torus_grid_max's value G and angles over two or more free axes
    (_free_axes) of n variables, and the flat indices of the open cells,
    of value at least ratio * G - error (for sup_norm, those that may be
    nearest the maximiser): G's first, then at most _MAX_STARTS - 1
    others, the highest (see _highest); terms, G and error are at unit
    scale.  Without a free axis, |P| is constant and there is no cell.  A
    grid over the limit raises GridTooLargeError before the scan.

    The last free axis holds only the exponents up to its largest; it is
    transformed last, padded to K points, a slab of rows at a time, which
    bounds each |P| array."""
    at, values = np.zeros(0, dtype=np.intp), np.zeros(0)
    if not axes:
        # No term, or one: |P| is the same at every point of the torus.
        return math.fsum([abs(c) for c in terms.values()]), (0.0,) * n, at
    _check_grid(K, len(axes))
    last_len = min(K, max(alpha[axes[-1]] for alpha in terms) + 1)
    C = np.zeros((K,) * (len(axes) - 1) + (last_len,), dtype=np.complex128)
    slab = max(1, _SLAB_POINTS // K)
    best_val, best_flat = -1.0, 0
    # Exponents that agree mod K give the same grid values, so the terms
    # that alias onto one cell are added, in term order.
    for alpha, coeff in terms.items():
        C[tuple([alpha[j] % K for j in axes])] += coeff
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
        (new,) = (mags >= best_val * ratio - error).nonzero()
        at = np.concatenate((at, r * K + new))
        at, values = _highest(at, np.concatenate((values, mags[new])), _MAX_STARTS)
    angles = [0.0] * n
    flat = best_flat
    for j in reversed(axes):
        flat, digit = divmod(flat, K)
        angles[j] = TWO_PI * digit / K
    others = (values >= best_val * ratio - error) & (at != best_flat)
    at = np.concatenate(((best_flat,), _highest(at[others], values[others], _MAX_STARTS - 1)[0]))
    return best_val, tuple(angles), at


def _line(terms: dict[MultiIndex, complex], theta: list[float], j: int) -> dict[int, complex]:
    """The coefficients c_a of the line q(t) = sum_a c_a e^{i a t} that
    the unit-scale terms trace along axis j from theta: c_a sums, in term
    order, the terms whose exponent on axis j is a, times their phases at
    theta's other angles (none where those are 0).  With one free axis,
    every exponent a belongs to one term."""
    turned = [(l, t) for l, t in enumerate(theta) if t and l != j]
    line: dict[int, complex] = {}
    for alpha, coeff in terms.items():
        if turned:
            coeff *= cmath.exp(1j * sum([alpha[l] * t for l, t in turned]))
        line[alpha[j]] = line.get(alpha[j], 0j) + coeff
    return line


def _line_scan(
    line: dict[int, complex], K: int, ratio: float, error: float
) -> tuple[float, int, list[int]]:
    """The line's grid maximum G = max_k |q(2 pi k/K)|, its cell k and the
    open cells, of value at least ratio * G - error: G's first, then at
    most _MAX_STARTS - 1 others, the highest (see _highest), in cell
    order.  One inverse FFT of the coefficients placed at a mod K, the
    aliased ones added in line order: the sums _grid_scan would form."""
    _check_grid(K, 1)
    row = [0j] * min(K, max(line) + 1)
    for a, c in line.items():
        row[a % K] += c
    mags = np.abs(np.fft.ifft(row, n=K, norm="forward"))
    best = int(mags.argmax())
    top = float(mags[best])
    (others,) = (mags >= top * ratio - error).nonzero()
    others = others[others != best]
    return top, best, [best, *_highest(others, mags[others], _MAX_STARTS - 1)[0].tolist()]


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


def _ascend(
    terms: dict[MultiIndex, complex], theta: Sequence[float], axes: list[int],
    starts: np.ndarray, slack: float = 0.0,
) -> tuple[list[float], int, bool]:
    """Safeguarded Newton ascent on f = |P|^2 of the unit-scale terms over
    the free axes from each row of starts (free angles, the first theta's
    own; the others stay theta's), one numpy pass per iteration over the
    rows of a chunk of _SLAB_POINTS values that are still climbing.  The
    first row's end wins unless another's |P| is higher by more than
    slack: returns its angles, the iterations and whether all converged.

    With e = c e^{i a.t} at unit scale, grad f = 2 Re(conj(P) dP) and
    Hess f = 2 Re(conj(dP)^T dP + conj(P) d2P), dP = i sum a e and
    d2P = -sum a a^T e.  The step is Newton's with each Hessian eigenvalue
    w taken as |w| (at least numpy's matrix_rank tolerance), so Newton's
    own where the Hessian is negative definite; it moves no phase a.t by
    over one radian and is halved until f rises.  A row stops at a Newton
    step predicting a gain grad . step of at most sqrt(u) f, taken
    untested (Newton converges quadratically, leaving u f, below rounding
    reach; u = 2^-52); any other row before a step predicting u f.  Each
    row's angles, step, gain, f and Newton flag are arrays of their own;
    rows leave them only on an iteration where some row stops, and only
    the rows that did not rise are halved.
    """
    exps = np.array(list(terms), dtype=np.float64)
    coeffs = np.array(list(terms.values()))
    pinned = [j for j in range(len(theta)) if j not in axes]
    if any(theta[j] for j in pinned):
        coeffs = coeffs * np.exp(1j * (exps[:, pinned] @ [theta[j] for j in pinned]))
    a, d = exps[:, axes], len(axes)
    # One product with the columns 1, i a_j and -a_j a_k gives P, dP and d2P.
    squares = -(a[:, :, None] * a[:, None, :]).reshape(-1, d * d)
    columns = np.concatenate([np.ones((len(a), 1)), 1j * a, squares], axis=1)

    def local(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """From each row of t: the step, its gain, f and whether it is Newton's."""
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
        return step * cut[:, None], gain, (p * pc).real, w[:, -1] < -d * _EPS * scale

    end, iterations, converged = None, 0, True
    size = max(1, _SLAB_POINTS // (d * len(a)))
    for lo in range(0, len(starts), size):
        t = starts[lo : lo + size]
        step, gain, f, newton = local(t)
        rows, ends = np.arange(len(t)), np.empty((len(t), d + 1))
        for its in range(_MAX_ITERATIONS + 1):
            trusted = newton & (gain <= _EPS**0.5 * f)
            stopped = trusted | (gain <= _EPS * f)
            if its == _MAX_ITERATIONS:
                converged, stopped[:] = converged and bool(stopped.all()), True
            if stopped.any():
                if trusted.any():
                    t = np.where(trusted[:, None], t + step, t)
                ends[rows[stopped], :d] = t[stopped]
                ends[rows[stopped], d] = f[stopped]
                # Only the rows still climbing are evaluated again.
                climbing = ~stopped
                if not climbing.any():
                    break
                t, step, gain, f = t[climbing], step[climbing], gain[climbing], f[climbing]
                newton, rows = newton[climbing], rows[climbing]
            moved = t + step
            cand = local(moved)
            take = cand[2] > f
            if take.all():
                t, (step, gain, f, newton) = moved, cand
            else:
                t = np.where(take[:, None], moved, t)
                step = np.where(take[:, None], cand[0], step / 2)
                gain = np.where(take, cand[1], gain / 2)
                f, newton = np.where(take, cand[2], f), np.where(take, cand[3], newton)
        iterations = max(iterations, its)
        top = np.sqrt(ends[:, d])
        if end is None:
            end, best = ends[0, :d], top[0]
        if top.max() > best + slack:
            end, best = ends[top.argmax(), :d], top.max()
    polished = dict(zip(axes, (end % TWO_PI).tolist()))
    return [polished.get(j, t) for j, t in enumerate(theta)], iterations, converged


def _polish(
    line: dict[int, complex], starts: list[float], slack: float = 0.0
) -> tuple[float, int, bool]:
    """_ascend's rules along one free axis, in plain Python, from each
    angle of starts in turn, on the unit-scale line (_line) q(t) =
    sum_a c_a e^{i a t}; the exponents are counted from the lowest, so a
    step costs one term per exponent present, not one per degree.  With
    s_k = sum a^k c_a e^{i a t}, f = |q|^2 has f'/2 = Im(q conj(s_1)) and
    f''/2 = |s_1|^2 - Re(conj(q) s_2).  The step f'/|f''| (f' where
    f'' = 0) moves no phase a t over one radian and is halved until f
    rises.  A start stops once it predicts a gain of at most u f, never at
    an untested sqrt(u) f step as _ascend's rows may: on flat peaks of the
    witness family those ended up to 3.6e-12 relative low.  The first
    start's end wins unless another's |q| is higher by more than slack;
    returns its angle, the iterations and whether every start converged."""
    low = min(line)
    span = max(line) - low
    constant = line[low]
    terms = [(a - low, (a - low) ** 2, c) for a, c in line.items() if a != low]
    rect = cmath.rect

    def local(t: float) -> tuple[float, float, float]:
        """f at t, the step and the gain it predicts."""
        q, s1, s2 = constant, 0j, 0j
        for a, squared, c in terms:
            c *= rect(1.0, a * t)
            q += c
            s1 += a * c
            s2 += squared * c
        slope = (q * s1.conjugate()).imag
        bend = abs(abs(s1) ** 2 - (q.conjugate() * s2).real)
        step = slope / bend if bend else slope
        cut = abs(step) * span
        if cut > 1.0:
            step /= cut
        return abs(q) ** 2, step, slope * step

    iterations, converged, ends = 0, True, []
    for t in starts:
        f, step, gain = local(t)
        for its in range(_MAX_ITERATIONS + 1):
            if gain <= _EPS * f:
                break
            if its == _MAX_ITERATIONS:
                converged = False
                break
            moved = local(t + step)
            if moved[0] > f:
                t, (f, step, gain) = t + step, moved
            else:
                step, gain = step / 2, gain / 2
        iterations = max(iterations, its)
        ends.append((math.sqrt(f), t))
    top, end = max(ends, key=lambda x: x[0])
    if top <= ends[0][0] + slack:
        end = ends[0][1]
    return end % TWO_PI, iterations, converged


def _attained(
    P: HomogeneousPolynomial, theta: Sequence[float], polished: Sequence[float]
) -> tuple[float, tuple[float, ...]]:
    """|P.evaluate| at P's own scale and the angles it is taken at:
    polished's where it is strictly higher there than at theta, else
    theta's.  e^{i 0} is exactly 1, and pinned angles are mostly 0."""
    value, polished_value = (
        abs(P.evaluate([cmath.exp(1j * t) if t else 1 + 0j for t in x])) for x in (theta, polished)
    )
    if polished_value > value:
        return polished_value, tuple(polished)
    return value, tuple(theta)


def refine_local(P: HomogeneousPolynomial, angles: tuple[float, ...] | list[float]) -> RefineResult:
    """Local ascent on theta -> |P(e^{i theta})| over the free axes from
    the one start angles: sup_norm's polish with one free axis, its
    batched ascent with two or more, with as many sweeps as iterations,
    not converged after 200.  Pinned axes keep their angles; every
    diagonal-phase orbit meets the points that share them.  It stays
    where the gradient vanishes (a zero of P, a saddle), so it ends at a
    local maximum, not always the global one.  The value is |P.evaluate|
    at the returned angles, never below its value at the input angles.
    """
    theta = [t % TWO_PI for t in angles]
    if len(theta) != P.num_vars:
        raise ValueError(f"angle vector has length {len(theta)}, expected {P.num_vars}")
    axes = _free_axes(P)
    _, unit = _unit(P)
    polished, iterations, converged = theta, 0, True
    if len(axes) > 1:
        starts = np.array([[theta[j] for j in axes]])
        polished, iterations, converged = _ascend(unit, theta, axes, starts)
    elif axes:
        (j,) = axes
        end, iterations, converged = _polish(_line(unit, theta, j), [theta[j]])
        polished = theta[:j] + [end] + theta[j + 1 :]
    return RefineResult(*_attained(P, theta, polished), iterations, converged)


def torus_lipschitz_bound(P: HomogeneousPolynomial) -> float:
    """L = sum_j sum_alpha |c_alpha| alpha_j, bounding the angular drift.

    |d/dtheta_j P(e^{i theta})| <= sum_alpha |c_alpha| alpha_j, so moving
    every coordinate by at most delta changes |P| by at most L*delta.
    For a homogeneous polynomial the double sum collapses to degree times
    the l_1 coefficient norm.  Summed on the unit-scale terms (_unit) and
    scaled back by 2^e, it is inf only where L exceeds the largest float.
    sup_norm does not call it: its triangle bound ||c||_1 is never looser.
    """
    e, unit = _unit(P)
    return math.fsum([abs(c) * sum(alpha) for alpha, c in unit.items()]) * 2.0**e


def _sampling(
    terms: dict[MultiIndex, complex], m: int, n: int, spans: list[int], K: int
) -> tuple[float, float, float]:
    """prod_j cos(D_j pi/(2K)) over the free axes' spans D_j (0 if some
    D_j >= K), E (0 without a free axis) and ||c||_1, at unit scale, of
    the unit-scale terms of a degree-m form on n variables; finite there,
    they raise nothing (sup_norm checks the bracket it scales back)."""
    l1 = math.fsum([abs(c) for c in terms.values()])
    error = _rounding_bound(m, len(terms), n, K, l1) if spans else 0.0
    if max(spans, default=0) >= K:
        return 0.0, error, l1
    return math.prod([math.cos(D * math.pi / (2 * K)) for D in spans]), error, l1


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
      rounded angle and its powers, the products, the sum), and ||c||_1
      summed by math.fsum of the rounded moduli by at most 2u ||c||_1.

    E bounds these together.
    """
    return 64.0 * (m + terms + num_vars * (1.0 + math.log2(grid))) * 2.0**-53 * l1


def sup_norm(P: HomogeneousPolynomial, grid: int = DEFAULT_GRID) -> SupNormResult:
    """Two-sided bracket of ||P|| on the unit polydisc.

    grid is K, the grid points per free axis (at least 2).
    lower_estimate: |P.evaluate| at arg_angles, never below its value at
    the grid maximum's angles: where the ascent (_polish with one free
    axis, _ascend with more) climbs from the cells that the sampling bound
    below leaves open, G's and at most _MAX_STARTS - 1 of the highest
    others (see _grid_scan and _line_scan).  K cells cannot reach the D
    peaks of a free axis of span D >= K: its starts come from 2^k >= 4D
    points instead.
    upper_bracket: the smaller of two bounds.  One is the triangle bound
    ||c||_1 + E: |P| <= sum_alpha |c_alpha| on the torus, with equality
    where the phases of the terms agree, and E (below) exceeds the
    rounding of that sum and of P.evaluate, so the bracket holds where |P|
    reaches ||c||_1.  The other, from the grid maximum G, is Szego's
    sampling bound (Ehlich and Zeller, Math. Z. 86, 1964): along free
    axis j, |P| is that of a polynomial of degree D_j, the span of axis
    j's exponents, and K > D_j samples of it reach cos(D_j pi/(2K)) of its
    maximum; axis by axis, ||P|| <= (G + E) / prod_j cos(D_j pi/(2K)), inf
    if some D_j >= K.  E (_rounding_bound) exceeds the rounding of G by
    56 (m + N + n) u ||c||_1, which covers the quotient and the cosines:
    each is within (3c + 2)u, where c = K/(K - D_j) <= m + 1, and more
    than 18 free axes fit the grid limit only at K = 2, where c = 2.
    Fewer than two terms (the zero polynomial too) leave no free axis, and
    |P| is G = ||c||_1 at every point: both ends are G.  All of it runs
    on the unit-scale terms (_unit), and the bracket is scaled back by
    2^e.  Raises, before any ascent, a ValueError for a grid below 2,
    first, GridTooLargeError for a grid over the limit, and a ValueError
    when the scaled bracket is not finite.
    """
    _check_grid(grid)
    axes = _free_axes(P)
    e, unit = _unit(P)
    spans = [max(a[j] for a in unit) - min(a[j] for a in unit) for j in axes]
    ratio, error, l1 = _sampling(unit, P.degree, P.num_vars, spans, grid)
    theta = [0.0] * P.num_vars
    if len(axes) == 1:
        (j,) = axes
        line = _line(unit, theta, j)
        grid_value, cell, cells = _line_scan(line, grid, ratio, error)
        theta[j] = TWO_PI * cell / grid
    else:
        grid_value, theta, cells = _grid_scan(unit, P.num_vars, grid, axes, ratio, error)
    upper = _upper_bracket(grid_value, ratio, error, l1) * 2.0**e
    if not math.isfinite(upper):
        raise ValueError(_NOT_FINITE)
    polished, converged = theta, True
    if len(axes) == 1:
        starts_grid = grid
        if not ratio:
            starts_grid = min(1 << (4 * spans[0] - 1).bit_length(), MAX_GRID_POINTS)
            fine_ratio, fine_error, _ = _sampling(unit, P.degree, P.num_vars, spans, starts_grid)
            cells = _line_scan(line, starts_grid, fine_ratio, fine_error)[2]
        # On a real line |q(-t)| = |q(t)|: the climb from the mirror -k0 of
        # the first cell k0 would end within rounding of k0's, could not win
        # by the slack E, and is not made.  Other mirrors are climbed: k0's
        # climb may end below two mirror peaks, whose last bits decide.
        if not any(c.imag for c in line.values()):
            cells = [k for k in cells if (k + cells[0]) % starts_grid or k == cells[0]]
        end, _, converged = _polish(line, [TWO_PI * k / starts_grid for k in cells], error)
        polished = theta[:j] + [end] + theta[j + 1 :]
    elif axes:
        starts = TWO_PI * np.stack(np.unravel_index(cells, (grid,) * len(axes)), axis=1) / grid
        polished, _, converged = _ascend(unit, theta, axes, starts, error)
    value, angles = _attained(P, theta, polished)
    return SupNormResult(value, upper, angles, grid, converged)


def _upper_bracket(grid_value: float, ratio: float, error: float, l1: float) -> float:
    """The smaller of the triangle bound ||c||_1 + E and the sampling bound
    (G + E)/ratio, inf where ratio is 0 (see sup_norm), from the grid
    value G, the cosine product, E and ||c||_1 of _sampling alone, all at
    unit scale, where the result is finite; a checker scales it by 2^e,
    and sup_norm raises the not-finite ValueError after that scaling."""
    sampled = (grid_value + error) / ratio if ratio else math.inf
    return min(l1 + error, sampled)
