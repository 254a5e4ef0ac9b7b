import cmath
import json
import math
import sys

import numpy as np
import pytest

from bhbounds import (
    FamilyParams,
    FormulaDomainError,
    GridTooLargeError,
    HomogeneousPolynomial,
    MAX_GRID_POINTS,
    SupNormResult,
    build_witness,
    optimal_x,
    quadratic_sup_norm,
    sup_norm,
)
from bhbounds.search import degree_multi_indices
from bhbounds.supnorm import refine_local, torus_grid_max, torus_lipschitz_bound
from oracles import (
    brute_force_torus_max,
    coefficient_l1,
    full_grid_max,
    lipschitz_slack,
    random_polynomial,
    random_valid_quadratic,
    scalar_line_max,
    upper_bracket_from_parts,
)

TWO_PI = 2.0 * math.pi


def quadratic(a, b, c):
    return HomogeneousPolynomial(2, 2, {(2, 0): a, (0, 2): b, (1, 1): c})


# --- torus_grid_max ----------------------------------------------------------


def test_grid_max_unimodular_monomial():
    for m in (1, 3, 6):
        P = HomogeneousPolynomial(m, 1, {(m,): 1.0})
        value, _ = torus_grid_max(P, 16)
        assert value == 1.0
    # One term is |c| at any scale: scaled by powers of two, exactly.
    for e in (600, -600):
        c = complex(3.0, -4.0) * 2.0**e
        assert torus_grid_max(HomogeneousPolynomial(2, 1, {(2,): c}), 16)[0] == abs(c)


def test_grid_max_difference_of_squares():
    P = quadratic(1.0, -1.0, 0.0)
    value, angles = torus_grid_max(P, 64)
    assert 1.99 <= value <= 2.0 + 1e-12
    # K divisible by 4 puts the true maximizer on the grid
    assert value == pytest.approx(2.0, abs=1e-12)
    z = [cmath.exp(1j * t) for t in angles]
    assert abs(P.evaluate(z)) == pytest.approx(value, abs=1e-12)


def test_grid_max_product_of_variables():
    for m in (2, 4):
        P = HomogeneousPolynomial(m, m, {(1,) * m: 1.0})
        value, angles = torus_grid_max(P, 8)
        assert value == 1.0
        assert angles == (0.0,) * m  # single term pins every variable


def first_active_axis(P):
    alphas = list(P.terms)
    return next(
        (j for j in range(P.num_vars) if any(a[j] != alphas[0][j] for a in alphas)),
        None,
    )


def test_grid_max_matches_brute_force():
    # The grid pins the first active angle at 0 (diagonal phase); the value
    # must still be the maximum over the whole K^N grid and be attained.
    rng = np.random.default_rng(101)
    for n in (1, 2, 3):
        for _ in range(6):
            P = random_polynomial(rng, int(rng.integers(2, 5)), n)
            value, angles = torus_grid_max(P, 32)
            assert value == pytest.approx(brute_force_torus_max(P, 32), rel=1e-12)
            assert value == pytest.approx(full_grid_max(P, 32), rel=1e-12)
            j = first_active_axis(P)
            assert j is None or angles[j] == 0.0
            z = [cmath.exp(1j * t) for t in angles]
            assert abs(P.evaluate(z)) == pytest.approx(value, rel=1e-12)
    # Four variables (three free axes), and grids with K below the degree,
    # where exponents alias mod K and distinct terms share one grid cell.
    for n, m, K in [(4, 3, 8), (4, 4, 8), (2, 7, 4), (3, 6, 5), (2, 9, 2)]:
        P = random_polynomial(rng, m, n, density=1.0)
        value, angles = torus_grid_max(P, K)
        assert value == pytest.approx(full_grid_max(P, K), rel=1e-12)
        z = [cmath.exp(1j * t) for t in angles]
        assert abs(P.evaluate(z)) == pytest.approx(value, rel=1e-12)


def test_grid_max_multi_slab_matches_single_slab(monkeypatch):
    import bhbounds.supnorm as supnorm_module

    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        for _ in range(3):
            P = random_polynomial(rng, int(rng.integers(2, 6)), n)
            single, bracket = torus_grid_max(P, 16), sup_norm(P, 16)
            with monkeypatch.context() as patch:
                patch.setattr(supnorm_module, "_SLAB_POINTS", 7)
                assert torus_grid_max(P, 16) == single
                # The open cells, gathered a row at a time, start the same
                # ascents, here one at a time; they end within rounding.
                small = sup_norm(P, 16)
                assert small.upper_bracket == bracket.upper_bracket
                assert small.lower_estimate == pytest.approx(bracket.lower_estimate, rel=1e-14)


def test_grid_max_breaks_ties_lexicographically(monkeypatch):
    # |z1^2 - z2^2 - z3^2| = 3 exactly where z2^2 = z3^2 = -1: four points of
    # the K = 4 grid with theta1 = 0.  The smallest angle vector wins, also
    # when the tied points fall in different slabs.
    import bhbounds.supnorm as supnorm_module

    P = HomogeneousPolynomial(2, 3, {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0})
    expected = (3.0, (0.0, TWO_PI * 1 / 4, TWO_PI * 1 / 4))
    assert torus_grid_max(P, 4) == expected
    for slab_points in (4, 8):  # one and two rows of the grid per slab
        with monkeypatch.context() as patch:
            patch.setattr(supnorm_module, "_SLAB_POINTS", slab_points)
            assert torus_grid_max(P, 4) == expected


def test_grid_max_overflow_is_inf(monkeypatch):
    # Grid values near the largest float overflow to inf or NaN; the grid
    # maximum is then inf, never a finite value that skipped them, also
    # when finite values follow in later slabs.
    import bhbounds.supnorm as supnorm_module

    polys = [
        quadratic(1e308, -1e308, 1e308),
        HomogeneousPolynomial(
            2, 3, {(2, 0, 0): 1e308, (0, 2, 0): 1e308, (0, 1, 1): 1e308, (1, 0, 1): -1e308}
        ),
        HomogeneousPolynomial(2, 2, {(2, 0): 1.7e308, (0, 2): 1.7e308}),
    ]
    for P in polys:
        for K in (4, 8, 64):
            assert torus_grid_max(P, K)[0] == math.inf
            with monkeypatch.context() as patch:
                patch.setattr(supnorm_module, "_SLAB_POINTS", 1)
                assert torus_grid_max(P, K)[0] == math.inf
        with pytest.raises(ValueError, match="not finite"):
            sup_norm(P)


def test_grid_max_near_overflow_is_inf_or_exact():
    # Random grids scaled to the edge of the float range: the value is inf
    # wherever the grid maximum, computed on the unscaled polynomial, does
    # not fit in a float, and otherwise inf or that maximum.
    rng = np.random.default_rng(308)
    scale = 3e307
    infinite = 0
    for _ in range(120):
        P = random_polynomial(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        value, angles = torus_grid_max(P.scaled(scale), 8)
        exact = full_grid_max(P, 8) * scale
        if value == math.inf:
            infinite += 1
        else:
            assert math.isfinite(exact)
            assert value == pytest.approx(exact, rel=1e-12)
            z = [cmath.exp(1j * t) for t in angles]
            assert abs(P.evaluate(z)) * scale == pytest.approx(value, rel=1e-12)
    assert 0 < infinite < 120


def test_grid_max_just_below_overflow_is_finite():
    # The grid runs on the coefficients divided by an exact power of two, so
    # a grid maximum that fits in a float is found, not lost to a sum inside
    # the transforms that passes the largest float before it cancels.
    P = HomogeneousPolynomial(
        4,
        2,
        {
            (1, 3): complex(-6.406761914407533e307, -9.131943118939467e307),
            (3, 1): complex(2.0548620409779038e307, 4.691886941459397e307),
        },
    )
    value, _ = torus_grid_max(P, 8)
    assert value == pytest.approx(full_grid_max(P.scaled(2.0**-10), 8) * 2.0**10, rel=1e-12)
    rng = np.random.default_rng(1308)
    for _ in range(60):
        P = random_polynomial(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        scale = 0.99 * sys.float_info.max / full_grid_max(P, 8)
        value, _ = torus_grid_max(P.scaled(scale), 8)
        assert value == pytest.approx(full_grid_max(P, 8) * scale, rel=1e-12)


def test_grid_max_and_slack_keep_digits_below_the_normal_range():
    # Integer coefficients times 2^-1040 or 2^-1060 are exact subnormal
    # floats.  Scaled up by a power of two, they give the grid maximum and
    # the Lipschitz bound of the unscaled polynomial times 2^e, rounded once.
    rng = np.random.default_rng(1040)
    for _ in range(60):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        terms = {
            alpha: complex(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
            for alpha in degree_multi_indices(m, n)
            if rng.uniform() < 0.7
        }
        P = HomogeneousPolynomial(m, n, terms)
        for e in (-1040, -1060):
            tiny = P.scaled(2.0**e)
            assert torus_grid_max(tiny, 8)[0] == torus_grid_max(P, 8)[0] * 2.0**e
            assert torus_lipschitz_bound(tiny) == torus_lipschitz_bound(P) * 2.0**e


def test_grid_max_memory_stays_near_one_array(monkeypatch):
    # The free-axis FFTs run in place, so with small slabs the peak is about
    # one transformed coefficient array; a transform into a fresh array
    # would double it.
    import tracemalloc

    import bhbounds.supnorm as supnorm_module

    monkeypatch.setattr(supnorm_module, "_SLAB_POINTS", 64)
    K = 32
    # Four varying axes leave three free ones; the degree-40 term on the
    # last free axis gives it K columns, so the array is K^3 complex values.
    P = HomogeneousPolynomial(
        40,
        4,
        {(40, 0, 0, 0): 1.0, (0, 0, 0, 40): -0.5, (10, 10, 10, 10): 0.7,
         (1, 13, 20, 6): 0.3j, (20, 0, 5, 15): 1.1},
    )
    array_bytes = K**3 * np.dtype(np.complex128).itemsize
    torus_grid_max(P, K)  # first-call caches of numpy are not the grid's cost
    tracemalloc.start()
    try:
        torus_grid_max(P, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * array_bytes


def test_brute_force_oracle_slice_matches_full_scan():
    rng = np.random.default_rng(77)
    for _ in range(6):
        P = random_polynomial(rng, int(rng.integers(2, 5)), 3)
        assert brute_force_torus_max(P, 32) == pytest.approx(
            full_grid_max(P, 32), rel=1e-12
        )


def test_grid_max_monotone_in_grid_refinement():
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = random_polynomial(rng, int(rng.integers(2, 5)), 2)
        coarse, _ = torus_grid_max(P, 16)
        fine, _ = torus_grid_max(P, 32)  # nested grids
        assert fine >= coarse - 1e-14


def test_grid_too_large():
    P = HomogeneousPolynomial(
        2, 5, {(1, 1, 0, 0, 0): 1.0, (0, 0, 1, 1, 0): 1.0, (0, 0, 0, 1, 1): -1.0}
    )
    with pytest.raises(GridTooLargeError, match="fewer variables or a smaller grid"):
        torus_grid_max(P, 256)


# --- refine_local ------------------------------------------------------------


def test_refine_converges_from_coarse_grid():
    P = quadratic(1.0, -1.0, 0.0)
    _, start = torus_grid_max(P, 8)
    result = refine_local(P, start)
    assert result.value == pytest.approx(2.0, abs=1e-10)
    assert result.converged


def test_refine_fixed_point_at_local_max():
    P = quadratic(1.0, -1.0, 0.0)
    start = (0.0, math.pi / 2)  # |P| = 2 exactly, the global max
    result = refine_local(P, start)
    assert result.value == 2.0
    assert result.sweeps == 0  # the first step already predicts no gain
    assert result.converged


def test_refine_reaches_closed_form_from_k32_start():
    c = 2.828427
    P = quadratic(1.0, -1.0, c)
    _, start = torus_grid_max(P, 32)
    result = refine_local(P, start)
    assert result.value == pytest.approx(math.sqrt(4.0 + c * c), abs=1e-8)


def test_refine_single_line_matches_dense_sampling():
    # Two variables leave one free axis after the diagonal pin, and so do
    # three when one variable has the same exponent in every term; its
    # start angle stays as given and enters every term of the line.  From
    # any start refine_local climbs to a peak of that line, not always the
    # highest; sup_norm climbs from every open cell of a grid that
    # resolves the line (K itself, or 32 points where K = 5 and the span
    # is 5 to 8), and reaches the dense maximum.
    rng = np.random.default_rng(61)
    samples = 1 << 16
    t = TWO_PI * np.arange(samples) / samples
    cases = []
    for m in (2, 3, 5, 8):
        P = random_polynomial(rng, m, 2)
        cases.append((P, tuple(rng.uniform(0, TWO_PI, 2))))
    for m in (2, 3, 5, 8):
        for fixed in (0, 1, 2):
            Q = random_polynomial(rng, m - 1, 2, density=1.0)
            terms = {a[:fixed] + (1,) + a[fixed:]: c for a, c in Q.terms.items()}
            P = HomogeneousPolynomial(m, 3, terms)
            cases += [(P, tuple(rng.uniform(0, TWO_PI, 3))) for _ in range(2)]
    for P, start in cases:
        (j,) = free_axes(P)
        line = 0
        for a, c in P.terms.items():
            rest = sum(a[l] * start[l] for l in range(P.num_vars) if l != j)
            line = line + c * np.exp(1j * (rest + a[j] * t))
        dense = float(np.abs(line).max())
        result = refine_local(P, start)
        assert result.converged
        z = [cmath.exp(1j * a) for a in result.angles]
        assert abs(P.evaluate(z)) == result.value
        assert result.value >= abs(P.evaluate([cmath.exp(1j * a) for a in start]))
        for h in (1e-6, -1e-6, 1e-3, -1e-3):
            z[j] = cmath.exp(1j * (result.angles[j] + h))
            assert abs(P.evaluate(z)) <= result.value * (1 + 1e-13)
        for K in (5, 16):
            bracket = sup_norm(P, K)
            assert dense <= bracket.lower_estimate + 1e-12
            assert bracket.lower_estimate <= dense + lipschitz_slack(P, samples)
            assert bracket.converged


def test_refine_stop_is_scale_invariant():
    # The stop compares a sweep's gain with the value itself, so scaling P
    # changes neither the sweep count nor the relative value.
    P = random_polynomial(np.random.default_rng(3), 4, 3)
    _, start = torus_grid_max(P, 64)
    results = [refine_local(P.scaled(s), start) for s in (1.0, 1e-12, 1e12)]
    base = results[0]
    assert base.converged and base.sweeps > 1
    for s, result in zip((1e-12, 1e12), results[1:]):
        assert result.sweeps == base.sweeps
        assert result.value == pytest.approx(s * base.value, rel=1e-13)


def test_refine_never_decreases():
    rng = np.random.default_rng(23)
    for _ in range(20):
        P = random_polynomial(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        start_angles = tuple(rng.uniform(0, TWO_PI, P.num_vars))
        start_value = abs(P.evaluate([cmath.exp(1j * t) for t in start_angles]))
        result = refine_local(P, start_angles)
        assert result.value >= start_value


def free_axes(P):
    alphas = list(P.terms)
    varying = [j for j in range(P.num_vars) if any(a[j] != alphas[0][j] for a in alphas)]
    return varying[1:]


def test_refine_newton_reaches_coordinatewise_max_fast():
    # Two or more free axes: sup_norm polishes the open grid cells by
    # Newton steps and ends where no coordinate line improves the value;
    # from the grid maximum alone, refine_local's polish converges in a
    # few iterations.  Coordinate ascent alone took up to 62 sweeps from
    # such starts.
    rng = np.random.default_rng(67)
    samples = 1 << 14
    t = TWO_PI * np.arange(samples) / samples
    cases = [(random_polynomial(rng, 3 + i % 3, 3), 64) for i in range(60)]
    cases += [(random_polynomial(rng, m, 4), 16) for m in (2, 3, 3, 4)]
    for P, K in cases:
        axes = free_axes(P)
        assert len(axes) >= 2
        start_value, start = torus_grid_max(P, K)
        result = sup_norm(P, K)
        assert result.lower_estimate >= start_value
        z = [cmath.exp(1j * a) for a in result.arg_angles]
        assert abs(P.evaluate(z)) == result.lower_estimate
        for j in range(P.num_vars):
            if j not in axes:
                assert result.arg_angles[j] == start[j] == 0.0
        assert result.converged
        refined = refine_local(P, start)
        assert refined.converged and refined.sweeps <= 10
        for j in axes:
            line = 0
            for a, c in P.terms.items():
                rest = sum(a[l] * result.arg_angles[l] for l in range(P.num_vars) if l != j)
                line = line + c * np.exp(1j * (rest + a[j] * t))
            assert float(np.abs(line).max()) <= result.lower_estimate * (1 + 1e-9)


def test_refine_ignores_tiny_end_terms_on_multi_axis_lines():
    # A 1e-150 term at the top exponent of a free axis changes |P| by at
    # most 1e-150, so the ascent gives what it gives for the polynomial
    # without the term.
    rng = np.random.default_rng(73)
    for m in (3, 4, 5):
        for _ in range(8):
            P = random_polynomial(rng, m, 3)
            clean = {a: c for a, c in P.terms.items() if a not in ((0, 0, m), (0, m, 0))}
            Q = HomogeneousPolynomial(m, 3, clean)
            assert len(free_axes(Q)) == 2
            tiny = HomogeneousPolynomial(m, 3, {**clean, (0, 0, m): 1e-150, (0, m, 0): -1e-150j})
            _, start = torus_grid_max(Q, 16)
            expected = refine_local(Q, start)
            result = refine_local(tiny, start)
            assert result.converged
            assert result.value == pytest.approx(expected.value, rel=1e-13)
            assert sup_norm(tiny, 16).lower_estimate == pytest.approx(
                sup_norm(Q, 16).lower_estimate, rel=1e-13
            )


def test_refine_singular_hessian():
    # The exponent differences of z1^3 + 2 z2 z3^2 have rank 1: |P| depends
    # on theta_2 + 2 theta_3 only, so the Hessian is singular everywhere.
    P = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0, (0, 1, 2): 2.0})
    rng = np.random.default_rng(71)
    for _ in range(10):
        result = refine_local(P, tuple(rng.uniform(0, TWO_PI, 3)))
        assert result.converged
        assert result.value == pytest.approx(3.0, abs=1e-12)


def test_refine_climbs_out_of_minimum_and_saddle():
    # With theta_1 pinned, f = |P|^2 = 14 + 4 cos a + 6 cos b + 12 cos(a - b)
    # for a = 3 theta_2, b = 3 theta_3.  (a, b) = (0, pi) is a zero of P (a
    # minimum) and (pi, 0) a saddle (f_aa = 16, f_bb = 6, f_ab = -12).  The
    # gradient vanishes at both, so a polish started there stays; sup_norm
    # starts from every open grid cell, and one of them is nearest the
    # maximum ||P|| = 6 at a = b = 0.
    P = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 2.0, (0, 0, 3): 3.0})
    for start, start_value in (((0.0, 0.0, math.pi / 3), 0.0), ((0.0, math.pi / 3, 0.0), 2.0)):
        z = [cmath.exp(1j * a) for a in start]
        assert abs(P.evaluate(z)) == pytest.approx(start_value, abs=1e-12)
        result = refine_local(P, start)
        assert result.converged
        assert result.value >= abs(P.evaluate(z))
    for K in (7, 16, 64):
        result = sup_norm(P, K)
        assert result.converged
        assert result.lower_estimate >= 2.0 + 1.0
        assert result.lower_estimate == pytest.approx(6.0, abs=1e-12)


def test_refine_escapes_saddle_no_line_improves():
    # At theta = (0, pi/3, pi/3), i.e. (a, b) = (pi, pi), f = 16 is a saddle
    # (f_aa = -8, f_bb = -6, f_ab = 12) whose two coordinate lines are at
    # their maxima, so no coordinate line improves it and a polish started
    # there stays.  sup_norm does not start from it alone: from the open
    # grid cells it reaches ||P|| = 6.
    P = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 2.0, (0, 0, 3): 3.0})
    start = (0.0, math.pi / 3, math.pi / 3)
    assert abs(P.evaluate([cmath.exp(1j * a) for a in start])) == pytest.approx(4.0, abs=1e-12)
    t = TWO_PI * np.arange(1 << 12) / (1 << 12)
    for j in (1, 2):
        line = 0
        for a, c in P.terms.items():
            rest = sum(a[l] * start[l] for l in range(P.num_vars) if l != j)
            line = line + c * np.exp(1j * (rest + a[j] * t))
        assert float(np.abs(line).max()) == pytest.approx(4.0, abs=1e-12)
    result = refine_local(P, start)
    assert result.converged
    assert result.value == pytest.approx(4.0, abs=1e-12)
    for K in (7, 16, 64):
        result = sup_norm(P, K)
        assert result.converged
        assert result.lower_estimate == pytest.approx(6.0, abs=1e-12)


def test_sup_norm_polish_finds_the_peak_a_coarse_grid_misses():
    # At grid 7 the grid maximum of this degree-4 form lies on the slope of
    # a lower peak: an ascent from it alone ends 9.4% below the dense grid
    # maximum.  Started from every open cell, it reaches the highest peak.
    P = random_polynomial(np.random.default_rng(28), 4, 3)
    dense = brute_force_torus_max(P, 1024)
    result = sup_norm(P, 7)
    assert result.lower_estimate >= dense - 1e-9
    assert result.lower_estimate <= dense + lipschitz_slack(P, 1024)
    assert result.lower_estimate <= result.upper_bracket
    z = [cmath.exp(1j * a) for a in result.arg_angles]
    assert abs(P.evaluate(z)) == result.lower_estimate


@pytest.mark.parametrize("eps", [1e-7, 1e-20])
def test_sup_norm_starts_stay_few_when_every_cell_is_open(monkeypatch, eps):
    # |P| = |1 + eps (w2 + w3)| varies by 4 eps over the torus.  At K = 1030
    # (over 2^20 cells, so more than one slab) eps = 1e-7 keeps that below
    # the sampling bound's margin, 1 - cos(pi/(2K))^2, about 2.3e-6, and
    # eps = 1e-20 makes |P| an exact plateau of 1 at unit scale: either way
    # every cell is open, and the ascent starts from _MAX_STARTS of them.
    import bhbounds.supnorm as supnorm_module

    K = 1030
    P = HomogeneousPolynomial(2, 3, {(2, 0, 0): 1.0, (1, 1, 0): eps, (1, 0, 1): eps})
    assert K * K > supnorm_module._SLAB_POINTS
    t = TWO_PI * np.arange(K) / K
    lowest = np.abs(1 + eps * np.add.outer(np.exp(1j * t), np.exp(1j * t))).min()
    assert lowest >= (1 + 2 * eps) * math.cos(math.pi / (2 * K)) ** 2
    starts = []
    ascend = supnorm_module._ascend
    monkeypatch.setattr(
        supnorm_module, "_ascend", lambda P, *args: starts.append(len(args[2])) or ascend(P, *args)
    )
    result = sup_norm(P, K)
    assert starts == [supnorm_module._MAX_STARTS]
    assert result.lower_estimate == pytest.approx(1 + 2 * eps, rel=1e-15)
    at_grid_max = [cmath.exp(1j * a) for a in torus_grid_max(P, K)[1]]
    assert result.lower_estimate >= abs(P.evaluate(at_grid_max))
    assert result.converged


# --- one free axis through sup_norm ------------------------------------------


def _kernel_rows(rng):
    """Coefficient rows by free-axis exponent, degrees 2 to 8, zero-padded to
    one width: real and complex, exact zeros inside and at the ends, tiny
    entries next to 1 (at both ends they make the end coefficients of the
    derivative underflow), a single term and the zero row."""
    rows = []
    for m in range(2, 9):
        for imag in (0.0, 1.0):
            g = rng.uniform(-2, 2, m + 1) + imag * 1j * rng.uniform(-2, 2, m + 1)
            rows.append(g)
            inner = g.copy()
            inner[rng.integers(1, m)] = 0.0
            rows.append(inner)
            ends = g.copy()
            ends[[0, -1]] = 0.0
            rows.append(ends)
            tiny = g.copy()
            tiny[0] = 1e-300
            rows.append(tiny)
            both = tiny.copy()
            both[-1] = -1e-300
            rows.append(both)
    lone = np.zeros(4, dtype=complex)
    lone[2] = 0.7 - 0.2j
    rows += [lone, np.zeros(3)]
    G = np.zeros((len(rows), 9), dtype=complex)
    for row, g in zip(G, rows):
        row[: len(g)] = g
    return G, [len(g) - 1 for g in rows]


@pytest.mark.parametrize("K", [2, 3, 5, 64])
def test_line_kernel_matches_scalar_reference(K):
    # Each row is a polynomial on two variables, which leaves one free axis
    # (none for the single term and the zero row).  K = 2, 3 and 5 lie at
    # or below most degrees, so exponents alias.
    G, degrees = _kernel_rows(np.random.default_rng(900 + K))
    samples = 1 << 14
    dense_phases = np.exp(1j * np.outer(TWO_PI * np.arange(samples) / samples, np.arange(9)))
    for g, m in zip(G, degrees):
        P = HomogeneousPolynomial(m, 2, {(m - a, a): complex(g[a]) for a in range(m + 1)})
        result = sup_norm(P, K)
        grid = [abs(P.evaluate([1.0, cmath.exp(1j * TWO_PI * k / K)])) for k in range(K)]
        k = int(np.argmax(grid))
        grid_value, _ = torus_grid_max(P, K)
        assert grid_value == pytest.approx(grid[k], rel=1e-13, abs=1e-300)
        assert result.upper_bracket == upper_bracket_from_parts(P, K, grid_value)
        # Entries of 1e-300 change |q| by at most 1e-300; next to them the
        # roots of the scalar path lose accuracy (or overflow), so its
        # polynomial leaves them out.
        big = {(m - a, a): complex(g[a]) for a in range(m + 1) if abs(g[a]) > 1e-200}
        reference, _ = scalar_line_max(HomogeneousPolynomial(m, 2, big), (0.0, TWO_PI * k / K), 1)
        assert result.lower_estimate == pytest.approx(reference, rel=1e-13, abs=1e-300)
        dense = float(np.abs(dense_phases @ g).max())
        assert result.lower_estimate >= dense - 1e-12
        # The value is attained: it is |P| at the reported angles, as
        # P.evaluate computes it.
        z = [cmath.exp(1j * t) for t in result.arg_angles]
        assert result.lower_estimate == abs(P.evaluate(z))


def test_long_lines_are_answered():
    # The witness lifted to two variables at degree 5000: its line has
    # three terms and span 2, and a polish step costs one term per
    # exponent present, so its sup norm is the closed form's.
    # x^5000 - y^5000 has span 5000 on its free axis, over the grid: the
    # polish starts from a grid of 32768 points and reaches the maximum 2
    # of |1 - e^{5000 i t}|.
    m, (a, b, c) = 5000, (1.0, -1.0, 2.0**1.5)
    P = HomogeneousPolynomial(m, 2, {(2, m - 2): a, (0, m): b, (1, m - 1): c})
    assert sup_norm(P).lower_estimate == pytest.approx(quadratic_sup_norm(a, b, c), rel=1e-12)
    P = HomogeneousPolynomial(m, 2, {(m, 0): 1.0, (0, m): -1.0})
    result = sup_norm(P)
    assert result.lower_estimate == 2.0
    assert result.converged


def test_polish_keeps_the_start_unless_strictly_higher(monkeypatch):
    # P = z1 + z2 leaves the line q(t) = 1 + e^{it} on the free axis, so
    # |q| = 2|cos(t/2)|.  With no iteration allowed, each start ends where
    # it began: the first start's end wins unless another's is higher by
    # more than the slack, and the polish moves from theta = (0, 0.5) only
    # if |P| at that end is strictly higher.
    import bhbounds.supnorm as supnorm_module

    P = HomogeneousPolynomial(1, 2, {(1, 0): 1.0, (0, 1): 1.0})
    monkeypatch.setattr(supnorm_module, "_MAX_ITERATIONS", 0)
    for starts, slack, angle in (
        ([0.5, 0.0], 0.0, 0.0),
        ([0.5, 0.0], 0.1, 0.5),
        ([1.0, 0.0], 0.1, 0.0),
        ([1.0], 0.0, 0.5),
        ([0.5], 0.0, 0.5),
    ):
        line = supnorm_module._line(P, [0.0, 0.5], 1, 0)
        result = supnorm_module._polish(P, [0.0, 0.5], 1, line, 0, starts, slack)
        assert result.angles == (0.0, angle)
        assert result.value == pytest.approx(2 * math.cos(angle / 2), rel=1e-15)
        assert (result.sweeps, result.converged) == (0, False)


def _polish_cells(monkeypatch, P, K):
    """sup_norm(P, K) and the cells, at grid K, that its polish climbs
    from."""
    import bhbounds.supnorm as supnorm_module

    starts = []
    polish = supnorm_module._polish
    monkeypatch.setattr(
        supnorm_module, "_polish", lambda *args: starts.append(args[5]) or polish(*args)
    )
    result = sup_norm(P, K)
    monkeypatch.undo()
    return result, [round(t * K / TWO_PI) % K for t in starts[0]]


def _every_open_cell(P, K):
    """The open cells of P's line at grid K (span < K), G's first, and the
    polish from every one of them."""
    import bhbounds.supnorm as supnorm_module

    (j,) = supnorm_module._free_axes(P)
    e = supnorm_module._unit_exponent(P)
    line = supnorm_module._line(P, [0.0] * P.num_vars, j, e)
    ratio, error, _ = supnorm_module._sampling(P, e, [max(line) - min(line)], K)
    cells = supnorm_module._line_scan(line, K, ratio, error * 2.0**-e)[2]
    start = list(torus_grid_max(P, K)[1])
    starts = [TWO_PI * k / K for k in cells]
    return cells, supnorm_module._polish(P, start, j, line, e, starts, error)


def test_real_line_skips_the_mirror_of_the_first_cell(monkeypatch):
    # A real witness has |q(-t)| = |q(t)|: the climb from the mirror of G's
    # cell would be G's own reflected, and is not made.  Every other open
    # cell is climbed, and the bracket is that of climbing every cell.
    for m, K in ((3, 64), (5, 16), (5, 64)):
        P = build_witness(m, FamilyParams(1.0, -1.0, optimal_x(m)))
        result, climbed = _polish_cells(monkeypatch, P, K)
        cells, every = _every_open_cell(P, K)
        mirror = (K - cells[0]) % K
        assert mirror in cells and mirror != cells[0]
        assert climbed == [k for k in cells if k != mirror]
        assert (result.lower_estimate, result.arg_angles) == (every.value, every.angles)
        assert result.converged == every.converged
    # Here G's cell, pi, is its own mirror and lies between two mirror
    # peaks whose values differ in the last bit.  Both are climbed to, so
    # the higher one wins, as when every cell is climbed.
    P = build_witness(4, FamilyParams(-0.28991581664485877, 1.5708434376868072, -1.4207100369769479))
    result, climbed = _polish_cells(monkeypatch, P, 64)
    cells, every = _every_open_cell(P, 64)
    assert climbed == cells and cells[0] == 32 and len(cells) > 2
    assert (result.lower_estimate, result.arg_angles) == (every.value, every.angles)


def test_complex_line_climbs_the_mirror_of_the_first_cell(monkeypatch):
    # With a complex cross term |q(-t)| != |q(t)|: the mirror of G's cell
    # is climbed too.
    K = 16
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (1, 1): 2.0 + 0.01j, (0, 2): -1.0})
    _, climbed = _polish_cells(monkeypatch, P, K)
    assert climbed == _every_open_cell(P, K)[0]
    assert (K - climbed[0]) % K in climbed
    t = TWO_PI * climbed[0] / K
    assert abs(P.evaluate([1, cmath.exp(1j * t)])) != abs(P.evaluate([1, cmath.exp(-1j * t)]))


def test_sup_norm_reaches_a_flat_witness_peak():
    # This family draw has a flat peak: f = |q|^2 is nearly quartic there,
    # so Newton's steps shrink slowly.  A start that stops at a step
    # predicting a gain of sqrt(u) f, taken untested, ends 3.6e-12 below the
    # closed form; stopping only at a predicted gain of u f does not.
    a, b, c = -0.326867451150618, 0.5158356324197068, 3.5646080640013675
    exact = quadratic_sup_norm(a, b, c)
    result = sup_norm(build_witness(11, FamilyParams(a, b, c)))
    assert abs(result.lower_estimate - exact) <= 2e-15 * exact


# --- torus_lipschitz_bound ----------------------------------------------------


def test_lipschitz_bound_values():
    assert torus_lipschitz_bound(HomogeneousPolynomial(5, 1, {(5,): 1.0})) == 5.0
    assert torus_lipschitz_bound(quadratic(1.0, -1.0, 0.0)) == 4.0
    assert torus_lipschitz_bound(quadratic(1.0, -1.0, 2.828427)) == pytest.approx(
        9.656854, abs=1e-9
    )


# --- sup_norm ----------------------------------------------------------------


def test_sup_norm_quadratic_witness_bracket():
    P = quadratic(1.0, -1.0, 2.0**1.5)
    result = sup_norm(P)
    assert result.lower_estimate == pytest.approx(3.46410161, abs=1e-8)  # sqrt(12)
    assert result.upper_bracket - result.lower_estimate < 0.5
    assert result.converged
    # attained: |P| at the reported angles equals the lower estimate
    z = [cmath.exp(1j * t) for t in result.arg_angles]
    assert abs(P.evaluate(z)) == pytest.approx(result.lower_estimate, abs=1e-10)


def test_sup_norm_lifted_witness():
    P = HomogeneousPolynomial(
        4,
        4,
        {(2, 0, 1, 1): 1.0, (0, 2, 1, 1): -1.0, (1, 1, 1, 1): 2.0},
    )
    result = sup_norm(P)
    assert result.lower_estimate == pytest.approx(math.sqrt(8.0), abs=1e-6)


def test_sup_norm_scaled_monomial():
    P = HomogeneousPolynomial(3, 1, {(3,): 0.5})
    result = sup_norm(P)
    assert result.lower_estimate == 0.5
    assert result.upper_bracket >= 0.5


def test_sup_norm_bracketing_property():
    rng = np.random.default_rng(314)
    for i in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        P = random_polynomial(rng, m, n)
        result = sup_norm(P)
        assert result.lower_estimate <= result.upper_bracket
        if n == 2 and i % 8 == 0:
            # Fine-grid brute force: the grid value cannot exceed the
            # bracket top, and can undershoot the attained lower estimate
            # by at most its own discretization slack.
            brute = brute_force_torus_max(P, 1024)
            assert brute <= result.upper_bracket + 1e-9
            assert result.lower_estimate <= brute + lipschitz_slack(P, 1024) + 1e-9


def test_sup_norm_scaling():
    rng = np.random.default_rng(99)
    for _ in range(10):
        P = random_polynomial(rng, int(rng.integers(2, 5)), 2)
        lam = rng.uniform(0.1, 3.0)
        base = sup_norm(P).lower_estimate
        scaled = sup_norm(P.scaled(lam)).lower_estimate
        assert scaled == pytest.approx(lam * base, abs=1e-10 * (1 + lam * base))


def test_sup_norm_oracle_equivalence():
    rng = np.random.default_rng(271828)
    for _ in range(50):
        a, b, c = random_valid_quadratic(rng)
        numeric = sup_norm(quadratic(a, b, c)).lower_estimate
        assert numeric == pytest.approx(quadratic_sup_norm(a, b, c), abs=1e-6)


def test_sup_norm_diagonal_rotation_invariance():
    rng = np.random.default_rng(55)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        P = random_polynomial(rng, m, n)
        phases = rng.uniform(0, TWO_PI, n)
        rotated = HomogeneousPolynomial(
            m,
            n,
            {
                alpha: coeff
                * cmath.exp(1j * sum(a * p for a, p in zip(alpha, phases)))
                for alpha, coeff in P.terms.items()
            },
        )
        assert sup_norm(rotated).lower_estimate == pytest.approx(
            sup_norm(P).lower_estimate, abs=1e-8
        )


def test_sup_norm_interior_points_stay_inside_bracket():
    # the sup over the polydisc is attained on the torus: random interior
    # points must never beat the torus bracket
    rng = np.random.default_rng(404)
    for _ in range(10):
        P = random_polynomial(rng, int(rng.integers(2, 5)), 2)
        result = sup_norm(P)
        for _ in range(50):
            radii = rng.uniform(0, 1, 2)
            angles = rng.uniform(0, TWO_PI, 2)
            z = radii * np.exp(1j * angles)
            assert abs(P.evaluate(z)) <= result.upper_bracket + 1e-9


def test_sup_norm_mid_cell_maximum_is_bracketed_tightly():
    # |z1^m + e^{-i pi/K} z1^(m-1) z2| = 2|cos((t - pi/K)/2)| peaks at 2,
    # halfway between two grid points, where the sampling bound is exact;
    # only the rounding bound keeps the bracket from closing below the
    # attained value.
    for m in (2, 3, 5, 8):
        for K in range(2, 257):
            shift = cmath.exp(-1j * math.pi / K)
            P = HomogeneousPolynomial(m, 2, {(m, 0): 1.0, (m - 1, 1): shift})
            result = sup_norm(P, K)
            gap = result.upper_bracket - result.lower_estimate
            assert gap <= 1e-12 * result.lower_estimate, (m, K)


def test_sup_norm_upper_is_never_above_the_lipschitz_bound():
    # The triangle bound ||c||_1 + E, or the sampling bound where smaller,
    # is never above G + L pi/K, also where one term dominates, so that G
    # is close to ||c||_1 and the grid error is small.
    rng = np.random.default_rng(2718)
    dominant = HomogeneousPolynomial(
        4, 3, {(4, 0, 0): 100.0, (2, 1, 1): 1 + 1j, (0, 2, 2): -0.5, (1, 3, 0): 0.25j}
    )
    for K in (*range(2, 10), 16, 64):
        polys = [random_polynomial(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5)))
                 for _ in range(12)]
        for P in [*polys, dominant]:
            lipschitz = torus_grid_max(P, K)[0] + torus_lipschitz_bound(P) * math.pi / K
            assert sup_norm(P, K).upper_bracket <= lipschitz, (dict(P.terms), K)


def test_sup_norm_upper_holds_where_the_triangle_bound_is_reached():
    # Positive coefficients put every term in phase at angle 0, where |P|
    # is ||c||_1.  P.evaluate adds 0.1 + 0.2 first and rounds above the
    # fsum of the coefficients, so the upper end needs its E there: without
    # it the bracket would close below the attained value.  With
    # z1^2 + z1 z2 + z2^2 and the monomial both sums are exact.
    forms = [
        (2, 2, {(2, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0}),
        (2, 2, {(2, 0): 0.3, (1, 1): 0.2, (0, 2): 0.1}),
        (3, 3, {(3, 0, 0): 0.3, (1, 1, 1): 0.2, (0, 1, 2): 0.1, (1, 2, 0): 0.3}),
        (3, 2, {(1, 2): 0.7}),
    ]
    for m, n, terms in forms:
        for scale in (2.0**-600, 1.0, 2.0**600):
            P = HomogeneousPolynomial(m, n, {a: c * scale for a, c in terms.items()})
            l1 = coefficient_l1(P)
            for K in (*range(2, 10), 16, 64):
                result = sup_norm(P, K)
                assert result.upper_bracket >= l1, (m, n, scale, K)
                assert result.lower_estimate <= result.upper_bracket
                assert result.lower_estimate == pytest.approx(l1, rel=1e-15)


def test_sup_norm_overflow_raises():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1e308, (0, 2): -1e308, (1, 1): 1e308})
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        sup_norm(P)


def test_sup_norm_zero_polynomial():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 0.0})
    result = sup_norm(P)
    assert result.lower_estimate == 0.0
    assert result.upper_bracket == 0.0
    # Without a free axis no grid is built, however large.
    big = MAX_GRID_POINTS + 1
    assert sup_norm(P, big) == SupNormResult(0.0, 0.0, (0.0, 0.0), big, True)


# --- quadratic closed form -----------------------------------------------------


def test_quadratic_sup_norm_values():
    assert quadratic_sup_norm(1.0, -1.0, 0.0) == 2.0
    x = 2.0**1.5
    assert quadratic_sup_norm(1.0, -1.0, x) == pytest.approx(
        math.sqrt(12.0), rel=1e-14
    )
    assert quadratic_sup_norm(1.0, -1.0, 1.7) == pytest.approx(
        math.sqrt(4.0 + 1.7**2), rel=1e-14
    )


def test_quadratic_sup_norm_stays_finite_where_c_is_free():
    # With a + b = 0 the domain leaves c free, and c/a once overflowed to
    # inf.  hypot(s, c r) forms neither ab nor c^2.
    assert quadratic_sup_norm(1e-300, -1e-300, 1e10) == pytest.approx(1e10, rel=1e-15)
    assert quadratic_sup_norm(1e-150, -1e-150, 1e200) == pytest.approx(1e200, rel=1e-15)
    assert quadratic_sup_norm(1e300, -1e300, 1e300) == pytest.approx(
        math.sqrt(5.0) * 1e300, rel=1e-15
    )
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = random_valid_quadratic(rng)
        expected = (abs(a) + abs(b)) * math.sqrt(1.0 + c * c / (4.0 * abs(a * b)))
        assert quadratic_sup_norm(a, b, c) == pytest.approx(expected, rel=4e-16)


def test_subnormal_lines_keep_their_angles(tmp_path, capsys):
    # The line coefficients are divided by 2^e before their peak divides
    # them; a subnormal peak overflowed that division (two RuntimeWarnings,
    # which tier-1 turns into errors).  Scaled by 2^1063 to unit size, the
    # same polynomial, exactly, has the same angles.
    from bhbounds import cli

    terms = {(2, 0): 1e-320, (1, 1): 1e-320}
    tiny = HomogeneousPolynomial(2, 2, terms)
    unit = HomogeneousPolynomial(2, 2, {a: math.ldexp(c, 1063) for a, c in terms.items()})
    assert max(abs(c) for c in unit.terms.values()) == pytest.approx(1.0, rel=0.5)
    for K in (7, 64):
        assert sup_norm(tiny, K).arg_angles == sup_norm(unit, K).arg_angles
    doc = {"m": 2, "n": 2, "terms": [
        {"alpha": list(a), "re": c, "im": 0.0} for a, c in terms.items()
    ]}
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["ratio", "--file", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["supnorm_lower"] > 0


def test_quadratic_sup_norm_domain_gate():
    with pytest.raises(FormulaDomainError):
        quadratic_sup_norm(1.0, 1.0, 1.0)  # ab > 0
    with pytest.raises(FormulaDomainError):
        quadratic_sup_norm(2.0, -0.1, 4.0)  # |c(a+b)| > 4|ab|
    # boundary |c(a+b)| = 4|ab| is inside the domain: a+b = 1, 4|ab| = 8
    quadratic_sup_norm(2.0, -1.0, 8.0)


def test_sup_norm_grid_validation():
    # torus_grid_max checks the grid before it returns the zero polynomial's 0.
    for P in (quadratic(1.0, -1.0, 2.0), HomogeneousPolynomial(2, 2, {(2, 0): 0.0})):
        with pytest.raises(ValueError, match="grid must be >= 2"):
            sup_norm(P, 1)
