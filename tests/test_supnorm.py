import cmath
import math

import numpy as np
import pytest

from bhbounds import (
    FormulaDomainError,
    GridTooLargeError,
    HomogeneousPolynomial,
    quadratic_sup_norm,
    refine_local,
    sup_norm,
    torus_grid_max,
    torus_lipschitz_bound,
)
from oracles import (
    brute_force_torus_max,
    full_grid_max,
    lipschitz_slack,
    random_polynomial,
    random_valid_quadratic,
    scalar_line_max,
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
            single = torus_grid_max(P, 16)
            with monkeypatch.context() as patch:
                patch.setattr(supnorm_module, "_SLAB_POINTS", 7)
                assert torus_grid_max(P, 16) == single


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
    assert result.sweeps == 1
    assert result.converged


def test_refine_reaches_closed_form_from_k32_start():
    c = 2.828427
    P = quadratic(1.0, -1.0, c)
    _, start = torus_grid_max(P, 32)
    result = refine_local(P, start)
    assert result.value == pytest.approx(math.sqrt(4.0 + c * c), abs=1e-8)


def test_refine_single_line_matches_dense_sampling():
    # Two variables leave one free axis after the diagonal pin, so refine
    # maximises a single line exactly, in one sweep, from any start.  So do
    # three when one variable has the same exponent in every term; its
    # start angle stays as given and enters every term of the line.
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
        result = refine_local(P, start)
        assert result.sweeps == 1
        assert result.converged
        line = 0
        for a, c in P.terms.items():
            rest = sum(a[l] * start[l] for l in range(P.num_vars) if l != j)
            line = line + c * np.exp(1j * (rest + a[j] * t))
        dense = float(np.abs(line).max())
        assert dense <= result.value + 1e-12
        assert result.value <= dense + lipschitz_slack(P, samples)
        z = [cmath.exp(1j * a) for a in result.angles]
        assert abs(P.evaluate(z)) == result.value


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
    # Two or more free axes: Newton steps, then a line sweep that confirms
    # no coordinate line improves the value.  Coordinate ascent alone took
    # up to 62 sweeps from such starts.
    rng = np.random.default_rng(67)
    samples = 1 << 14
    t = TWO_PI * np.arange(samples) / samples
    cases = [(random_polynomial(rng, 3 + i % 3, 3), 64) for i in range(60)]
    cases += [(random_polynomial(rng, m, 4), 16) for m in (2, 3, 3, 4)]
    for P, K in cases:
        axes = free_axes(P)
        assert len(axes) >= 2
        start_value, start = torus_grid_max(P, K)
        result = refine_local(P, start)
        assert result.value >= start_value
        z = [cmath.exp(1j * a) for a in result.angles]
        assert abs(P.evaluate(z)) == result.value
        for j in range(P.num_vars):
            if j not in axes:
                assert result.angles[j] == start[j]
        assert result.converged
        assert result.sweeps <= 10
        for j in axes:
            line = 0
            for a, c in P.terms.items():
                rest = sum(a[l] * result.angles[l] for l in range(P.num_vars) if l != j)
                line = line + c * np.exp(1j * (rest + a[j] * t))
            assert float(np.abs(line).max()) <= result.value * (1 + 1e-9)


def test_refine_ignores_tiny_end_terms_on_multi_axis_lines():
    # A 1e-150 term at the top exponent of a free axis makes the end
    # coefficients of that axis's line derivatives tiny.  Kept, they spoil
    # the line roots: one line sweep then lost up to half the value, which
    # Newton steps won back.  Stripped, the sweep and the refinement give
    # what they give for the polynomial without the term.
    import bhbounds.supnorm as supnorm_module

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
            theta = [0.0, *rng.uniform(0, TWO_PI, 2)]
            z = [cmath.exp(1j * t) for t in theta]
            _, swept = supnorm_module._line_sweep(Q, theta, abs(Q.evaluate(z)), [1, 2])
            _, swept_tiny = supnorm_module._line_sweep(tiny, theta, abs(tiny.evaluate(z)), [1, 2])
            assert swept_tiny == pytest.approx(swept, rel=1e-13)


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
    # minimum) and (pi, 0) a saddle (f_aa = 16, f_bb = 6, f_ab = -12).
    # Newton cannot step from either; the line sweep climbs out.
    P = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 2.0, (0, 0, 3): 3.0})
    for start, start_value in (((0.0, 0.0, math.pi / 3), 0.0), ((0.0, math.pi / 3, 0.0), 2.0)):
        z = [cmath.exp(1j * a) for a in start]
        assert abs(P.evaluate(z)) == pytest.approx(start_value, abs=1e-12)
        result = refine_local(P, start)
        assert result.converged
        assert result.value >= start_value + 1.0


def test_refine_escapes_saddle_no_line_improves():
    # At theta = (0, pi/3, pi/3), i.e. (a, b) = (pi, pi), f = 16 is a saddle
    # (f_aa = -8, f_bb = -6, f_ab = 12) whose two coordinate lines are at
    # their maxima, so neither Newton nor the line sweep moves; f rises
    # along the Hessian's positive-curvature direction, and from there the
    # ascent reaches ||P|| = 6.
    P = HomogeneousPolynomial(3, 3, {(3, 0, 0): 1.0, (0, 3, 0): 2.0, (0, 0, 3): 3.0})
    start = (0.0, math.pi / 3, math.pi / 3)
    assert abs(P.evaluate([cmath.exp(1j * a) for a in start])) == pytest.approx(4.0, abs=1e-12)
    result = refine_local(P, start)
    assert result.converged
    assert result.value == pytest.approx(6.0, abs=1e-12)


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
        assert result.upper_bracket == grid_value + torus_lipschitz_bound(P) * math.pi / K
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


def test_line_roots_do_not_depend_on_padding(monkeypatch):
    # Zero entries past a line's last coefficient change neither its roots
    # nor the one it picks.
    import bhbounds.supnorm as supnorm_module

    G, degrees = _kernel_rows(np.random.default_rng(7))
    t0 = np.random.default_rng(8).uniform(0, TWO_PI, len(G)).tolist()
    for g, m, start in zip(G, degrees, t0):
        alone = supnorm_module._line_roots(g[: m + 1], start)
        assert supnorm_module._line_roots(np.concatenate([g, np.zeros(7)]), start) == alone
    # q(t) = 1 + e^{it} peaks at the start t = 0.  With its roots forced to
    # t = 1, the root is returned whatever the padding: the choice between
    # the root and the start is refine_local's (see the next test).
    monkeypatch.setattr(
        np.linalg, "eigvals", lambda c: np.full(c.shape[:-1], cmath.exp(1j), dtype=complex)
    )
    for width in (2, 3, 9):
        row = np.zeros(width, dtype=complex)
        row[:2] = 1.0
        assert supnorm_module._line_roots(row, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_line_kernel_takes_a_root_only_if_it_beats_the_start(monkeypatch):
    # P = z1 + z2 leaves the line q(t) = 1 + e^{it} on the free axis, so
    # |q| = 2|cos(t/2)|.  With every root forced to one point, refine_local
    # keeps the start unless |P| there is strictly higher.
    P = HomogeneousPolynomial(1, 2, {(1, 0): 1.0, (0, 1): 1.0})
    for root, angle in ((-1.0, 0.5), (1.0, 0.0)):
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda c, r=root: np.full(c.shape[:-1], r, dtype=complex)
        )
        result = refine_local(P, (0.0, 0.5))
        assert result.angles == (0.0, angle)
        assert result.value == pytest.approx(2 * math.cos(angle / 2), rel=1e-15)
        assert (result.sweeps, result.converged) == (1, True)


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


def test_sup_norm_overflow_raises():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1e308, (0, 2): -1e308, (1, 1): 1e308})
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        sup_norm(P)


def test_sup_norm_zero_polynomial():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 0.0})
    result = sup_norm(P)
    assert result.lower_estimate == 0.0
    assert result.upper_bracket == 0.0


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


def test_quadratic_sup_norm_domain_gate():
    with pytest.raises(FormulaDomainError):
        quadratic_sup_norm(1.0, 1.0, 1.0)  # ab > 0
    with pytest.raises(FormulaDomainError):
        quadratic_sup_norm(2.0, -0.1, 4.0)  # |c(a+b)| > 4|ab|
    # boundary |c(a+b)| = 4|ab| is inside the domain: a+b = 1, 4|ab| = 8
    quadratic_sup_norm(2.0, -1.0, 8.0)


def test_sup_norm_grid_validation():
    # The grid is checked before the zero polynomial's early return.
    for P in (quadratic(1.0, -1.0, 2.0), HomogeneousPolynomial(2, 2, {(2, 0): 0.0})):
        with pytest.raises(ValueError, match="grid must be >= 2"):
            sup_norm(P, 1)
