import copy
import importlib
import itertools
import json
import math

import numpy as np
import pytest

from bhbounds import (
    FamilyParams,
    GridTooLargeError,
    HomogeneousPolynomial,
    SearchConfig,
    SupNormResult,
    RatioResult,
    ZeroPolynomialError,
    bh_exponent,
    build_witness,
    certificate_json,
    certify,
    coefficient_lp_norm,
    bh_ratio,
    family_ratio,
    load_certificate,
    lower_bound,
    optimal_x,
    save_certificate,
    search,
    sup_norm,
    upper_bound,
)
from bhbounds.poly import _lp_norm
from bhbounds.search import (
    certificate_from_dict,
    certificate_to_dict,
    degree_multi_indices,
    family_seed_vector,
)
from bhbounds.supnorm import refine_local, torus_grid_max
from oracles import (
    evaluate_grid_max,
    full_grid_max,
    random_polynomial,
    recursive_multi_indices,
    reference_finalists,
    reference_search,
    sampling_parts,
    upper_bracket_from_parts,
)

# The package's search function shadows its search module as an attribute.
search_module = importlib.import_module("bhbounds.search")
supnorm_module = importlib.import_module("bhbounds.supnorm")

FAST_GRID = 32


def small_config(m, n, **overrides):
    base = dict(
        m=m,
        num_vars=n,
        restarts=3,
        rng_seed=7,
        eval_budget=40,
        grid=FAST_GRID,
    )
    base.update(overrides)
    return SearchConfig(**base)


# --- configuration -------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(m=1, num_vars=2)
    with pytest.raises(ValueError):
        SearchConfig(m=2, num_vars=0)
    with pytest.raises(ValueError):
        SearchConfig(m=2, num_vars=2, restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(m=2, num_vars=2, eval_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(m=2, num_vars=2, grid=1)


def test_config_refuses_unlistable_coefficient_space():
    # C(79, 39) ~ 5.4e22 and C(1004, 4) ~ 4.2e10 multi-indices: refused
    # before anything is enumerated.
    for m, n in ((40, 40), (1000, 5)):
        with pytest.raises(ValueError, match="coefficients"):
            SearchConfig(m=m, num_vars=n)
    # Two variables give m + 1 multi-indices; the limit is 2^16.  At the
    # limit the space passes, and the grid check after it refuses K <= m.
    with pytest.raises(ValueError, match="aliases"):
        SearchConfig(m=(1 << 16) - 1, num_vars=2)
    with pytest.raises(ValueError, match="at most 65536"):
        SearchConfig(m=1 << 16, num_vars=2)


def test_degree_multi_indices():
    assert degree_multi_indices(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(degree_multi_indices(4, 3)) == 15  # C(6, 2)
    for alpha in degree_multi_indices(3, 3):
        assert sum(alpha) == 3


def test_degree_multi_indices_match_recursive_definition():
    for m in range(7):
        for n in range(1, 7):
            assert degree_multi_indices(m, n) == recursive_multi_indices(m, n), (m, n)


def test_family_seed_matches_witness():
    for m, n in [(2, 2), (3, 3), (4, 4), (3, 5)]:
        indices = degree_multi_indices(m, n)
        vec = family_seed_vector(m, n, indices)
        terms = {a: complex(v) for a, v in zip(indices, vec) if v != 0.0}
        seeded = HomogeneousPolynomial(m, n, terms)
        # the seed achieves exactly the family ratio
        assert bh_ratio(seeded, FAST_GRID).estimate == pytest.approx(
            family_ratio(m, optimal_x(m)), abs=1e-8
        )


def test_family_seed_follows_the_lift_rule():
    # z1 and z2 carry the quadratic, z3..z_min(n, m) one unit each, and the
    # degree still missing goes on the last variable (z2 when n = 2).
    for m in range(2, 12):
        for n in range(2, 9):
            rest = [1 if j < min(n, m) else 0 for j in range(2, n)]
            terms = {}
            for quadratic, value in (([2, 0], 1.0), ([0, 2], -1.0), ([1, 1], optimal_x(m))):
                alpha = quadratic + rest
                alpha[-1] += m - sum(alpha)
                terms[tuple(alpha)] = value
            indices = degree_multi_indices(m, n)
            vec = family_seed_vector(m, n, indices).tolist()
            assert {alpha: v for alpha, v in zip(indices, vec) if v} == terms, (m, n)


def test_search_refuses_grids_that_alias(monkeypatch):
    # At K <= m the exponents 0..m collide mod K, so the grid score follows
    # aliases; the search refuses before any restart and names m + 1.
    def unexpected(*args):
        raise AssertionError("a restart ran")

    with monkeypatch.context() as patch:
        patch.setattr(search_module, "_run_window", unexpected)
        for m, n, K in ((2, 2, 2), (4, 2, 2), (4, 2, 4), (3, 3, 3)):
            with pytest.raises(ValueError, match=f"at least {m + 1}"):
                search(SearchConfig(m=m, num_vars=n, grid=K, restarts=2))
    search(SearchConfig(m=4, num_vars=2, grid=5, restarts=1, eval_budget=5))
    # One variable has no grid axis: its searches take any grid.
    for K in (2, 3, 64):
        cert = search(SearchConfig(m=4, num_vars=1, grid=K, restarts=2))
        assert (cert.estimate, cert.restart_index) == (1.0, 0)


def test_family_seed_low_variable_counts():
    # n < m still produces a valid degree-m vector
    for m, n in [(3, 2), (4, 2), (5, 3), (2, 1)]:
        indices = degree_multi_indices(m, n)
        vec = family_seed_vector(m, n, indices)
        assert np.count_nonzero(vec) >= 1
        terms = {a: complex(v) for a, v in zip(indices, vec) if v != 0.0}
        HomogeneousPolynomial(m, n, terms)  # construction validates weights


# --- certify ---------------------------------------------------------------------


def test_certify_witness_bracket():
    P = build_witness(2, FamilyParams(1.0, -1.0, 2.0**1.5))
    cert = certify(P)
    assert cert.estimate == pytest.approx(1.1066819197003217, abs=1e-8)
    assert cert.certified_lower <= cert.estimate
    assert 1.1053 <= cert.certified_lower


def test_certify_monomial_brackets_tighten():
    # A lone monomial has no free axis: |P| is |c| everywhere, so the grid
    # value is the sup norm and the bracket has no gap at any grid.
    monomials = (
        HomogeneousPolynomial(3, 1, {(3,): 1.0}),
        HomogeneousPolynomial(4, 3, {(1, 1, 2): -2.5}),
    )
    for P in monomials:
        for K in (2, 8, 32, 128, 512):
            cert = certify(P, K)
            assert cert.supnorm.lower_estimate == cert.supnorm.upper_bracket
            assert cert.certified_lower == cert.estimate == 1.0


def test_certify_rejects_zero():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 0.0})
    with pytest.raises(ZeroPolynomialError):
        certify(P)


def test_certificate_soundness_random():
    rng = np.random.default_rng(31337)
    for _ in range(15):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        P = random_polynomial(rng, m, n)
        cert = certify(P, FAST_GRID)
        assert cert.certified_lower <= cert.estimate
        # the upper bound for D(m) is proven, so no certificate may beat it
        assert cert.certified_lower <= upper_bound(m) + 1e-9


def test_certificate_round_trip_bit_exact(tmp_path):
    P = build_witness(3, FamilyParams(1.0, -1.0, 1.25))
    cert = certify(P)
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    loaded = load_certificate(str(path))
    assert loaded.certified_lower == cert.certified_lower
    assert loaded.estimate == cert.estimate
    assert loaded.coeff_norm == cert.coeff_norm
    assert loaded.polynomial == cert.polynomial
    assert loaded.supnorm == cert.supnorm
    # serialization is canonical: same content, same bytes
    assert certificate_json(loaded) == certificate_json(cert)


# Written by an earlier version: its config nests the grid in sup-norm
# configs beside refine settings, the chunk count of the since-removed
# threaded grid and the pattern-search steps.  None of these changes a
# certified number; the step sizes only chose the search path.
PARENT_FORMAT_CERTIFICATE = {
    "certified_lower": 0.7152053942792971,
    "coeff_norm": 3.833658625477635,
    "config": {
        "search": {
            "eval_budget": 3, "m": 2, "num_vars": 2, "restarts": 1, "rng_seed": 0,
            "step_init": 0.5, "step_min": 1e-06,
            "supnorm": {
                "grid_points_per_axis": 16, "max_refine_iterations": 200,
                "parallel_chunks": 1, "refine_tolerance": 1e-10,
            },
        },
        "supnorm": {
            "grid_points_per_axis": 16, "max_refine_iterations": 200,
            "parallel_chunks": 1, "refine_tolerance": 1e-10,
        },
    },
    "estimate": 1.1066819197003215,
    "polynomial": {
        "m": 2, "n": 2,
        "terms": [
            {"alpha": [0, 2], "im": 0.0, "re": -1.0},
            {"alpha": [1, 1], "im": 0.0, "re": 2.8284271247461903},
            {"alpha": [2, 0], "im": 0.0, "re": 1.0},
        ],
    },
    "restart_index": 0,
    "schema": "bh-cert-1",
    "seed": 0,
    "supnorm": {
        "arg_angles": [0.0, 4.71238898038469], "converged": True, "grid_used": 16,
        "lower_estimate": 3.464101615137755, "upper_bracket": 5.360220513074795,
    },
}


def test_certificate_from_parent_format_loads():
    cert = certificate_from_dict(PARENT_FORMAT_CERTIFICATE)
    search_config = SearchConfig(
        m=2, num_vars=2, restarts=1, rng_seed=0, eval_budget=3, grid=16
    )
    assert cert.search_config == search_config
    assert cert.supnorm.grid_used == 16
    assert cert.estimate == 1.1066819197003215
    # The stored numbers are re-derived from the polynomial and grid alone.
    again = certify(cert.polynomial, cert.supnorm.grid_used)
    assert again.estimate == pytest.approx(cert.estimate, rel=1e-12)
    # The stored value came from the Lipschitz bracket G + L pi/K alone,
    # which the smaller of the triangle and sampling bounds never exceeds.
    assert again.certified_lower >= cert.certified_lower
    # Re-serialised, the config holds only the search settings, grid included.
    doc = json.loads(certificate_json(cert))
    assert doc["config"] == {
        "search": {
            "eval_budget": 3, "grid": 16, "m": 2, "num_vars": 2, "restarts": 1,
            "rng_seed": 0,
        }
    }
    assert {k: v for k, v in doc.items() if k != "config"} == {
        k: v for k, v in PARENT_FORMAT_CERTIFICATE.items() if k != "config"
    }


@pytest.mark.parametrize("key, value", [("step_init", 0.25), ("step_min", 1e-8)])
def test_certificate_with_other_search_steps_is_refused(key, value):
    doc = copy.deepcopy(PARENT_FORMAT_CERTIFICATE)
    doc["config"]["search"][key] = value
    with pytest.raises(ValueError, match=key):
        certificate_from_dict(doc)


def test_certificate_refuses_what_the_search_refuses():
    # Every refusal of a search is its config's, so a certificate whose
    # config no search would run does not load: a grid over the limit, a
    # phase table over it, a grid that aliases, and a degree whose family
    # seed weight is not a finite float.
    refused = (
        (dict(num_vars=6, grid=64), GridTooLargeError, "64\\^5"),
        (dict(m=20000, grid=20001), GridTooLargeError, "phase table"),
        (dict(m=4, grid=4), ValueError, "aliases"),
        (dict(m=3000, grid=4096), ValueError, "optimal weight"),
    )
    for settings, error, message in refused:
        doc = certificate_to_dict(certificate_from_dict(PARENT_FORMAT_CERTIFICATE))
        doc["config"]["search"].update(settings)
        with pytest.raises(error, match=message):
            certificate_from_dict(doc)
        with pytest.raises(error, match=message):
            search(SearchConfig(**doc["config"]["search"]))


def test_certificate_schema_field():
    P = build_witness(2, FamilyParams(1.0, -1.0, 1.0))
    doc = certificate_to_dict(certify(P))
    assert doc["schema"] == "bh-cert-1"
    assert set(doc) >= {
        "polynomial",
        "coeff_norm",
        "estimate",
        "certified_lower",
        "supnorm",
        "config",
        "seed",
    }
    assert doc["config"] == {"search": None}  # a plain certify ran no search
    with pytest.raises(ValueError, match="schema"):
        certificate_from_dict({**doc, "schema": "bh-cert-999"})


# --- search ---------------------------------------------------------------------


def test_search_floor_from_seeding():
    for m, n in [(2, 2), (3, 3)]:
        cert = search(small_config(m, n))
        assert cert.estimate >= family_ratio(m, optimal_x(m)) - 1e-6
    # m = 4 has a 35-dimensional coefficient space; keep the grid coarse
    cfg = small_config(
        4, 4, restarts=2, eval_budget=15, grid=16
    )
    cert = search(cfg)
    assert cert.estimate >= family_ratio(4, optimal_x(4)) - 1e-6


def test_search_single_variable_space():
    cert = search(small_config(2, 1, restarts=2, eval_budget=10))
    assert cert.estimate == 1.0


def test_search_seeded_run_beats_known_bound():
    cert = search(small_config(2, 2, eval_budget=60))
    assert cert.estimate >= 1.1066
    assert cert.certified_lower <= lower_bound(2)


def test_search_deterministic_across_repeats():
    cfg = small_config(2, 2, restarts=4)
    certs = [certificate_json(search(cfg)) for _ in range(3)]
    assert certs[0] == certs[1] == certs[2]


def test_search_monotone_in_restarts():
    best = -math.inf
    for restarts in (1, 2, 4):
        cert = search(small_config(3, 2, restarts=restarts, eval_budget=25))
        assert cert.estimate >= best - 1e-15
        best = max(best, cert.estimate)


def test_search_certificate_echoes_config():
    cfg = small_config(2, 2)
    cert = search(cfg)
    assert cert.search_config == cfg
    assert cert.seed == cfg.rng_seed
    assert cert.restart_index is not None
    doc = certificate_to_dict(cert)
    assert doc["config"]["search"]["rng_seed"] == cfg.rng_seed
    assert json.dumps(doc)  # serializable


# --- brackets on one path ---------------------------------------------------------


def _polynomial(m, n, indices, vec):
    terms = {alpha: complex(v) for alpha, v in zip(indices, vec) if v != 0.0}
    return HomogeneousPolynomial(m, n, terms)


def _one_axis_candidates(rng, m, count):
    """Random n = 2 coefficient vectors with some exact zeros, single-term
    vectors and the zero vector."""
    vectors = []
    for _ in range(count):
        vec = rng.uniform(-2.0, 2.0, m + 1)
        vec[rng.uniform(size=m + 1) < 0.15] = 0.0
        vectors.append(vec)
    lone = np.zeros(m + 1)
    lone[int(rng.integers(m + 1))] = rng.uniform(0.5, 2.0)
    return vectors + [lone, np.zeros(m + 1)]


def _mixed_polynomials(rng):
    """Polynomials of mixed degrees with one free axis, family seeds on three
    to five variables, single terms, the zero polynomial and polynomials
    with two free axes.  A degree-8 pair, one of it without terms of
    free-axis exponent 7 or 8, gives lines of two widths."""
    polys = []
    for m in range(2, 6):
        indices = degree_multi_indices(m, 2)
        polys += [_polynomial(m, 2, indices, v) for v in _one_axis_candidates(rng, m, 10)]
    indices = degree_multi_indices(8, 2)
    wide, narrow = rng.uniform(-2.0, 2.0, (2, 9))
    narrow[:2] = 0.0
    polys += [_polynomial(8, 2, indices, wide), _polynomial(8, 2, indices, narrow)]
    for m, n in ((2, 3), (3, 3), (4, 4), (3, 5)):
        indices = degree_multi_indices(m, n)
        polys.append(_polynomial(m, n, indices, family_seed_vector(m, n, indices)))
    return polys + [random_polynomial(rng, 3, 3), random_polynomial(rng, 4, 3)]


def _bracket_from_parts(P, grid):
    """sup_norm's bracket put together from torus_grid_max, the upper
    bracket built on it (upper_bracket_from_parts) and the lower end: the ascent
    from the open grid cells, _ascend with two or more free axes (cells
    of _grid_scan), else _polish from the open cells of the line's grid
    (_line_scan), where the cells come from a grid of the smallest power
    of two >= 4D points when the span D of the free axis is >= grid."""
    if P.is_zero:
        return SupNormResult(0.0, 0.0, (0.0,) * P.num_vars, grid, True)
    grid_value, angles = torus_grid_max(P, grid)
    upper = upper_bracket_from_parts(P, grid, grid_value)
    axes = supnorm_module._free_axes(P)
    e = supnorm_module._unit_exponent(P)
    ratio, error = sampling_parts(P, grid)
    if len(axes) == 1:
        (j,) = axes
        line = supnorm_module._line(P, [0.0] * P.num_vars, j, e)
        value, cell, cells = supnorm_module._line_scan(line, grid, ratio, error * 2.0**-e)
        start = [0.0] * P.num_vars
        start[j] = 2 * math.pi * cell / grid
        assert (value * 2.0**e, tuple(start)) == (grid_value, angles)
        K = grid
        if not ratio:
            K = 1 << (4 * (max(line) - min(line)) - 1).bit_length()
            fine_ratio, fine_error = sampling_parts(P, K)
            cells = supnorm_module._line_scan(line, K, fine_ratio, fine_error * 2.0**-e)[2]
        starts = [2 * math.pi * k / K for k in cells]
        refined = supnorm_module._polish(P, start, j, line, e, starts, error)
    else:
        value, start, cells = supnorm_module._grid_scan(P, grid, axes, e, ratio, error)
        assert (value, start) == (grid_value, angles)
        if axes:
            starts = 2 * math.pi * np.stack(np.unravel_index(cells, (grid,) * len(axes)), axis=1) / grid
            refined = supnorm_module._ascend(P, list(start), axes, starts, error)
        else:
            refined = refine_local(P, start)
    return SupNormResult(refined.value, upper, refined.angles, grid, refined.converged)


@pytest.mark.parametrize("grid", [2, 5, 16, 64])
def test_batched_brackets_equal_sup_norm(grid):
    # sup_norm is the grid maximum, the triangle and sampling bounds and
    # the ascent of _bracket_from_parts; most of these polynomials have one
    # free axis.
    polys = _mixed_polynomials(np.random.default_rng(100 + grid))
    for P in polys:
        assert sup_norm(P, grid) == _bracket_from_parts(P, grid), dict(P.terms)
    assert sum(len(supnorm_module._free_axes(P)) == 1 for P in polys) >= 40


@pytest.mark.parametrize("grid", [2, 16, 64])
def test_batched_ratios_equal_bh_ratio(grid):
    for P in _mixed_polynomials(np.random.default_rng(200 + grid)):
        if P.is_zero:
            with pytest.raises(ZeroPolynomialError):
                bh_ratio(P, grid)
            continue
        bracket = _bracket_from_parts(P, grid)
        numerator = coefficient_lp_norm(P, bh_exponent(P.degree))
        expected = RatioResult(
            numerator / bracket.lower_estimate, numerator / bracket.upper_bracket
        )
        assert bh_ratio(P, grid) == expected, dict(P.terms)


def test_batched_brackets_return_failures():
    # One polynomial with one free axis and one with two.
    huge_line = HomogeneousPolynomial(2, 2, {(2, 0): 1e308, (1, 1): 1e308, (0, 2): -1e308})
    huge_torus = HomogeneousPolynomial(2, 3, {(2, 0, 0): 1e308, (0, 1, 1): 1e308, (0, 0, 2): -1e308})
    line = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): -1.0})
    torus = HomogeneousPolynomial(2, 3, {(2, 0, 0): 1.0, (0, 1, 1): 2.0, (0, 0, 2): -1.0})
    assert [len(supnorm_module._free_axes(P)) for P in (huge_line, huge_torus)] == [1, 2]
    for P in (huge_line, huge_torus):
        with pytest.raises(ValueError, match="not finite"):
            sup_norm(P, 16)
        with pytest.raises(ValueError, match="not finite"):
            bh_ratio(P, 16)
    for P in (line, torus):
        with pytest.raises(GridTooLargeError):
            sup_norm(P, supnorm_module.MAX_GRID_POINTS + 1)
        with pytest.raises(ValueError, match="grid must be >= 2"):
            sup_norm(P, 1)
    zero = HomogeneousPolynomial(2, 2, {})
    with pytest.raises(ZeroPolynomialError):
        bh_ratio(zero, 1)  # the zero polynomial has no ratio, whatever the grid


def test_search_memory_does_not_grow_with_restarts():
    # Restarts run one after another and only the best finalist is kept, so
    # 16 times the restarts hold about the same memory.
    import tracemalloc

    search(SearchConfig(m=2, num_vars=2, restarts=4, eval_budget=1))  # numpy's caches
    peaks = []
    for restarts in (256, 4096):
        tracemalloc.start()
        try:
            search(SearchConfig(m=2, num_vars=2, restarts=restarts, eval_budget=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


# --- grid scores and finalists -----------------------------------------------------


def _score(m, n, K, vec):
    """The search's grid score of vec, from a fresh v = Phi vec."""
    table = search_module._phase_table(m, K)
    peak = float(np.abs(search_module._grid_values(table, degree_multi_indices(m, n), vec)).max())
    return search_module._peak_score(np.abs(vec).tolist(), peak, bh_exponent(m))


@pytest.mark.parametrize("K", [2, 3, 16, 64])
def test_grid_score_equals_brute_force_grid_ratio(K):
    # Degrees of K and above put exponents that agree mod K on one grid
    # column; some coefficients are exact zeros.
    rng = np.random.default_rng(K)
    for n, degrees in ((1, (2, 5)), (2, (2, 3, 5, 8)), (3, (2, 3, 5))):
        for m in degrees:
            indices = degree_multi_indices(m, n)
            for _ in range(3):
                vec = rng.uniform(-2.0, 2.0, len(indices))
                vec[rng.uniform(size=len(indices)) < 0.2] = 0.0
                vec[int(rng.integers(len(indices)))] = 1.0
                P = _polynomial(m, n, indices, vec)
                grid_max = evaluate_grid_max(P, K)
                if K <= 16:
                    assert grid_max == pytest.approx(full_grid_max(P, K), rel=1e-12)
                expected = coefficient_lp_norm(P, bh_exponent(m)) / grid_max
                assert _score(m, n, K, vec) == pytest.approx(expected, rel=1e-12), (m, n)


def test_grid_score_edge_cases():
    assert _score(2, 2, 16, np.zeros(3)) == -math.inf
    # z1^2 - z2^2 is not zero, but on the K = 2 grid it is 1 - e^{2 pi i k} = 0.
    assert _score(2, 2, 2, np.array([-1.0, 0.0, 1.0])) == -math.inf
    assert _score(2, 2, 3, np.array([-1.0, 0.0, 1.0])) > 0.0
    huge = HomogeneousPolynomial(2, 2, {(2, 0): 1e308, (1, 1): 1e308, (0, 2): -1e308})
    with pytest.raises(ValueError, match="not finite") as raised:
        sup_norm(huge, 16)
    mags = [1e308, 1e308, 1e308]
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError) as scored:
            search_module._peak_score(mags, bad, bh_exponent(2))
        assert str(scored.value) == str(raised.value)


@pytest.mark.parametrize("m, n", [(4, 2), (4, 3)])
def test_column_updates_track_fresh_grid_values(m, n):
    rng = np.random.default_rng(10 * m + n)
    indices = degree_multi_indices(m, n)
    table = search_module._phase_table(m, 16)
    vec = rng.uniform(-2.0, 2.0, len(indices))
    values = search_module._grid_values(table, indices, vec)
    for _ in range(200):
        i = int(rng.integers(len(indices)))
        s = float(rng.choice([-1.0, 1.0])) * 0.5 ** int(rng.integers(1, 21))
        vec[i] += s
        values = values + s * search_module._grid_column(table, indices[i])
    fresh = search_module._grid_values(table, indices, vec)
    assert values.shape == (16 ** (n - 1),)
    assert np.abs(values - fresh).max() <= 1e-12 * np.abs(fresh).max()


# (m, n, grid, restarts): one variable, three, restarts that fill a window
# of 3 or 5 unevenly (the last window runs one restart alone), windows
# wider than the restarts, and windows of one (every restart runs alone).
IDENTITY_CASES = [(3, 2, 16, 7), (4, 2, 8, 33), (2, 3, 16, 5), (5, 1, 64, 9),
                  (2, 2, 1024, 7), (3, 3, 24, 7), (2, 3, 64, 3)]


def _window_width(m, n, grid):
    return max(1, search_module._LOCKSTEP_POINTS // grid ** (n - 1))


def test_identity_cases_cover_uneven_windows():
    widths = [(_window_width(m, n, grid), restarts) for m, n, grid, restarts in IDENTITY_CASES]
    assert any(1 < w < restarts and restarts % w for w, restarts in widths)
    assert any(w >= restarts for w, restarts in widths)
    assert any(w == 1 < restarts for w, restarts in widths)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m, n, grid, restarts", IDENTITY_CASES)
def test_search_equals_the_sequential_search(m, n, grid, restarts, seed):
    # Lockstep windows and skipped finalists change no byte of the
    # certificate of the search that ran each restart alone and scored
    # every finalist.
    cfg = SearchConfig(m=m, num_vars=n, grid=grid, restarts=restarts, rng_seed=seed)
    assert certificate_json(search(cfg)) == certificate_json(reference_search(cfg))


def _score_and_kappa(m, n, K, vec):
    """The grid score of vec from fresh grid values, and its kappa."""
    table = search_module._phase_table(m, K)
    peak = float(np.abs(search_module._grid_values(table, degree_multi_indices(m, n), vec)).max())
    mags = np.abs(vec).tolist()
    return _lp_norm(mags, bh_exponent(m)) / peak, search_module._rounding_slack(m, n, K, mags, peak)


def test_estimate_is_within_the_rounding_slack_of_the_grid_score():
    # bh_ratio's estimate never exceeds the grid score times 1 + kappa, for
    # random vectors with exact zeros and family seeds, whose maxima sit
    # on the grid, at scales 2^-600, 1 and 2^600.
    rng = np.random.default_rng(300)
    above = 0  # estimates above the bare grid score: kappa is needed
    for m, n in itertools.product((2, 3, 4, 5), (1, 2, 3)):
        indices = degree_multi_indices(m, n)
        seed = family_seed_vector(m, n, indices)
        for K in (m + 1, 16, 64):
            vectors = [seed]
            for _ in range(2):
                vec = rng.uniform(-2.0, 2.0, len(indices))
                vec[rng.uniform(size=len(indices)) < 0.25] = 0.0
                vec[int(rng.integers(len(indices)))] = 1.0
                vectors.append(vec)
            for vec in vectors:
                for scale in (2.0**-600, 1.0, 2.0**600):
                    scaled = vec * scale
                    score, kappa = _score_and_kappa(m, n, K, scaled)
                    assert 0.0 < kappa < 1e-9, (m, n, K)
                    estimate = bh_ratio(_polynomial(m, n, indices, scaled), K).estimate
                    assert estimate <= score * (1.0 + kappa), (m, n, K, scale)
                    above += estimate > score
    assert above


def test_rounding_slack_gives_no_bound_without_a_finite_peak():
    for peak in (0.0, math.inf, math.nan, 1e-300):
        assert search_module._rounding_slack(2, 2, 64, [1.0, 0.0, 2.0], peak) == math.inf
    assert search_module._rounding_slack(2, 2, 64, [0.0, 0.0, 0.0], 0.0) == math.inf
    assert search_module._rounding_slack(2, 2, 64, [1e308, 1e308, 1e308], 1e308) == math.inf


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_search_returns_the_best_finalist(monkeypatch, m, n):
    cfg = small_config(m, n, restarts=4, eval_budget=60)
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    finalists = reference_finalists(cfg)  # (restart, vector), in merge order
    polys = [_polynomial(cfg.m, cfg.num_vars, indices, vec) for _, vec in finalists]
    estimates = [bh_ratio(P, cfg.grid).estimate for P in polys]
    scored = []
    real = search_module.bh_ratio

    def recording(P, grid):
        scored.append(P)
        return real(P, grid)

    monkeypatch.setattr(search_module, "bh_ratio", recording)
    cert = search(cfg)
    # With every finalist scored by brute force, the certificate is the
    # earliest one of largest estimate (max keeps the first of equals).
    best = max(range(len(finalists)), key=lambda j: estimates[j])
    assert (cert.estimate, cert.polynomial) == (estimates[best], polys[best])
    assert cert.restart_index == finalists[best][0]
    # Here the winner is a restart's final vector, not a start.
    assert best > 0 and finalists[best - 1][0] == finalists[best][0]
    # The search scored the finalists in merge order and skipped the rest,
    # each of them by its grid score times 1 + kappa against the best
    # estimate before it.
    kept = [j for j, P in enumerate(polys) if P in scored]
    assert scored == [polys[j] for j in kept]
    skipped = [j for j in range(len(polys)) if j not in kept]
    assert 0 in kept and skipped
    for j in skipped:
        score, kappa = _score_and_kappa(cfg.m, cfg.num_vars, cfg.grid, finalists[j][1])
        assert score * (1.0 + kappa) <= max(estimates[:j]), j


def test_search_refuses_a_grid_over_the_limit_before_scoring(monkeypatch):
    def unexpected(*args):
        raise AssertionError("the search scored a candidate")

    for name in ("_phase_table", "_peak_score", "bh_ratio"):
        monkeypatch.setattr(search_module, name, unexpected)
    # Six variables take 64^5 grid points; two take one axis over the limit.
    # The last grid is small, but its (m + 1) x K table of roots of unity
    # is not: 20001^2 entries.  The config itself refuses each of them.
    for settings in (
        dict(m=2, num_vars=6, restarts=3, eval_budget=20),
        dict(m=2, num_vars=2, grid=supnorm_module.MAX_GRID_POINTS + 1),
        dict(m=20000, num_vars=2, grid=20001),
    ):
        with pytest.raises(GridTooLargeError):
            search(SearchConfig(**settings))


def test_one_variable_search_builds_no_phase_table(monkeypatch):
    # One variable has the one grid point z = 1, so no table of roots of
    # unity is read, built or bounded, whatever the degree.
    def unexpected(*args):
        raise AssertionError("the search built a phase table")

    monkeypatch.setattr(search_module, "_phase_table", unexpected)
    cert = search(SearchConfig(m=supnorm_module.MAX_GRID_POINTS, num_vars=1))
    assert (cert.estimate, cert.restart_index) == (1.0, 0)


def test_search_raises_the_first_failing_finalist(monkeypatch):
    calls = []
    real = search_module.bh_ratio

    def failing(P, grid):
        calls.append(P)
        if len(calls) in (3, 5):
            raise ValueError(f"finalist {len(calls)}")
        return real(P, grid)

    monkeypatch.setattr(search_module, "bh_ratio", failing)
    with pytest.raises(ValueError, match="finalist 3"):
        search(small_config(2, 2, restarts=16))
    assert len(calls) == 3


def test_default_search_builds_polynomials_only_for_finalists(monkeypatch):
    # Candidates are scored from their grid values; only the start and
    # final vectors of each restart become polynomials, and the winner's
    # certificate reuses its polynomial.
    built, ratios = [], []
    init = HomogeneousPolynomial.__init__
    real = search_module.bh_ratio

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_ratio(P, grid):
        ratios.append(P)
        return real(P, grid)

    monkeypatch.setattr(HomogeneousPolynomial, "__init__", counting_init)
    monkeypatch.setattr(search_module, "bh_ratio", counting_ratio)
    cfg = SearchConfig(m=2, num_vars=2, restarts=8)
    cert = search(cfg)
    assert len(built) <= 2 * cfg.restarts + 1
    assert len(ratios) <= 2 * cfg.restarts
    assert cert.estimate >= 1.1066


# Four tests keep the names they had when candidates were scored exactly and
# restarts ran in lockstep; what each checks still holds of the grid search.


def test_lockstep_search_raises_what_sequential_raises():
    # With six variables a random start has five free axes: 64^5 grid points
    # exceed the limit.  A search scoring each candidate with bh_ratio, one
    # after another, finishes restart 0 (the family seed, perturbed one term
    # at a time, never has that many) and fails on restart 1's start; the
    # grid search raises the same error, from its config, before any restart.
    m, n, grid = 2, 6, 64
    indices = degree_multi_indices(m, n)
    seed = _polynomial(m, n, indices, family_seed_vector(m, n, indices))
    assert len(supnorm_module._free_axes(seed)) < n - 1
    start = np.random.default_rng(1).uniform(-2.0, 2.0, len(indices))
    with pytest.raises(GridTooLargeError) as expected:
        bh_ratio(_polynomial(m, n, indices, start), grid)
    with pytest.raises(GridTooLargeError) as raised:
        search(SearchConfig(m=m, num_vars=n, restarts=3, eval_budget=20, grid=grid))
    assert str(raised.value) == str(expected.value)


def test_lockstep_raises_the_lowest_failing_restart(monkeypatch):
    # Restarts 0-3 share one window.  An error raised inside restart 2's
    # pattern search, after two moves, leaves search unchanged: the same
    # exception object, raised before any finalist of the window is scored.
    cfg = SearchConfig(m=2, num_vars=2, restarts=4, eval_budget=10, grid=16)
    assert search_module._LOCKSTEP_POINTS // cfg.grid >= cfg.restarts
    real_start, real_search = search_module._start_vector, search_module._pattern_search
    restart_of, moves = {}, {r: 0 for r in range(cfg.restarts)}
    error = ValueError("restart 2")

    def start_vector(cfg, indices, r):
        vec = real_start(cfg, indices, r)
        restart_of[id(vec)] = r
        return vec

    def failing(cfg, indices, table, start, values):
        r = restart_of[id(start)]
        search = real_search(cfg, indices, table, start, values)
        peak = None
        while True:
            if r == 2 and moves[r] == 2:
                raise error
            try:
                move = search.send(peak)
            except StopIteration as stop:
                return stop.value
            moves[r] += 1
            peak = yield move

    scored = []
    real_ratio = search_module.bh_ratio

    def recording(P, grid):
        scored.append(P)
        return real_ratio(P, grid)

    monkeypatch.setattr(search_module, "_start_vector", start_vector)
    monkeypatch.setattr(search_module, "_pattern_search", failing)
    monkeypatch.setattr(search_module, "bh_ratio", recording)
    with pytest.raises(ValueError) as raised:
        search(cfg)
    assert raised.value is error
    assert moves[2] == 2 and all(moves[r] >= 2 for r in (0, 1, 3))
    assert scored == []


def test_binary_candidates_build_no_polynomials(monkeypatch):
    # On two variables the search scores candidates from their grid values;
    # building a HomogeneousPolynomial per candidate is the cost it avoids.
    calls = []
    init = HomogeneousPolynomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    indices = degree_multi_indices(3, 2)
    vectors = list(np.random.default_rng(64).uniform(-2.0, 2.0, (64, 4)))
    monkeypatch.setattr(HomogeneousPolynomial, "__init__", counting_init)
    table = search_module._phase_table(3, FAST_GRID)
    p = bh_exponent(3)
    estimates = [
        search_module._peak_score(
            np.abs(vec).tolist(),
            float(np.abs(search_module._grid_values(table, indices, vec)).max()),
            p,
        )
        for vec in vectors
    ]
    assert calls == []
    assert len(estimates) == 64 and all(math.isfinite(e) and e > 0.0 for e in estimates)


def test_binary_candidates_fail_as_bh_ratio_fails():
    # Grid scoring keeps bh_ratio's errors: a grid above the limit, and grid
    # values that overflow.  Where bh_ratio succeeds the score is finite.
    indices = degree_multi_indices(2, 2)
    vectors = [np.array([1.0, 2.0, -1.0]), np.array([-1e308, 1e308, 1e308])]
    big = supnorm_module.MAX_GRID_POINTS + 1
    with pytest.raises(GridTooLargeError) as raised:
        search(SearchConfig(m=2, num_vars=2, grid=big))
    for vec in vectors:
        with pytest.raises(GridTooLargeError) as expected:
            bh_ratio(_polynomial(2, 2, indices, vec), big)
        assert str(raised.value) == str(expected.value)
    for vec in vectors:
        try:
            bh_ratio(_polynomial(2, 2, indices, vec), 16)
        except ValueError as exc:
            with pytest.raises(type(exc)) as scored:
                _score(2, 2, 16, vec)
            assert str(scored.value) == str(exc)
        else:
            assert math.isfinite(_score(2, 2, 16, vec))
    with pytest.raises(ValueError, match="not finite"):
        _score(2, 2, 16, vectors[1])
