import math

import numpy as np
import pytest

from bhbounds import (
    FamilyParams,
    FormulaDomainError,
    HomogeneousPolynomial,
    ZeroPolynomialError,
    bh_ratio,
    bounds_table,
    bounds_table_csv,
    build_quadratic,
    build_witness,
    family_ratio,
    lower_bound,
    lower_bound_excess,
    multilinear_lower_bound,
    optimal_x,
    quadratic_sup_norm,
    sup_norm,
    upper_bound,
)
from oracles import direct_lower_bound, direct_upper_bound, random_valid_quadratic

# frozen from direct evaluation of the closed forms
LOWER_2 = 1.1066819197003217  # 6^{3/4} / sqrt(12)
LOWER_3 = 1.0378908155562132  # 10^{2/3} / sqrt(20)
LOWER_4 = 1.0148317949067020  # 18^{5/8} / 6
UPPER_3 = 6.1584028713560075  # (16/9) * sqrt(3) * 2


def test_family_params_validation():
    FamilyParams(1.0, -1.0, 0.0)
    FamilyParams(1.0, -1.0, 100.0)  # a + b = 0 leaves c unconstrained
    with pytest.raises(ValueError):
        FamilyParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        FamilyParams(2.0, -0.1, 4.0)


def test_family_domain_is_checked_once():
    # FamilyParams and the closed form refuse the same inputs with the same
    # FormulaDomainError, which is a ValueError.
    for a, b, c in ((1.0, 1.0, 0.0), (0.0, -1.0, 0.0), (2.0, -0.1, 4.0), (-1.0, 3.0, 9.0)):
        with pytest.raises(FormulaDomainError) as from_params:
            FamilyParams(a, b, c)
        with pytest.raises(FormulaDomainError) as from_norm:
            quadratic_sup_norm(a, b, c)
        assert str(from_params.value) == str(from_norm.value)
        assert isinstance(from_norm.value, ValueError)


def test_witness_exponents_are_those_of_build_witness():
    from bhbounds.family import _witness_exponents

    params = FamilyParams(1.5, -0.5, 0.25)
    for m in range(2, 12):
        expected = dict(zip(_witness_exponents(m, m), (1.5 + 0j, -0.5 + 0j, 0.25 + 0j)))
        assert dict(build_witness(m, params).terms) == expected


def test_build_quadratic():
    P = build_quadratic(FamilyParams(1.0, -1.0, 0.0))
    assert dict(P.terms) == {(0, 2): -1.0 + 0j, (2, 0): 1.0 + 0j}
    P = build_quadratic(FamilyParams(1.0, -1.0, 2.828427))
    assert len(P.terms) == 3
    with pytest.raises(ValueError):
        build_quadratic(FamilyParams(1.0, 1.0, 0.0))


def test_build_witness_m2_equals_quadratic():
    params = FamilyParams(1.0, -1.0, 1.0)
    assert build_witness(2, params) == build_quadratic(params)


def test_build_witness_m4_indices():
    P = build_witness(4, FamilyParams(1.0, -1.0, 2.0))
    assert dict(P.terms) == {
        (0, 2, 1, 1): -1.0 + 0j,
        (1, 1, 1, 1): 2.0 + 0j,
        (2, 0, 1, 1): 1.0 + 0j,
    }


def test_build_witness_coefficient_norm_closed_form():
    # l_{3/2} norm for m=3: (2 + x^{3/2})^{2/3}
    from bhbounds import bh_exponent, coefficient_lp_norm

    for x in (0.5, 1.0, 4.0):
        P = build_witness(3, FamilyParams(1.0, -1.0, x))
        assert coefficient_lp_norm(P, bh_exponent(3)) == pytest.approx(
            (2.0 + x**1.5) ** (2.0 / 3.0), rel=1e-13
        )


def test_build_witness_rejects_small_degree():
    with pytest.raises(ValueError):
        build_witness(1, FamilyParams(1.0, -1.0, 0.0))


def test_family_ratio_values():
    assert family_ratio(2, 0.0) == pytest.approx(2.0**0.75 / 2.0, rel=1e-14)
    assert family_ratio(2, 2.0**1.5) == pytest.approx(LOWER_2, rel=1e-14)
    assert family_ratio(3, 4.0) == pytest.approx(LOWER_3, rel=1e-13)
    # even in x
    assert family_ratio(2, -1.3) == family_ratio(2, 1.3)


def test_optimal_x_values():
    assert optimal_x(2) == pytest.approx(2.8284271247461903, rel=1e-15)
    assert optimal_x(3) == 4.0
    assert optimal_x(7) == 16.0
    with pytest.raises(ValueError):
        optimal_x(1)


def test_lower_bound_values():
    assert lower_bound(2) == pytest.approx(LOWER_2, rel=1e-14)
    assert lower_bound(2) >= 1.1066  # the previously known constant
    assert lower_bound(3) == pytest.approx(LOWER_3, rel=1e-14)
    assert lower_bound(4) == pytest.approx(LOWER_4, rel=1e-14)
    with pytest.raises(ValueError):
        lower_bound(1)


def test_lower_bound_matches_direct_formula():
    for m in range(2, 30):
        assert lower_bound(m) == pytest.approx(direct_lower_bound(m), rel=1e-13)


def test_upper_bound_values():
    assert upper_bound(1) == 1.0
    assert upper_bound(2) == pytest.approx(3.0, rel=1e-12)
    assert upper_bound(3) == pytest.approx(UPPER_3, rel=1e-12)
    for m in range(1, 40):
        assert upper_bound(m) == pytest.approx(direct_upper_bound(m), rel=1e-12)


def test_largest_degrees_of_upper_bound_and_optimal_weight():
    # The limits are the last degrees with finite values, and the error names them.
    assert math.isfinite(upper_bound(2035)) and math.isfinite(optimal_x(2046))
    with pytest.raises(ValueError, match="up to m = 2035"):
        upper_bound(2036)
    with pytest.raises(ValueError, match="up to m = 2046"):
        optimal_x(2047)


def test_multilinear_lower_bound_values():
    assert multilinear_lower_bound(1) == 1.0
    assert multilinear_lower_bound(2) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    big = multilinear_lower_bound(10**6)
    assert 1.999 < big < 2.0


def test_lower_bound_equals_peak_family_ratio():
    # the family ratio at the maximizing weight is exactly the bound
    for m in range(2, 41):
        f_star = family_ratio(m, optimal_x(m))
        assert abs(f_star - lower_bound(m)) <= 1e-12 * lower_bound(m)


def test_critical_point():
    h = 1e-5
    for m in range(2, 13):
        x = optimal_x(m)
        derivative = (family_ratio(m, x + h) - family_ratio(m, x - h)) / (2 * h)
        assert abs(derivative) <= 1e-6 * family_ratio(m, x)


def test_maximality_over_wide_range():
    xs = np.logspace(-3, 6, 1000)
    for m in range(2, 13):
        f_star = family_ratio(m, optimal_x(m))
        assert all(f_star >= family_ratio(m, float(x)) for x in xs)


def test_strictly_above_one():
    for m in range(2, 1001):
        value = lower_bound(m)
        assert math.isfinite(value) and value >= 1.0
        assert lower_bound_excess(m) > 0.0
    # the bounds tend to 1 from above
    assert lower_bound(60) - 1.0 < 1e-3


def test_bounds_ordering():
    for m in range(2, 101):
        assert lower_bound(m) < upper_bound(m)


def test_bounds_table():
    rows = bounds_table(2, 2)
    assert len(rows) == 1
    assert rows[0].lower == pytest.approx(LOWER_2, rel=1e-12)
    assert rows[0].upper == pytest.approx(3.0, rel=1e-12)

    rows = bounds_table(2, 5)
    assert [r.m for r in rows] == [2, 3, 4, 5]
    lowers = [r.lower for r in rows]
    assert all(x > y for x, y in zip(lowers, lowers[1:]))  # strictly decreasing here
    for r in rows:
        assert r.optimal_x == 2.0 ** ((r.m + 1) / 2.0)
        assert 1.0 < r.lower < r.upper

    with pytest.raises(ValueError):
        bounds_table(3, 2)
    with pytest.raises(ValueError):
        bounds_table(1, 5)


def test_bounds_table_csv_format():
    text = bounds_table_csv(bounds_table(2, 3))
    lines = text.split("\n")
    assert lines[0] == "m,lower,upper,multilinear_lower,optimal_x"
    assert lines[1].startswith("2,1.10668192,")
    assert text.endswith("\n") and "\r" not in text


def test_bh_ratio_reproduces_closed_form():
    P = build_witness(2, FamilyParams(1.0, -1.0, 2.0**1.5))
    ratio = bh_ratio(P)
    assert ratio.estimate == pytest.approx(LOWER_2, abs=1e-9)
    assert ratio.certified <= ratio.estimate


def test_bh_ratio_monomial_is_one():
    P = HomogeneousPolynomial(3, 1, {(3,): 1.0})
    ratio = bh_ratio(P)
    assert ratio.estimate == 1.0
    assert ratio.certified < 1.0


def test_bh_ratio_m4_pipeline():
    P = build_witness(4, FamilyParams(1.0, -1.0, 2.0**2.5))
    assert bh_ratio(P).estimate == pytest.approx(LOWER_4, abs=1e-6)


def test_bh_ratio_zero_polynomial():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 0.0})
    with pytest.raises(ZeroPolynomialError):
        bh_ratio(P)


def test_bh_ratio_scale_invariance():
    rng = np.random.default_rng(77)
    P = build_witness(3, FamilyParams(1.0, -1.0, 1.5))
    base = bh_ratio(P)
    for _ in range(5):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if lam == 0:
            continue
        scaled = bh_ratio(P.scaled(lam))
        assert scaled.estimate == pytest.approx(base.estimate, abs=1e-9)
        assert scaled.certified == pytest.approx(base.certified, abs=1e-9)


def test_lift_preserves_norm():
    rng = np.random.default_rng(2718)
    for m in (2, 3, 4, 5):
        a, b, c = random_valid_quadratic(rng)
        witness = build_witness(m, FamilyParams(a, b, c))
        lifted = sup_norm(witness).lower_estimate
        assert lifted == pytest.approx(quadratic_sup_norm(a, b, c), abs=1e-6)
