import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bhbounds import (
    FamilyParams,
    HomogeneousPolynomial,
    PolynomialFormatError,
    bh_exponent,
    build_witness,
    coefficient_lp_norm,
    load_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    save_polynomial,
    sup_norm,
)
from oracles import brute_lp_norm, random_polynomial

SQRT12 = 3.4641016151377544


def test_construction_canonicalizes():
    P = HomogeneousPolynomial(2, 2, {(0, 2): -1.0, (2, 0): 1.0, (1, 1): 0.0})
    assert list(P.terms) == [(0, 2), (2, 0)]  # sorted, zero term dropped
    assert P.terms[(2, 0)] == 1.0 + 0j


def test_construction_rejects_bad_indices():
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(1, 0): 1.0})  # weight != degree
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(2, 0, 0): 1.0})  # wrong length
    with pytest.raises(ValueError):
        HomogeneousPolynomial(2, 2, {(3, -1): 1.0})  # negative exponent
    with pytest.raises(ValueError):
        HomogeneousPolynomial(0, 2, {})  # degree must be positive
    # Non-integer exponents are refused, not truncated: int() reads
    # (1.2, -0.2) as (1, 0), the key of the other term, and (1.5, 0.5) as
    # (1, 0), of weight 1.
    with pytest.raises(ValueError, match="non-integer"):
        HomogeneousPolynomial(1, 2, {(1.2, -0.2): 5.0, (1, 0): 7.0})
    with pytest.raises(ValueError, match="non-integer"):
        HomogeneousPolynomial(2, 2, {(1.5, 0.5): 5.0, (1, 1): 7.0})
    # int() raises OverflowError for an infinity and its own ValueError for
    # a NaN; both are refused as non-integer exponents.
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-integer"):
            HomogeneousPolynomial(1, 2, {(bad, 0.0): 1.0})
    # Integral floats are exponents; the key is stored as ints.
    assert HomogeneousPolynomial(2, 2, {(1.0, 1.0): 2.0}).terms == {(1, 1): 2.0}


def test_construction_rejects_non_finite_coefficients():
    for bad in (math.nan, math.inf, -math.inf, complex(1.0, math.nan)):
        with pytest.raises(ValueError, match="not finite"):
            HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (1, 1): bad})
    doc = {"m": 2, "n": 2, "terms": [{"alpha": [2, 0], "re": math.nan, "im": 0.0}]}
    with pytest.raises(ValueError, match=r"\[2, 0\]"):
        polynomial_from_dict(doc)


def test_evaluate_difference_of_squares():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    assert P.evaluate([1.0, 1j]) == pytest.approx(2.0 + 0j, abs=1e-15)


def test_evaluate_single_monomial():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0})
    assert P.evaluate([0.5, 123.0]) == pytest.approx(0.25, abs=1e-15)
    assert P.evaluate([0.5, -9j]) == pytest.approx(0.25, abs=1e-15)


def test_evaluate_at_brute_force_maximizer():
    # modulus at the grid maximizer matches the closed form sqrt(4 + c^2)
    from oracles import brute_force_torus_argmax

    c = 2.828427
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): -1.0, (1, 1): c})
    _, angles = brute_force_torus_argmax(P, 64)
    z = [cmath.exp(1j * t) for t in angles]
    value = abs(P.evaluate(z))
    assert value == pytest.approx(math.sqrt(4.0 + c * c), abs=1e-9)
    assert value == pytest.approx(SQRT12, abs=1e-5)


def test_evaluate_dimension_mismatch():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0})
    with pytest.raises(ValueError):
        P.evaluate([1.0])


def _evaluate_every_coordinate(P, z):
    """P.evaluate as it was before it skipped coordinates equal to 1."""
    total = 0j
    for alpha, coeff in P.terms.items():
        term = coeff
        for zj, aj in zip(z, alpha):
            if aj:
                term *= zj**aj
        total += term
    return total


def test_evaluate_skipping_ones_keeps_the_modulus():
    # sup_norm evaluates witnesses at points whose pinned coordinates are
    # exactly 1; skipping them may flip only the sign of a zero part.
    rng = np.random.default_rng(7)
    for m in range(2, 17):
        a, b = rng.uniform(0.25, 2.0), -rng.uniform(0.25, 2.0)
        c = rng.uniform(-1.0, 1.0) * min(4.0, 4.0 * abs(a * b) / abs(a + b))
        P = build_witness(m, FamilyParams(a, b, c))
        angles = [sup_norm(P).arg_angles[1], 0.0, math.pi, *rng.uniform(0, 2 * math.pi, 20)]
        for t in angles:
            z = [1 + 0j, cmath.exp(1j * t)] + [1 + 0j] * (m - 2)
            value, reference = P.evaluate(z), _evaluate_every_coordinate(P, z)
            assert value == reference
            assert abs(value) == abs(reference)


def test_bh_exponent_values():
    assert bh_exponent(1) == 1.0
    assert bh_exponent(2) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert bh_exponent(3) == 1.5  # reduced rational, exact
    # Integer true division rounds correctly: the float nearest 2m/(m+1).
    assert all(bh_exponent(m) == float(Fraction(2 * m, m + 1)) for m in range(1, 20001))
    with pytest.raises(ValueError):
        bh_exponent(0)


def test_coefficient_lp_norm_witness_value():
    # a=1, b=-1, c=2^{3/2} at p=4/3: (2 + 4)^{3/4} = 6^{3/4}
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (0, 2): -1.0, (1, 1): 2.0**1.5})
    assert coefficient_lp_norm(P, 4.0 / 3.0) == pytest.approx(6.0**0.75, rel=1e-14)


def test_coefficient_lp_norm_single_unit_coefficient():
    for m, p in [(1, 1.0), (3, 1.5), (5, 7.3)]:
        P = HomogeneousPolynomial(m, 1, {(m,): 1.0})
        assert coefficient_lp_norm(P, p) == 1.0


def test_coefficient_lp_norm_three_unit_terms():
    # z3*(z1^2 - z2^2 + z1 z2) at p = 3/2: 3^{2/3}, checked against a
    # brute-force power sum
    P = HomogeneousPolynomial(
        3, 3, {(2, 0, 1): 1.0, (0, 2, 1): -1.0, (1, 1, 1): 1.0}
    )
    assert coefficient_lp_norm(P, 1.5) == pytest.approx(3.0 ** (2.0 / 3.0), rel=1e-14)
    assert coefficient_lp_norm(P, 1.5) == pytest.approx(brute_lp_norm(P, 1.5), rel=1e-14)


def test_coefficient_lp_norm_rejects_p_below_one():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0})
    with pytest.raises(ValueError):
        coefficient_lp_norm(P, 0.99)


def test_homogeneity_property():
    # |P(lambda z) - lambda^m P(z)| small for random P, z, lambda
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        P = random_polynomial(rng, m, n)
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) > 2:
            lam *= 2 / abs(lam)
        direct = P.evaluate(lam * z)
        scaled = lam**m * P.evaluate(z)
        assert abs(direct - scaled) <= 1e-10 * (1 + abs(P.evaluate(z)))


def test_rotation_invariance_of_coefficient_norms():
    # z_j -> e^{i phi_j} z_j multiplies each coefficient by a unimodular
    # factor; all l_p norms must be unchanged
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        P = random_polynomial(rng, m, n)
        phases = rng.uniform(0, 2 * math.pi, n)
        rotated = HomogeneousPolynomial(
            m,
            n,
            {
                alpha: c * cmath.exp(1j * sum(a * p for a, p in zip(alpha, phases)))
                for alpha, c in P.terms.items()
            },
        )
        for p in (1.0, 4.0 / 3.0, 2.0):
            assert coefficient_lp_norm(rotated, p) == pytest.approx(
                coefficient_lp_norm(P, p), abs=1e-12, rel=1e-12
            )


def test_permutation_invariance_exact():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 4))
        P = random_polynomial(rng, m, n)
        perm = rng.permutation(n)
        permuted = HomogeneousPolynomial(
            m,
            n,
            {tuple(alpha[perm[j]] for j in range(n)): c for alpha, c in P.terms.items()},
        )
        for p in (1.0, 1.5, 3.0):
            assert coefficient_lp_norm(permuted, p) == coefficient_lp_norm(P, p)


def test_p_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        P = random_polynomial(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        ps = sorted(rng.uniform(1.0, 6.0, 2))
        assert coefficient_lp_norm(P, ps[0]) >= coefficient_lp_norm(P, ps[1]) - 1e-12


def test_json_round_trip(tmp_path):
    P = HomogeneousPolynomial(
        3, 3, {(2, 0, 1): 1.25, (0, 2, 1): -1.0 + 0.5j, (1, 1, 1): 2.0**1.5}
    )
    path = tmp_path / "poly.json"
    save_polynomial(P, str(path))
    assert load_polynomial(str(path)) == P


def test_json_duplicate_alpha_rejected():
    doc = {
        "m": 2,
        "n": 2,
        "terms": [
            {"alpha": [2, 0], "re": 1.0, "im": 0.0},
            {"alpha": [2, 0], "re": 0.5, "im": 0.0},
        ],
    }
    with pytest.raises(PolynomialFormatError, match="duplicate"):
        polynomial_from_dict(doc)


def test_json_invalid_weight_names_term():
    doc = {"m": 3, "n": 2, "terms": [{"alpha": [2, 0], "re": 1.0, "im": 0.0}]}
    with pytest.raises(PolynomialFormatError, match=r"\[2, 0\]"):
        polynomial_from_dict(doc)


def test_json_dict_shape():
    P = HomogeneousPolynomial(2, 2, {(2, 0): 1.0, (1, 1): -0.5})
    doc = polynomial_to_dict(P)
    assert doc["m"] == 2 and doc["n"] == 2
    assert doc["terms"] == [
        {"alpha": [1, 1], "re": -0.5, "im": 0.0},
        {"alpha": [2, 0], "re": 1.0, "im": 0.0},
    ]
    # document is valid JSON and reparses to the same polynomial
    assert polynomial_from_dict(json.loads(json.dumps(doc))) == P
