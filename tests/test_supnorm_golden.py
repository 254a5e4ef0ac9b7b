"""sup_norm pinned bit for bit to tests/golden/supnorm_brackets.json.

The file holds about two dozen seeded polynomials and, at grids 7, 16 and
64, the lower estimate, upper bracket, angles and converged flag that
sup_norm returned for each, every float as its repr (JSON writes floats
so).  The inputs cover both refinement paths: real and complex binary
forms, lines whose lowest exponent is above 0, lines and a form whose
spans reach the grid, witnesses of the family at m = 2, 9 and 16, and
forms on three variables.  Last bits depend on the FFT and LAPACK
builds, so the file holds for the numpy build the test header names
(see conftest.py).  A change that means to move one of these numbers
rewrites the file in the same change and says why; any other difference
is a regression.  Rewrite it with

    PYTHONPATH=src python tests/test_supnorm_golden.py
"""

import json
import random
from pathlib import Path

import pytest

from bhbounds import (
    FamilyParams,
    HomogeneousPolynomial,
    SupNormResult,
    build_witness,
    certify,
    optimal_x,
    sup_norm,
)
from bhbounds.poly import polynomial_from_dict, polynomial_to_dict
from bhbounds.supnorm import refine_local, torus_grid_max

GOLDEN = Path(__file__).resolve().parent / "golden" / "supnorm_brackets.json"
GRIDS = (7, 16, 64)


def _form(rng: random.Random, exponents, complex_coefficients: bool) -> HomogeneousPolynomial:
    """A form with the given exponent vectors and coefficients uniform in
    [-2, 2] (and imaginary parts too, if complex_coefficients)."""
    terms = {}
    for alpha in exponents:
        im = rng.uniform(-2.0, 2.0) if complex_coefficients else 0.0
        terms[tuple(alpha)] = complex(rng.uniform(-2.0, 2.0), im)
    return HomogeneousPolynomial(sum(exponents[0]), len(exponents[0]), terms)


def _forms(m: int, n: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(m,)]
    return [(a, *rest) for a in range(m, -1, -1) for rest in _forms(m - a, n - 1)]


def cases() -> list[tuple[str, HomogeneousPolynomial]]:
    rng = random.Random("supnorm-brackets")
    out = []
    for kind in ("real", "complex"):
        for m in (2, 3, 5, 6):
            out.append((f"{kind}_binary_m{m}", _form(rng, _forms(m, 2), kind == "complex")))
    # The free axis is z2; its lowest exponent is 2, or 1 under a pinned z3.
    out.append(("line_above_zero_real", _form(rng, [(4, 2), (3, 3), (1, 5)], False)))
    out.append(("line_above_zero_complex", _form(rng, [(4, 1, 2), (2, 3, 2), (0, 5, 2)], True)))
    # Spans 12 (>= 7) and 70 (>= 64): their starts come from a finer grid.
    out.append(("wide_line_m12", _form(rng, [(12, 0), (9, 3), (5, 7), (0, 12)], False)))
    out.append(("wide_line_m70", _form(rng, [(70, 0), (41, 29), (30, 40), (0, 70)], True)))
    for m in (2, 9, 16):
        out.append((f"witness_m{m}_optimal", build_witness(m, FamilyParams(1.0, -1.0, optimal_x(m)))))
        a, b = rng.uniform(0.25, 2.0), -rng.uniform(0.25, 2.0)
        c = rng.uniform(-1.0, 1.0) * min(4.0, 4.0 * abs(a * b) / abs(a + b))
        out.append((f"witness_m{m}_draw", build_witness(m, FamilyParams(a, b, c))))
    for kind in ("real", "complex"):
        for m in (3, 4):
            out.append((f"{kind}_n3_m{m}", _form(rng, _forms(m, 3), kind == "complex")))
    # Spans 8 >= 7 on two free axes: at grid 7 every cell is open.
    out.append(("wide_n3_m8", _form(rng, [(8, 0, 0), (3, 3, 2), (0, 8, 0), (0, 0, 8)], False)))
    out.append(("monomial", HomogeneousPolynomial(3, 2, {(1, 2): 1.5 - 0.5j})))
    return out


def brackets(P: HomogeneousPolynomial) -> dict:
    out = {}
    for K in GRIDS:
        r = sup_norm(P, K)
        out[str(K)] = {
            "lower": r.lower_estimate,
            "upper": r.upper_bracket,
            "angles": list(r.arg_angles),
            "converged": r.converged,
        }
    return out


def document() -> str:
    doc = [
        {"name": name, "polynomial": polynomial_to_dict(P), "brackets": brackets(P)}
        for name, P in cases()
    ]
    return json.dumps(doc, indent=1) + "\n"


CASES = cases()


@pytest.mark.parametrize("name, P", CASES, ids=[name for name, _ in CASES])
def test_sup_norm_matches_golden_brackets(name, P):
    stored = {case["name"]: case for case in json.loads(GOLDEN.read_text())}[name]
    assert polynomial_from_dict(stored["polynomial"]) == P
    # Serialised, so that every float is compared by its repr.
    assert json.dumps(brackets(P)) == json.dumps(stored["brackets"])


@pytest.mark.parametrize("name, P", CASES, ids=[name for name, _ in CASES])
def test_power_of_two_scaling_moves_no_number(name, P):
    # Every step runs on the coefficients divided by an exact power of two,
    # so scaling P by 2^k scales the bracket, the grid maximum and the
    # refined value by exactly 2^k, moves no angle and keeps both ratios.
    for K in GRIDS:
        r = sup_norm(P, K)
        grid_value, grid_angles = torus_grid_max(P, K)
        refined = refine_local(P, grid_angles)
        cert = certify(P, K)
        for k in (-900, -600, 600, 900):
            Q, s = P.scaled(2.0**k), 2.0**k
            assert sup_norm(Q, K) == SupNormResult(
                r.lower_estimate * s, r.upper_bracket * s, r.arg_angles, K, r.converged
            ), (k, K)
            assert torus_grid_max(Q, K) == (grid_value * s, grid_angles), (k, K)
            assert refine_local(Q, grid_angles) == refined._replace(value=refined.value * s)
            scaled = certify(Q, K)
            assert (scaled.estimate, scaled.certified_lower) == (cert.estimate, cert.certified_lower)


if __name__ == "__main__":
    GOLDEN.write_text(document())
