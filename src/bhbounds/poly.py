"""Sparse homogeneous polynomials on C^N and their coefficient norms.

A degree-m homogeneous polynomial is stored as a finite map from exponent
vectors (multi-indices) to complex coefficients.  The polynomials of
interest here have O(m) terms, so a sparse map is the right shape; a dense
coefficient tensor would be exponential in m.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

MultiIndex = tuple[int, ...]


class PolynomialFormatError(ValueError):
    """A polynomial document violates the on-disk JSON schema."""


def _canonical_index(alpha: Iterable[int], degree: int, num_vars: int) -> MultiIndex:
    alpha = tuple(alpha)
    key = tuple([int(a) for a in alpha])
    if key != alpha:
        raise ValueError(f"multi-index {list(alpha)} has a non-integer exponent")
    if len(key) != num_vars:
        raise ValueError(f"multi-index {key} has length {len(key)}, expected {num_vars}")
    if min(key) < 0:
        raise ValueError(f"multi-index {key} has a negative exponent")
    if sum(key) != degree:
        raise ValueError(f"multi-index {key} has weight {sum(key)}, expected degree {degree}")
    return key


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Degree-m homogeneous polynomial on C^N in canonical sparse form.

    Canonical form: keys must be integer exponent vectors of the degree
    and length given, coefficients finite (NaN or an infinity raises
    ValueError), terms with coefficient exactly zero are dropped, and the
    map iterates in sorted key order.  Equality is equality of canonical
    forms.  Instances are immutable and safe to share across workers.
    """

    degree: int
    num_vars: int
    terms: Mapping[MultiIndex, complex]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be >= 1, got {self.num_vars}")
        canon: dict[MultiIndex, complex] = {}
        for alpha, coeff in self.terms.items():
            alpha, coeff = _canonical_index(alpha, self.degree, self.num_vars), complex(coeff)
            if not cmath.isfinite(coeff):
                raise ValueError(f"term {list(alpha)}: coefficient {coeff} is not finite")
            if coeff != 0:
                canon[alpha] = coeff
        object.__setattr__(self, "terms", MappingProxyType(dict(sorted(canon.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, z: Iterable[complex]) -> complex:
        """Value sum_alpha c_alpha * z^alpha at a point of C^N.

        Coordinates equal to 1 are skipped, as are zero exponents: on the
        points sup_norm evaluates, every pinned coordinate is 1.  Where
        every term is finite, multiplying by 1 would change only the signs
        of zero real or imaginary parts, so |value| is the same bit for
        bit.
        """
        point = tuple([complex(v) for v in z])
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {self.num_vars} variables"
            )
        moved = [(j, zj) for j, zj in enumerate(point) if zj != 1]
        total = 0j
        for alpha, coeff in self.terms.items():
            term = coeff
            for j, zj in moved:
                if alpha[j]:
                    term *= zj ** alpha[j]
            total += term
        return total

    def scaled(self, factor: complex) -> "HomogeneousPolynomial":
        """The polynomial factor * P (zero factor yields the zero polynomial)."""
        return HomogeneousPolynomial(
            self.degree,
            self.num_vars,
            {alpha: factor * c for alpha, c in self.terms.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HomogeneousPolynomial(degree={self.degree}, num_vars={self.num_vars}, "
            f"terms={dict(self.terms)!r})"
        )


def bh_exponent(m: int) -> float:
    """The coefficient-norm exponent 2m/(m+1) for degree m.

    Integer true division is correctly rounded, so this is the float
    nearest the exact rational, e.g. exactly 1.5 for m=3.
    """
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    return 2 * m / (m + 1)


def coefficient_lp_norm(P: HomogeneousPolynomial, p: float) -> float:
    """The l_p norm (sum |c_alpha|^p)^(1/p) of the coefficient list.

    Requires p >= 1.  Uses exact compensated summation (math.fsum) on
    magnitudes scaled by the largest one, so the result is independent of
    term order and stable for widely spread magnitudes.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 (got {p}); l_p is not a norm below 1")
    if P.is_zero:
        return 0.0
    return _lp_norm([abs(c) for c in P.terms.values()], p)


def _lp_norm(mags: list[float], p: float) -> float:
    """(sum mag^p)^(1/p) of a nonempty list of magnitudes, p >= 1, as
    coefficient_lp_norm computes it."""
    top = max(mags)
    total = math.fsum((mag / top) ** p for mag in mags)
    return top * total ** (1.0 / p)


# --- polynomial text format -------------------------------------------------
#
# {"m": <int>, "n": <int>,
#  "terms": [{"alpha": [<int>...], "re": <float>, "im": <float>}, ...]}
#
# Duplicate alphas are an error on load, never merged.


def polynomial_to_dict(P: HomogeneousPolynomial) -> dict:
    return {
        "m": P.degree,
        "n": P.num_vars,
        "terms": [
            {"alpha": list(alpha), "re": c.real, "im": c.imag}
            for alpha, c in P.terms.items()
        ],
    }


def _is_json_int(value) -> bool:
    """An integer, and not a bool (JSON true and false read as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _coefficient_part(entry: dict, key: str) -> float:
    """entry[key] (0.0 if absent) as a float; it must be a JSON number."""
    value = entry.get(key, 0.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PolynomialFormatError(
            f"term {entry['alpha']!r}: {key!r} must be a number, got {value!r}"
        )
    try:
        return float(value)
    except OverflowError:
        raise PolynomialFormatError(
            f"term {entry['alpha']!r}: {key!r} is too large for a float"
        ) from None


def polynomial_from_dict(doc: dict) -> HomogeneousPolynomial:
    if not isinstance(doc, dict):
        raise PolynomialFormatError("polynomial document must be a JSON object")
    for key in ("m", "n", "terms"):
        if key not in doc:
            raise PolynomialFormatError(f"polynomial document missing field {key!r}")
    m, n = doc["m"], doc["n"]
    if not _is_json_int(m) or not _is_json_int(n) or m < 1 or n < 1:
        raise PolynomialFormatError(f"invalid degree/variable count: m={m!r}, n={n!r}")
    if not isinstance(doc["terms"], list):
        raise PolynomialFormatError(f"terms must be a list, got {doc['terms']!r}")
    terms: dict[MultiIndex, complex] = {}
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or "alpha" not in entry:
            raise PolynomialFormatError(f"malformed term entry: {entry!r}")
        if not isinstance(entry["alpha"], list) or not all(
            _is_json_int(a) for a in entry["alpha"]
        ):
            raise PolynomialFormatError(
                f"term {entry['alpha']!r}: multi-index must be a list of integers"
            )
        try:
            alpha = _canonical_index(entry["alpha"], m, n)
        except ValueError as exc:
            raise PolynomialFormatError(f"term {entry['alpha']!r}: {exc}") from exc
        if alpha in terms:
            raise PolynomialFormatError(f"duplicate multi-index {list(alpha)!r}")
        terms[alpha] = complex(_coefficient_part(entry, "re"), _coefficient_part(entry, "im"))
    return HomogeneousPolynomial(m, n, terms)


def save_polynomial(P: HomogeneousPolynomial, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(P), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_polynomial(path: str) -> HomogeneousPolynomial:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PolynomialFormatError(f"not valid JSON: {exc}") from exc
    return polynomial_from_dict(doc)
