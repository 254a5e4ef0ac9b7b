"""The quadratic witness family and the closed-form constant bounds.

Everything revolves around one inequality: for an m-homogeneous P on C^N,
the l_{2m/(m+1)} norm of its coefficients is at most D(m) * ||P||, with
D(m) independent of N.  Any concrete polynomial therefore certifies

    D(m) >= (coefficient norm) / (sup norm),

and this module builds the family that makes that ratio large:

    Q(z1, z2)   = a z1^2 + b z2^2 + c z1 z2      (ab < 0, |c(a+b)| <= 4|ab|)
    W_m(z)      = z3 ... zm * Q(z1, z2)          (degree m on N = m variables)

The extra variables are unimodular on the torus, so ||W_m|| = ||Q||, while
the coefficient norm only weakens with the exponent 2m/(m+1).  At a = 1,
b = -1 the achieved ratio as a function of the cross-term weight x is

    family_ratio(m, x) = (2 + |x|^{2m/(m+1)})^{(m+1)/(2m)} / sqrt(4 + x^2),

maximized at x = 2^{(m+1)/2}, which yields the closed-form lower bound

    D(m) >= (2 + 2^m)^{(m+1)/(2m)} / sqrt(4 + 2^{m+1}) > 1.

FamilyParams is the family's one domain check, quadratic_sup_norm its closed
form ||Q||, and _witness_exponents its one lift to any n >= 2 variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .poly import HomogeneousPolynomial, MultiIndex, bh_exponent, coefficient_lp_norm
from .supnorm import DEFAULT_GRID, SupNormResult, sup_norm

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)

# The largest degrees whose upper bound and optimal weight are finite
# floats: upper_bound(2036) overflows math.exp and optimal_x(2047) is 2^1024.
_MAX_UPPER_DEGREE = 2035
_MAX_WEIGHT_DEGREE = 2046


class ZeroPolynomialError(ValueError):
    """The ratio of the zero polynomial is undefined."""


class FormulaDomainError(ValueError):
    """A closed-form norm formula was requested outside its validity domain."""


_VANISHED = "sup-norm estimate vanished on the grid; use a finer grid"


@dataclass(frozen=True)
class FamilyParams:
    """Coefficients (a, b, c) of the base quadratic a z1^2 + b z2^2 + c z1 z2.

    Constrained to the domain where the closed-form sup norm holds:
    ab < 0 and |c(a+b)| <= 4|ab|; FormulaDomainError outside it.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.a * self.b < 0:
            raise FormulaDomainError(f"family requires ab < 0 (got a={self.a}, b={self.b})")
        if abs(self.c * (self.a + self.b)) > 4 * abs(self.a * self.b):
            raise FormulaDomainError(
                f"family requires |c(a+b)| <= 4|ab| "
                f"(got a={self.a}, b={self.b}, c={self.c})"
            )


def quadratic_sup_norm(a: float, b: float, c: float) -> float:
    """Closed-form sup norm (|a|+|b|) sqrt(1 + c^2/(4|ab|)) of the base
    quadratic on the bidisc, for real a, b, c; outside the family's domain
    it raises the FormulaDomainError of FamilyParams."""
    FamilyParams(a, b, c)
    return (abs(a) + abs(b)) * math.sqrt(1.0 + c * c / (4.0 * abs(a * b)))


@dataclass(frozen=True)
class BoundsRow:
    """Per-degree record: certified lower bound, hypercontractive upper
    bound, the multilinear comparison constant, and the maximizing
    cross-term weight."""

    m: int
    lower: float
    upper: float
    multilinear_lower: float
    optimal_x: float


def _witness_exponents(m: int, n: int) -> tuple[MultiIndex, MultiIndex, MultiIndex]:
    """Multi-indices of the a, b and c terms of the family's lift to
    degree m on n >= 2 variables: z1 and z2 carry the quadratic,
    z3..z_min(n, m) one unit each, and any degree still missing goes on
    the last variable (z2 when n = 2)."""
    lift = [0] * n
    k = min(n, m)
    lift[2:k] = [1] * (k - 2)
    lift[-1] += m - k
    return tuple((q, 2 - q + lift[1], *lift[2:]) for q in (2, 0, 1))


def build_quadratic(params: FamilyParams) -> HomogeneousPolynomial:
    """The base quadratic on C^2, build_witness(2, params)."""
    return build_witness(2, params)


def build_witness(m: int, params: FamilyParams) -> HomogeneousPolynomial:
    """Degree-m witness z3...zm * Q(z1, z2) on N = m variables.

    Each quadratic multi-index is extended by exponent 1 on variables
    3..m; for m = 2 this is exactly the base quadratic.
    """
    if m < 2:
        raise ValueError(f"witness family needs m >= 2, got {m}")
    terms = dict(zip(_witness_exponents(m, m), (params.a, params.b, params.c)))
    return HomogeneousPolynomial(m, m, terms)


def family_ratio(m: int, x: float) -> float:
    """Ratio achieved by the a=1, b=-1 witness with cross-term weight x.

    Even in x (only x^2 enters), and evaluated through logs, each sum by
    np.logaddexp, so the power |x|^{2m/(m+1)} cannot overflow for large m
    or x:

        (2 + |x|^{2m/(m+1)})^{(m+1)/(2m)} / sqrt(4 + x^2).
    """
    if m < 2:
        raise ValueError(f"family ratio needs m >= 2, got {m}")
    ax = abs(x)
    log_ax = math.log(ax) if ax > 0 else -math.inf
    log_num = ((m + 1) / (2.0 * m)) * np.logaddexp(_LN2, (2.0 * m / (m + 1)) * log_ax)
    log_den = 0.5 * np.logaddexp(_LN4, 2.0 * log_ax)
    return math.exp(log_num - log_den)


def optimal_x(m: int) -> float:
    """The cross-term weight 2^{(m+1)/2} maximizing family_ratio(m, .);
    a ValueError from m = 2047, where it exceeds the largest float."""
    if m < 2:
        raise ValueError(f"optimal weight needs m >= 2, got {m}")
    if m > _MAX_WEIGHT_DEGREE:
        raise ValueError(
            f"optimal weight is a finite float only up to m = {_MAX_WEIGHT_DEGREE}, got {m}"
        )
    return 2.0 ** ((m + 1) / 2.0)


def lower_bound(m: int) -> float:
    """Certified lower bound for D(m): (2 + 2^m)^{(m+1)/(2m)} / sqrt(4 + 2^{m+1}).

    Factoring 2 + 2^m = 2^m (1 + 2^{1-m}) and 4 + 2^{m+1} = 2 (2 + 2^m)
    collapses the expression to (1 + 2^{1-m})^{1/(2m)}, which is what is
    evaluated here: the direct log-space difference of the two big terms
    cancels catastrophically once m exceeds ~45, while this form is exact,
    always finite and always >= 1.  Note the float result rounds to
    exactly 1.0 for m >~ 48; use lower_bound_excess for the gap above 1.
    """
    if m < 2:
        raise ValueError(f"lower bound needs m >= 2, got {m}")
    return math.exp(math.log1p(2.0 ** (1 - m)) / (2.0 * m))


def lower_bound_excess(m: int) -> float:
    """lower_bound(m) - 1 without rounding to zero: expm1/log1p form.

    Strictly positive for every m representable in double precision
    (through m = 1000 and beyond), which is how the strict inequality
    lower_bound(m) > 1 is checked where float spacing near 1.0 swallows
    the difference.
    """
    if m < 2:
        raise ValueError(f"lower bound needs m >= 2, got {m}")
    return math.expm1(math.log1p(2.0 ** (1 - m)) / (2.0 * m))


def upper_bound(m: int) -> float:
    """Hypercontractive upper bound (1 + 1/m)^{m-1} sqrt(m) (sqrt 2)^{m-1}.

    Evaluated in log space; it exceeds the largest float from m = 2036,
    where a ValueError is raised.
    """
    if m < 1:
        raise ValueError(f"upper bound needs m >= 1, got {m}")
    if m > _MAX_UPPER_DEGREE:
        raise ValueError(
            f"upper bound is a finite float only up to m = {_MAX_UPPER_DEGREE}, got {m}"
        )
    return math.exp(
        (m - 1) * math.log1p(1.0 / m) + 0.5 * math.log(m) + (m - 1) * 0.5 * _LN2
    )


def multilinear_lower_bound(m: int) -> float:
    """Comparison constant for m-linear forms over the reals: 2^{1 - 1/m}."""
    if m < 1:
        raise ValueError(f"multilinear bound needs m >= 1, got {m}")
    return 2.0 ** (1.0 - 1.0 / m)


def bounds_table(m_min: int, m_max: int) -> list[BoundsRow]:
    """One BoundsRow per degree, in ascending order."""
    if m_min < 2 or m_min > m_max:
        raise ValueError(f"need 2 <= m_min <= m_max, got [{m_min}, {m_max}]")
    return [
        BoundsRow(
            m=m,
            lower=lower_bound(m),
            upper=upper_bound(m),
            multilinear_lower=multilinear_lower_bound(m),
            optimal_x=optimal_x(m),
        )
        for m in range(m_min, m_max + 1)
    ]


def bounds_table_csv(rows: list[BoundsRow]) -> str:
    """CSV rendering: header m,lower,upper,multilinear_lower,optimal_x,
    9 significant digits, LF line endings."""
    lines = ["m,lower,upper,multilinear_lower,optimal_x"]
    for row in rows:
        lines.append(
            f"{row.m},{row.lower:.9g},{row.upper:.9g},"
            f"{row.multilinear_lower:.9g},{row.optimal_x:.9g}"
        )
    return "\n".join(lines) + "\n"


class RatioResult(NamedTuple):
    estimate: float
    certified: float


def _bracketed_ratio(
    P: HomogeneousPolynomial, grid: int
) -> tuple[float, SupNormResult, RatioResult]:
    """P's coefficient norm, its sup-norm bracket at grid K and their
    ratios: the one implementation behind bh_ratio and certify.

    Raises ZeroPolynomialError for the zero polynomial, whatever the grid,
    and ValueError when the lower sup-norm estimate vanishes.
    """
    if P.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no ratio")
    bracket = sup_norm(P, grid)
    if bracket.lower_estimate <= 0.0:
        raise ValueError(_VANISHED)
    numerator = coefficient_lp_norm(P, bh_exponent(P.degree))
    ratio = RatioResult(
        estimate=numerator / bracket.lower_estimate,
        certified=numerator / bracket.upper_bracket,
    )
    return numerator, bracket, ratio


def bh_ratio(P: HomogeneousPolynomial, grid: int = DEFAULT_GRID) -> RatioResult:
    """Coefficient-norm-to-sup-norm ratio of P, both optimistic and certified.

    estimate  = l_{2m/(m+1)}(coefficients) / lower sup-norm estimate,
    certified = same numerator / rigorous upper bracket.

    Every polynomial's certified ratio is a true lower bound on D(m) up to
    floating-point rounding (the numerator is exact to rounding and the
    denominator is an upper bound on ||P||).  grid is the sup-norm grid
    K, as in sup_norm.  The ratios are those of certify(P, grid).
    """
    return _bracketed_ratio(P, grid)[2]
