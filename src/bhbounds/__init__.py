"""Numerical bounds for the polynomial Bohnenblust-Hille constants.

The library has four layers:

* poly      -- sparse homogeneous polynomials, evaluation, coefficient norms
* supnorm   -- bracketed sup norms on the unit polydisc (grid, ascent, sampling and triangle bounds)
* family    -- witness family, closed-form D(m) bounds, certified ratios
* search    -- pattern search for witnesses and the certificate file format

plus a batch CLI (``bhbounds``) over all of it.  The package exports what
its callers use: the bounds, the witness family, ratios, certificates and
the search, with the errors and result types they return.  The steps
behind them (torus_grid_max, refine_local, the certificate dict format,
the search's start vector) stay in their modules.
"""

from .poly import (
    HomogeneousPolynomial,
    PolynomialFormatError,
    bh_exponent,
    coefficient_lp_norm,
    load_polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    save_polynomial,
)
from .supnorm import (
    GridTooLargeError,
    MAX_GRID_POINTS,
    SupNormResult,
    sup_norm,
)
from .family import (
    BoundsRow,
    FamilyParams,
    FormulaDomainError,
    RatioResult,
    WitnessCertificate,
    ZeroPolynomialError,
    bh_ratio,
    bounds_table,
    bounds_table_csv,
    build_witness,
    certify,
    family_ratio,
    lower_bound,
    lower_bound_excess,
    multilinear_lower_bound,
    optimal_x,
    quadratic_sup_norm,
    upper_bound,
)
from .search import (
    SearchConfig,
    certificate_json,
    load_certificate,
    save_certificate,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "HomogeneousPolynomial",
    "PolynomialFormatError",
    "bh_exponent",
    "coefficient_lp_norm",
    "load_polynomial",
    "polynomial_from_dict",
    "polynomial_to_dict",
    "save_polynomial",
    "GridTooLargeError",
    "MAX_GRID_POINTS",
    "SupNormResult",
    "sup_norm",
    "BoundsRow",
    "FamilyParams",
    "FormulaDomainError",
    "RatioResult",
    "WitnessCertificate",
    "ZeroPolynomialError",
    "bh_ratio",
    "bounds_table",
    "bounds_table_csv",
    "build_witness",
    "certify",
    "family_ratio",
    "lower_bound",
    "lower_bound_excess",
    "multilinear_lower_bound",
    "optimal_x",
    "quadratic_sup_norm",
    "upper_bound",
    "SearchConfig",
    "certificate_json",
    "load_certificate",
    "save_certificate",
    "search",
]
