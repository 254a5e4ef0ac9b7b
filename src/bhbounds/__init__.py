"""Numerical bounds for the polynomial Bohnenblust-Hille constants.

The library has four layers:

* poly      -- sparse homogeneous polynomials, evaluation, coefficient norms
* supnorm   -- bracketed sup norms on the unit polydisc (grid + refine + slack)
* family    -- the quadratic witness family and the closed-form D(m) bounds
* search    -- pattern search for witnesses with reproducible certificates

plus a batch CLI (``bhbounds``) over all of it.
"""

from .poly import (
    HomogeneousPolynomial,
    MultiIndex,
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
    RefineResult,
    SupNormResult,
    refine_local,
    sup_norm,
    torus_grid_max,
    torus_lipschitz_bound,
)
from .family import (
    BoundsRow,
    FamilyParams,
    FormulaDomainError,
    RatioResult,
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
    upper_bound,
)
from .search import (
    CERTIFICATE_SCHEMA,
    SearchConfig,
    WitnessCertificate,
    certificate_from_dict,
    certificate_json,
    certificate_to_dict,
    certify,
    degree_multi_indices,
    family_seed_vector,
    load_certificate,
    save_certificate,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "HomogeneousPolynomial",
    "MultiIndex",
    "PolynomialFormatError",
    "bh_exponent",
    "coefficient_lp_norm",
    "load_polynomial",
    "polynomial_from_dict",
    "polynomial_to_dict",
    "save_polynomial",
    "GridTooLargeError",
    "MAX_GRID_POINTS",
    "RefineResult",
    "SupNormResult",
    "refine_local",
    "sup_norm",
    "torus_grid_max",
    "torus_lipschitz_bound",
    "BoundsRow",
    "FamilyParams",
    "FormulaDomainError",
    "RatioResult",
    "ZeroPolynomialError",
    "bh_ratio",
    "bounds_table",
    "bounds_table_csv",
    "build_quadratic",
    "build_witness",
    "family_ratio",
    "lower_bound",
    "lower_bound_excess",
    "multilinear_lower_bound",
    "optimal_x",
    "quadratic_sup_norm",
    "upper_bound",
    "CERTIFICATE_SCHEMA",
    "SearchConfig",
    "WitnessCertificate",
    "certificate_from_dict",
    "certificate_json",
    "certificate_to_dict",
    "certify",
    "degree_multi_indices",
    "family_seed_vector",
    "load_certificate",
    "save_certificate",
    "search",
]
