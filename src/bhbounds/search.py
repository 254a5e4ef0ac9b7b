"""Derivative-free search for witness polynomials with certified ratios.

The one-parameter family optimization (over the cross-term weight) is
generalized to the full space of real coefficient vectors indexed by all
degree-m multi-indices on N variables.  The objective is only piecewise
smooth because the sup-norm argmax can jump between basins, so a pattern
search is used instead of a gradient method: perturb one coefficient at a
time by +-step, keep strict improvements, halve the step after a full
stale sweep.

Every candidate of a search has the same multi-indices, so its values on
the torus grid are one fixed linear map of its coefficient vector c,
v = Phi c.  Axis 0 is pinned at angle 0 (a homogeneous P keeps |P| under
the diagonal phase, so every grid value has a copy there) and axes
1..N-1 take K = grid points each: Phi[k, alpha] is the product over
j >= 1 of e^{2 pi i alpha_j k_j/K}.  A move adds s to one coefficient, so
the candidate's grid values are v + s Phi[:, i]; the column is built when
needed from one table of e^{2 pi i a k/K} and Phi itself never is, so a
restart holds K^(N-1) values per vector and builds no polynomial.  The
search maximises the grid score ||c||_p / max_k |v_k|, p = 2m/(m+1).
A grid maximum is at most the sup norm, so the grid score is at least the
ratio estimate and can reward a vector the grid undersamples; each
restart's start and final vectors are therefore re-scored exactly, by
bh_ratio(P, grid).estimate, and the best of these finalists is certified.

Coefficients are restricted to the reals: rotating each variable by a
torus phase can absorb one phase per variable without changing either
norm, and the known good witnesses are real.  This is a search-space
heuristic, not a theorem.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .family import _bracketed_ratio, bh_ratio, optimal_x
from .poly import (
    HomogeneousPolynomial,
    MultiIndex,
    _lp_norm,
    bh_exponent,
    coefficient_lp_norm,  # noqa: F401  (bench/spans.py wraps search.coefficient_lp_norm)
    polynomial_from_dict,
    polynomial_to_dict,
)
from .supnorm import (
    _NOT_FINITE,
    DEFAULT_GRID,
    SupNormResult,
    _grid_size_error,
    sup_norm,  # noqa: F401  (bench/spans.py wraps search.sup_norm)
)

CERTIFICATE_SCHEMA = "bh-cert-1"

# First pattern-search step, and the step below which a restart stops.
_STEP_INIT = 0.5
_STEP_MIN = 1e-6

# Largest coefficient space, C(m + n - 1, n - 1) multi-indices, that a
# search enumerates; larger ones could not even be listed in memory.
_MAX_COEFFICIENTS = 1 << 16


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the multi-restart pattern search.

    eval_budget counts the grid scores of a restart, its start included,
    so restarts stay independent of one another; each restart adds up to
    two exact scores, of its start and final vectors.  Restart r draws
    its start from a generator seeded with rng_seed + r; restart 0 is
    always seeded from the witness family instead.  grid is the K of the
    grid scores (K^(num_vars - 1) points, within the sup-norm grid
    limit), of the exact scores and of the final certificate; it is at
    least 2.  The coefficient space, C(m + num_vars - 1, num_vars - 1)
    multi-indices, may hold at most 65536 of them.
    """

    m: int
    num_vars: int
    restarts: int = 32
    rng_seed: int = 0
    eval_budget: int = 200
    grid: int = DEFAULT_GRID

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"search needs m >= 2, got {self.m}")
        if self.num_vars < 1:
            raise ValueError(f"search needs num_vars >= 1, got {self.num_vars}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")
        if self.eval_budget < 1:
            raise ValueError(
                f"eval_budget must allow at least one evaluation, got {self.eval_budget}"
            )
        if self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid}")
        size = math.comb(self.m + self.num_vars - 1, self.num_vars - 1)
        if size > _MAX_COEFFICIENTS:
            raise ValueError(
                f"degree {self.m} on {self.num_vars} variables has {size} coefficients; "
                f"search handles at most {_MAX_COEFFICIENTS}"
            )


@dataclass(frozen=True)
class WitnessCertificate:
    """A polynomial together with everything needed to audit its ratio.

    certified_lower = coeff_norm / supnorm.upper_bracket is a true lower
    bound on D(m) up to rounding; estimate uses the attained lower
    sup-norm value instead and is what the search optimizes.
    """

    polynomial: HomogeneousPolynomial
    coeff_norm: float
    supnorm: SupNormResult
    certified_lower: float
    estimate: float
    search_config: SearchConfig | None = None
    seed: int | None = None
    restart_index: int | None = None

    def __post_init__(self) -> None:
        if self.certified_lower > self.estimate:
            raise ValueError("certified_lower exceeds estimate")


def degree_multi_indices(m: int, n: int) -> list[MultiIndex]:
    """All exponent vectors of weight m on n variables, lexicographic.

    Stars and bars: n - 1 bars among m + n - 1 slots split the m stars
    into n exponents, the gaps between consecutive bars.  Bar positions
    come from itertools.combinations in lexicographic order, and the
    exponent vectors they give come in the same order.
    """
    slots = m + n - 1
    return [
        tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))])
        for bars in itertools.combinations(range(slots), n - 1)
    ]


def family_seed_vector(m: int, n: int, indices: list[MultiIndex]) -> np.ndarray:
    """Start vector encoding the witness family on n variables.

    Unit exponents go on variables 3..min(n, m); any degree still missing
    (n < m) is stacked on the last variable, which keeps the lift
    norm-preserving whenever n >= 3.  With a single variable the only
    candidate is the lone monomial.
    """
    vec = np.zeros(len(indices))
    position = {alpha: i for i, alpha in enumerate(indices)}
    if n == 1:
        vec[position[(m,)]] = 1.0
        return vec
    x = optimal_x(m)
    if n == 2:
        # No spare variables: stack the leftover degree on z2.
        d = m - 2
        vec[position[(2, d)]] = 1.0
        vec[position[(0, d + 2)]] = -1.0
        vec[position[(1, d + 1)]] = x
        return vec
    ext = [0] * (n - 2)
    for k in range(min(n, m) - 2):
        ext[k] = 1
    deficit = m - 2 - sum(ext)
    if deficit > 0:
        ext[-1] += deficit
    ext_t = tuple(ext)
    vec[position[(2, 0) + ext_t]] = 1.0
    vec[position[(0, 2) + ext_t]] = -1.0
    vec[position[(1, 1) + ext_t]] = x
    return vec


def _vector_to_polynomial(
    m: int, n: int, indices: list[MultiIndex], vec: np.ndarray
) -> HomogeneousPolynomial:
    terms = {alpha: complex(v) for alpha, v in zip(indices, vec) if v != 0.0}
    return HomogeneousPolynomial(m, n, terms)


def _phase_table(m: int, K: int) -> np.ndarray:
    """T[a, k] = e^{2 pi i a k/K} for exponents a = 0..m and k = 0..K-1,
    taken from the K-th roots of unity at a k mod K."""
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    return roots[np.outer(np.arange(m + 1), np.arange(K)) % K]


def _grid_column(table: np.ndarray, alpha: MultiIndex) -> np.ndarray:
    """Phi[:, alpha]: the values of z^alpha on the grid, axis 0 at angle 0
    and the grid points of axes 1..N-1 flattened with the last fastest."""
    if len(alpha) == 1:
        return np.ones(1, dtype=np.complex128)
    column = table[alpha[1]]
    for a in alpha[2:]:
        column = np.multiply.outer(column, table[a]).ravel()
    return column


def _grid_values(table: np.ndarray, indices: list[MultiIndex], vec: np.ndarray) -> np.ndarray:
    """v = Phi vec, one column at a time."""
    values = np.zeros(table.shape[1] ** (len(indices[0]) - 1), dtype=np.complex128)
    # _grid_score reports an overflow, so numpy's warning is not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, c in zip(indices, vec.tolist()):
            if c:
                values += c * _grid_column(table, alpha)
    return values


def _grid_score(vec: np.ndarray, values: np.ndarray, p: float) -> float:
    """||vec||_p / max_k |values_k|; -inf for the zero vector or an all-zero
    grid, and the ValueError of sup_norm for a grid value that is not
    finite."""
    peak = float(np.abs(values).max())
    if not math.isfinite(peak):
        raise ValueError(_NOT_FINITE)
    mags = np.abs(vec).tolist()
    if peak == 0.0 or not any(mags):
        return -math.inf
    return _lp_norm(mags, p) / peak


def _run_restart(
    cfg: SearchConfig, indices: list[MultiIndex], table: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pattern search of restart r on grid scores: its start vector and the
    best vector it reached."""
    rng = np.random.default_rng(cfg.rng_seed + r)
    if r == 0:
        start = family_seed_vector(cfg.m, cfg.num_vars, indices)
    else:
        start = rng.uniform(-2.0, 2.0, len(indices))

    p = bh_exponent(cfg.m)
    best_vec = start
    best_values = _grid_values(table, indices, start)
    best_val = _grid_score(best_vec, best_values, p)
    evals = 1
    step = _STEP_INIT
    while step >= _STEP_MIN and evals < cfg.eval_budget:
        improved = False
        for i in range(len(indices)):
            column = _grid_column(table, indices[i])
            for sign in (1.0, -1.0):
                if evals >= cfg.eval_budget:
                    break
                candidate = best_vec.copy()
                candidate[i] += sign * step
                values = best_values + (sign * step) * column
                val = _grid_score(candidate, values, p)
                evals += 1
                if val > best_val:
                    best_vec, best_values, best_val = candidate, values, val
                    improved = True
                    break
            if evals >= cfg.eval_budget:
                break
        if not improved:
            step *= 0.5
    return start, best_vec


def certify(
    P: HomogeneousPolynomial,
    grid: int = DEFAULT_GRID,
    *,
    search_config: SearchConfig | None = None,
    seed: int | None = None,
    restart_index: int | None = None,
) -> WitnessCertificate:
    """Audit-ready certificate for one polynomial at sup-norm grid K = grid;
    its numbers, and its errors, are those of bh_ratio(P, grid)."""
    coeff_norm, bracket, ratio = _bracketed_ratio(P, grid)
    return WitnessCertificate(
        polynomial=P,
        coeff_norm=coeff_norm,
        supnorm=bracket,
        certified_lower=ratio.certified,
        estimate=ratio.estimate,
        search_config=search_config,
        seed=seed,
        restart_index=restart_index,
    )


def search(cfg: SearchConfig) -> WitnessCertificate:
    """Multi-restart pattern search; returns the best certificate found.

    Restarts are independent (restart r owns generator rng_seed + r and
    its own eval budget) and run one after another.  A restart's start and
    final vectors are its finalists, in that order, scored by
    bh_ratio(P, cfg.grid).estimate; the merge keeps the largest estimate,
    ties broken by the earliest finalist, and holds only the best one so
    far.  Restart 0 starts from the family seed, so the result is never
    below the family's ratio.  The estimate is the merge key because it is
    the quantity the seeded floor guarantees; the certified value is
    reported alongside it in the certificate.  A grid of K^(num_vars - 1)
    points over the limit raises GridTooLargeError before any restart, and
    the first restart to fail raises its error.
    """
    error = _grid_size_error(cfg.grid, cfg.num_vars - 1)
    if error is not None:
        raise error
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    table = _phase_table(cfg.m, cfg.grid)
    best: tuple[float, int, HomogeneousPolynomial] | None = None
    for r in range(cfg.restarts):
        start, final = _run_restart(cfg, indices, table, r)
        finalists = (start,) if final is start else (start, final)
        for vec in finalists:
            poly = _vector_to_polynomial(cfg.m, cfg.num_vars, indices, vec)
            estimate = bh_ratio(poly, cfg.grid).estimate
            if best is None or estimate > best[0]:  # strict > keeps the earliest
                best = (estimate, r, poly)
    _, index, poly = best  # set by restart 0, as restarts >= 1
    return certify(
        poly,
        cfg.grid,
        search_config=cfg,
        seed=cfg.rng_seed,
        restart_index=index,
    )


# --- certificate file format (schema bh-cert-1) ------------------------------


# Older bh-cert-1 files nest the grid beside settings that change no certified
# number; only the grid is read.  Steps other than the constants are refused.
def _search_config_from_dict(doc: dict) -> SearchConfig:
    kwargs = dict(doc)
    for key, fixed in (("step_init", _STEP_INIT), ("step_min", _STEP_MIN)):
        if kwargs.pop(key, fixed) != fixed:  # the steps chose the search path
            raise ValueError(f"search with {key}={doc[key]!r} cannot be rerun")
    if "supnorm" in kwargs:
        kwargs["grid"] = kwargs.pop("supnorm")["grid_points_per_axis"]
    return SearchConfig(**kwargs)


def certificate_to_dict(cert: WitnessCertificate) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "polynomial": polynomial_to_dict(cert.polynomial),
        "coeff_norm": cert.coeff_norm,
        "estimate": cert.estimate,
        "certified_lower": cert.certified_lower,
        "supnorm": {**asdict(cert.supnorm), "arg_angles": list(cert.supnorm.arg_angles)},
        "config": {
            "search": asdict(cert.search_config) if cert.search_config is not None else None,
        },
        "seed": cert.seed,
        "restart_index": cert.restart_index,
    }


def certificate_from_dict(doc: dict) -> WitnessCertificate:
    if doc.get("schema") != CERTIFICATE_SCHEMA:
        raise ValueError(
            f"unsupported certificate schema {doc.get('schema')!r}, "
            f"expected {CERTIFICATE_SCHEMA!r}"
        )
    sup = doc["supnorm"]
    search_doc = doc["config"].get("search")
    return WitnessCertificate(
        polynomial=polynomial_from_dict(doc["polynomial"]),
        coeff_norm=doc["coeff_norm"],
        supnorm=SupNormResult(**{**sup, "arg_angles": tuple(sup["arg_angles"])}),
        certified_lower=doc["certified_lower"],
        estimate=doc["estimate"],
        search_config=(
            _search_config_from_dict(search_doc) if search_doc is not None else None
        ),
        seed=doc.get("seed"),
        restart_index=doc.get("restart_index"),
    )


def certificate_json(cert: WitnessCertificate) -> str:
    """Deterministic serialization: same certificate, same bytes."""
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True) + "\n"


def save_certificate(cert: WitnessCertificate, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(certificate_json(cert))


def load_certificate(path: str) -> WitnessCertificate:
    with open(path) as fh:
        return certificate_from_dict(json.load(fh))
