"""Derivative-free search for witness polynomials with certified ratios.

The one-parameter family optimization (over the cross-term weight) is
generalized to the full space of real coefficient vectors indexed by all
degree-m multi-indices on N variables.  The objective -- the ratio
estimate from bh_ratio -- is only piecewise smooth because the sup-norm
argmax can jump between basins, so a pattern search is used instead of a
gradient method: perturb one coefficient at a time by +-step, keep strict
improvements, halve the step after a full stale sweep.

The restarts run in windows of 256; those of a window advance in lockstep,
and each step gathers the next candidate of every live restart into one
evaluation call.  On two variables every candidate with two or more
terms has one free sup-norm axis, and the candidates are scored from
their coefficient matrix by the one-free-axis kernel
(supnorm._line_sup_norms), with no polynomial built; every other
candidate goes through bh_ratio on its own.  Restarts share nothing, so
each takes the path it takes when the restarts run one after another, as
long as a candidate's estimate from a batch is the one bh_ratio gives it
alone.  That holds at every degree: the kernel's numbers for a row
depend neither on its batch nor on its zero padding, provided numpy
computes each element the same way whatever the array size (see the
supnorm module).

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
from typing import Generator

import numpy as np

from .family import _VANISHED, ZeroPolynomialError, _line_estimates, bh_ratio, optimal_x
from .poly import (
    HomogeneousPolynomial,
    MultiIndex,
    bh_exponent,
    coefficient_lp_norm,
    polynomial_from_dict,
    polynomial_to_dict,
)
from .supnorm import DEFAULT_GRID, SupNormResult, sup_norm

CERTIFICATE_SCHEMA = "bh-cert-1"

# First pattern-search step, and the step below which a restart stops.
_STEP_INIT = 0.5
_STEP_MIN = 1e-6

# Largest coefficient space, C(m + n - 1, n - 1) multi-indices, that a
# search enumerates; larger ones could not even be listed in memory.
_MAX_COEFFICIENTS = 1 << 16

# Restarts advanced in lockstep at once.  Every live restart holds a
# generator, its RNG and vectors, so this bounds a search's memory whatever
# the restart count; it changes no result.
_WINDOW = 256


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the multi-restart pattern search.

    eval_budget counts ratio evaluations per restart, so restarts stay
    independent of one another.  Restart r draws its start from a
    generator seeded with rng_seed + r; restart 0 is always seeded from
    the witness family instead.  grid is the sup-norm grid K (at least 2)
    of every evaluation and of the final certificate.  The coefficient
    space, C(m + num_vars - 1, num_vars - 1) multi-indices, may hold at
    most 65536 of them.
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


@dataclass
class _RestartOutcome:
    index: int
    vector: np.ndarray
    estimate: float
    evals: int


def _run_restart(
    cfg: SearchConfig, indices: list[MultiIndex], r: int
) -> Generator[np.ndarray, float, _RestartOutcome]:
    """Pattern search of restart r: yields each candidate vector, is sent
    its ratio estimate, and returns the outcome."""
    rng = np.random.default_rng(cfg.rng_seed + r)
    if r == 0:
        start = family_seed_vector(cfg.m, cfg.num_vars, indices)
    else:
        start = rng.uniform(-2.0, 2.0, len(indices))

    best_vec = start.copy()
    best_val = yield best_vec
    evals = 1
    step = _STEP_INIT
    while step >= _STEP_MIN and evals < cfg.eval_budget:
        improved = False
        for i in range(len(indices)):
            for sign in (1.0, -1.0):
                if evals >= cfg.eval_budget:
                    break
                candidate = best_vec.copy()
                candidate[i] += sign * step
                val = yield candidate
                evals += 1
                if val > best_val:
                    best_vec, best_val = candidate, val
                    improved = True
                    break
            if evals >= cfg.eval_budget:
                break
        if not improved:
            step *= 0.5
    return _RestartOutcome(index=r, vector=best_vec, estimate=best_val, evals=evals)


def _estimates(
    cfg: SearchConfig, indices: list[MultiIndex], vectors: list[np.ndarray]
) -> list[float | ValueError]:
    """bh_ratio(P, cfg.grid).estimate of each candidate vector's polynomial,
    or the ValueError bh_ratio raises for it; the zero polynomial scores
    -inf.

    On two variables a candidate with two or more terms has one free axis,
    the second, and indices run (0, m), (1, m - 1), ..., (m, 0), so its
    coefficients by exponent on that axis are its vector reversed: those
    candidates are scored from their coefficient matrix by one
    _line_estimates call, without building polynomials.  Every other
    candidate goes to bh_ratio on its own.
    """
    estimates: list[float | ValueError] = [-math.inf] * len(vectors)
    rest = range(len(vectors))
    if cfg.num_vars == 2:
        V = np.array(vectors)
        dense = np.count_nonzero(V, axis=1) >= 2
        if dense.any():
            line = np.flatnonzero(dense).tolist()
            for i, estimate in zip(line, _line_estimates(V[dense, ::-1], cfg.m, cfg.grid)):
                estimates[i] = estimate
        rest = np.flatnonzero(~dense).tolist()
    for i in rest:
        P = _vector_to_polynomial(cfg.m, cfg.num_vars, indices, vectors[i])
        if P.is_zero:
            continue  # all-zero candidate, scored -inf
        try:
            estimates[i] = bh_ratio(P, cfg.grid).estimate
        except ValueError as exc:
            estimates[i] = exc
    return estimates


def _run_window(
    cfg: SearchConfig, indices: list[MultiIndex], window: range
) -> list[_RestartOutcome]:
    """The outcome of every restart in window, in index order.

    The restarts advance in lockstep: each round is one _estimates call
    for the next candidate of every live restart.  They share nothing, so
    each gets the candidates, evals and outcome it gets when the restarts
    run one after another.  Run that way, the first restart to fail raises
    and later ones never run; so a failure drops the restarts above it,
    and the lowest failure is raised once the others finish.
    """
    runs = {r: _run_restart(cfg, indices, r) for r in window}
    pending = {r: next(run) for r, run in runs.items()}
    outcomes: list[_RestartOutcome] = []
    failure: ValueError | None = None
    while pending:
        live = list(pending)
        for r, result in zip(live, _estimates(cfg, indices, [pending[r] for r in live])):
            if isinstance(result, ValueError):
                failure = result
                pending = {s: vec for s, vec in pending.items() if s < r}
                break
            try:
                pending[r] = runs[r].send(result)
            except StopIteration as stop:
                outcomes.append(stop.value)
                del pending[r]
    if failure is not None:
        raise failure
    return sorted(outcomes, key=lambda outcome: outcome.index)


def certify(
    P: HomogeneousPolynomial,
    grid: int = DEFAULT_GRID,
    *,
    search_config: SearchConfig | None = None,
    seed: int | None = None,
    restart_index: int | None = None,
) -> WitnessCertificate:
    """Audit-ready certificate for one polynomial at sup-norm grid K = grid."""
    if P.is_zero:
        raise ZeroPolynomialError("cannot certify the zero polynomial")
    coeff_norm = coefficient_lp_norm(P, bh_exponent(P.degree))
    result = sup_norm(P, grid)
    if result.lower_estimate <= 0.0:
        raise ValueError(_VANISHED)
    return WitnessCertificate(
        polynomial=P,
        coeff_norm=coeff_norm,
        supnorm=result,
        certified_lower=coeff_norm / result.upper_bracket,
        estimate=coeff_norm / result.lower_estimate,
        search_config=search_config,
        seed=seed,
        restart_index=restart_index,
    )


def search(cfg: SearchConfig) -> WitnessCertificate:
    """Multi-restart pattern search; returns the best certificate found.

    Restarts are independent (restart r owns generator rng_seed + r and
    its own eval budget).  They run in consecutive windows of 256, and
    those of a window advance in lockstep, with one evaluation call for
    every live restart's next candidate per step; each follows the path
    it follows when they run one after another in index order, given the
    same estimates.  A failure raises before later windows run.  The merge
    keeps the maximum ratio estimate, ties broken by the lowest restart
    index, and only the best outcome so far is held between windows.  The
    estimate is the merge key because it is the quantity the search
    optimizes and the quantity the seeded floor guarantees; the certified
    value is reported alongside it in the certificate.
    """
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    best: _RestartOutcome | None = None
    for first in range(0, cfg.restarts, _WINDOW):
        window = range(first, min(first + _WINDOW, cfg.restarts))
        for outcome in _run_window(cfg, indices, window):  # strict > keeps the earliest on ties
            if not math.isfinite(outcome.estimate):
                continue
            if best is None or outcome.estimate > best.estimate:
                best = outcome
    if best is None:
        raise ValueError("no restart produced a valid (nonzero) polynomial")

    poly = _vector_to_polynomial(cfg.m, cfg.num_vars, indices, best.vector)
    return certify(
        poly,
        cfg.grid,
        search_config=cfg,
        seed=cfg.rng_seed,
        restart_index=best.index,
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
