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

Restarts run in lockstep windows of w = max(1, _LOCKSTEP_POINTS //
K^(N-1)) restarts: one numpy pass adds the next move of every live
restart in the window to its grid values and takes each row's maximum,
which on a small grid costs little more than one restart's move alone.
Each restart is its own coroutine (_pattern_search), takes the path it
would take alone and returns its finalists, the start and final vectors,
with the start's grid maximum.  A window's arrays hold at most
max(_LOCKSTEP_POINTS, K^(N-1)) grid values, whatever the number of
restarts, and windows run one after another.

A grid maximum is at most the sup norm, so the grid score is at least the
ratio estimate and can reward a vector the grid undersamples; each
restart's start and final vectors are therefore re-scored exactly, by
bh_ratio(P, grid).estimate, and the best of these finalists is certified
by family.certify, whose certificate this module writes and reads.
A finalist whose grid score times 1 + kappa, from supnorm's rounding bound,
is at most the best estimate so far cannot win and is not re-scored
(_rounding_slack).  SearchConfig refuses every configuration the search
cannot run.

Coefficients are restricted to the reals: rotating each variable by a
torus phase can absorb one phase per variable without changing either
norm, and the known good witnesses are real.  This is a search-space
heuristic, not a theorem.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Generator
from dataclasses import asdict, dataclass

import numpy as np

from .family import WitnessCertificate, _witness_exponents, bh_ratio, certify, optimal_x
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
    MAX_GRID_POINTS,
    GridTooLargeError,
    SupNormResult,
    _check_grid,
    _rounding_bound,
    sup_norm,  # noqa: F401  (bench/spans.py wraps search.sup_norm)
)

CERTIFICATE_SCHEMA = "bh-cert-1"

# First pattern-search step, and the step below which a restart stops.
_STEP_INIT = 0.5
_STEP_MIN = 1e-6

# Largest coefficient space, C(m + n - 1, n - 1) multi-indices, that a
# search enumerates; larger ones could not even be listed in memory.
_MAX_COEFFICIENTS = 1 << 16

# Restarts advance together in windows of max(1, _LOCKSTEP_POINTS // K^(N-1)).
# Against one restart at a time (2-core x86-64, pattern loop of 32 restarts):
# a window of 32 at 64 grid points takes 0.53 of the time, 6 at 512 points
# 0.82, 3 at 1024 points 1.00-1.03, and 2 at 768-2048 points 1.01-1.26.  The
# window is 1 from 1537 points up, and no smaller than 3 below 1025.
_LOCKSTEP_POINTS = 3072


@dataclass(frozen=True)
class SearchConfig:
    """Settings of the multi-restart pattern search; every refusal of a
    search is made here, so certificate_from_dict makes it too.

    eval_budget counts the grid scores of a restart, its start included,
    so restarts stay independent of one another, whatever window they
    run in; each restart adds up to two exact scores, of its start and
    final vectors, and none for a vector that cannot win.  Restart r draws
    its start from a generator seeded with rng_seed + r; restart 0 is
    always seeded from the witness family instead.  grid is the K of the
    grid scores, of the exact scores and of the final certificate; it is
    at least 2.  The coefficient space, C(m + num_vars - 1, num_vars - 1)
    multi-indices, may hold at most 65536 of them (ValueError).  On two
    or more variables, a grid of K^(num_vars - 1) points, or an (m + 1) x K
    table of roots of unity, over the sup-norm grid limit raises
    GridTooLargeError; a grid K <= m, on which the exponents 0..m alias
    mod K, or a family seed weight optimal_x(m) past the largest float
    raises ValueError.  One variable has one grid point, no table and a
    monomial seed, so it takes any grid and degree.
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
        _check_grid(self.grid)
        size = math.comb(self.m + self.num_vars - 1, self.num_vars - 1)
        if size > _MAX_COEFFICIENTS:
            raise ValueError(
                f"degree {self.m} on {self.num_vars} variables has {size} coefficients; "
                f"search handles at most {_MAX_COEFFICIENTS}"
            )
        if self.num_vars >= 2:  # one variable has one grid point and no table
            _check_grid(self.grid, self.num_vars - 1)
            if (self.m + 1) * self.grid > MAX_GRID_POINTS:
                raise GridTooLargeError(
                    f"phase table of {self.m + 1} x {self.grid} entries exceeds the limit of "
                    f"{MAX_GRID_POINTS}; use a smaller degree or grid"
                )
            if self.grid <= self.m:
                raise ValueError(
                    f"search grid {self.grid} aliases the exponents of degree {self.m}; "
                    f"use a grid of at least {self.m + 1}"
                )
            optimal_x(self.m)  # the family seed's weight: a ValueError from m = 2047


def degree_multi_indices(m: int, n: int) -> list[MultiIndex]:
    """All exponent vectors of weight m on n variables, lexicographic.

    Stars and bars: n - 1 bars among m + n - 1 slots split the m stars
    into n exponents, the gaps between consecutive bars.  Bar positions
    come from itertools.combinations in lexicographic order, and the
    exponent vectors they give come in the same order.
    """
    if n == 1:
        return [(m,)]  # combinations would first copy all m slots into a tuple
    slots = m + n - 1
    return [
        tuple([b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,))])
        for bars in itertools.combinations(range(slots), n - 1)
    ]


def family_seed_vector(m: int, n: int, indices: list[MultiIndex]) -> np.ndarray:
    """Start vector with 1, -1 and optimal_x(m) on the a, b and c terms of
    the witness family's lift to n variables; the lone monomial if n = 1."""
    vec = np.zeros(len(indices))
    position = {alpha: i for i, alpha in enumerate(indices)}
    if n == 1:
        vec[position[(m,)]] = 1.0
        return vec
    for alpha, value in zip(_witness_exponents(m, n), (1.0, -1.0, optimal_x(m))):
        vec[position[alpha]] = value
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


def _grid_column(table: np.ndarray | None, alpha: MultiIndex) -> np.ndarray:
    """Phi[:, alpha]: the values of z^alpha on the grid, axis 0 at angle 0
    and the grid points of axes 1..N-1 flattened with the last fastest.
    One variable has the one grid point 1 and no table (None)."""
    if len(alpha) == 1:
        return np.ones(1, dtype=np.complex128)
    column = table[alpha[1]]
    for a in alpha[2:]:
        column = np.multiply.outer(column, table[a]).ravel()
    return column


def _grid_values(
    table: np.ndarray | None, indices: list[MultiIndex], vec: np.ndarray
) -> np.ndarray:
    """v = Phi vec, one column at a time."""
    n = len(indices[0])
    values = np.zeros(table.shape[1] ** (n - 1) if n > 1 else 1, dtype=np.complex128)
    # _peak_score reports an overflow, so numpy's warning is not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha, c in zip(indices, vec.tolist()):
            if c:
                values += c * _grid_column(table, alpha)
    return values


def _peak_score(mags: list[float], peak: float, p: float) -> float:
    """||c||_p / peak for the coefficient magnitudes mags and the grid
    maximum peak; -inf for the zero vector or an all-zero grid, and the
    ValueError of sup_norm for a grid value that is not finite."""
    if not math.isfinite(peak):
        raise ValueError(_NOT_FINITE)
    if peak == 0.0 or not any(mags):
        return -math.inf
    return _lp_norm(mags, p) / peak


def _start_vector(cfg: SearchConfig, indices: list[MultiIndex], r: int) -> np.ndarray:
    """Restart 0 starts from the family seed, restart r >= 1 from a
    uniform draw on [-2, 2] of the generator seeded with rng_seed + r."""
    if r == 0:
        return family_seed_vector(cfg.m, cfg.num_vars, indices)
    return np.random.default_rng(cfg.rng_seed + r).uniform(-2.0, 2.0, len(indices))


def _pattern_search(
    cfg: SearchConfig,
    indices: list[MultiIndex],
    table: np.ndarray | None,
    start: np.ndarray,
    values: np.ndarray,
) -> Generator[tuple[np.ndarray, float, bool], float, tuple[np.ndarray, float, np.ndarray]]:
    """Pattern search of one restart on grid scores, from start and its
    grid values: perturb one coefficient at a time by +-step, keep strict
    improvements, halve the step after a stale sweep, within the budget.

    A coroutine: it yields each candidate move (column, s, accepted),
    adding s to the coefficient whose grid column is column, with whether
    the previous candidate was kept, and is sent the candidate's grid
    maximum.  It returns (start, start_peak, final): the start vector, the
    maximum magnitude of its grid values and the best vector reached (the
    start itself if no move was kept).  A grid maximum that is not finite
    raises the ValueError of _peak_score; no search reaches one, since
    restart 0 starts from the family seed, whose coefficients are at most
    optimal_x(2046) < 2^1024 (SearchConfig refuses larger m), every other
    restart on [-2, 2], and every move is at most 0.5.  The vector is a
    list of Python floats, so the l_p numerator of a candidate is that of
    the numpy vector it stands for.
    """
    p = bh_exponent(cfg.m)
    start_peak = float(np.abs(values).max())
    vec, mags = start.tolist(), np.abs(start).tolist()
    score = _peak_score(mags, start_peak, p)
    evals, moved, accepted = 1, False, False
    step = _STEP_INIT
    while step >= _STEP_MIN:
        improved = False
        for i in range(len(indices)):
            column = _grid_column(table, indices[i])
            for sign in (1.0, -1.0):
                if evals >= cfg.eval_budget:
                    return start, start_peak, np.array(vec) if moved else start
                s = sign * step
                peak = yield column, s, accepted
                x = vec[i] + s
                kept_mag, mags[i] = mags[i], abs(x)
                val = _peak_score(mags, peak, p)
                evals += 1
                accepted = val > score
                if accepted:
                    vec[i], score = x, val
                    improved = moved = True
                    break
                mags[i] = kept_mag
        if not improved:
            step *= 0.5
    return start, start_peak, np.array(vec) if moved else start


def _run_alone(restart: Generator, values: np.ndarray, column: np.ndarray, s: float) -> tuple:
    """Drive one _pattern_search from its grid values and next move to its
    outcome."""
    try:
        while True:
            candidates = values + s * column
            column, s, accepted = restart.send(float(np.abs(candidates).max()))
            if accepted:
                values = candidates
    except StopIteration as stop:
        return stop.value


def _run_window(
    cfg: SearchConfig, indices: list[MultiIndex], table: np.ndarray | None, window: range
) -> list:
    """The outcomes of the restarts in window, each a _pattern_search, run
    in lockstep.

    While two or more are live, each pass scores the next move of every
    one at once: their grid values, one row each, plus s times the column
    of the coefficient each moves, then one maximum of the magnitudes per
    row.  The last one left runs alone (_run_alone).  Everything else (the
    l_p numerator, the strict >, the step halving and the budget) is each
    restart's own, so every restart takes the path it would take alone.
    """
    outcomes: list = [None] * len(window)
    live, rows, columns, steps = [], [], [], []  # live holds (k, coroutine)
    for k, r in enumerate(window):
        start = _start_vector(cfg, indices, r)
        values = _grid_values(table, indices, start)
        restart = _pattern_search(cfg, indices, table, start, values)
        try:
            column, s, _ = next(restart)
        except StopIteration as stop:
            outcomes[k] = stop.value
            continue
        live.append((k, restart))
        rows.append(values)
        columns.append(column)
        steps.append(s)
    values, batch = np.array(rows), None
    # A non-finite grid value raises in _peak_score; numpy's warning is not
    # wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        while len(live) > 1:
            if batch is None:
                batch = np.array(columns)
            candidates = values + np.array(steps)[:, None] * batch
            peaks = np.abs(candidates).max(axis=1).tolist()
            kept = []
            for row, ((k, restart), peak) in enumerate(zip(live, peaks)):
                try:
                    column, steps[row], accepted = restart.send(peak)
                except StopIteration as stop:
                    outcomes[k] = stop.value
                    continue
                kept.append(row)
                if accepted:
                    values[row] = candidates[row]
                if column is not columns[row]:
                    columns[row], batch = column, None
            if len(kept) < len(live):
                live, columns, steps = ([x[row] for row in kept] for x in (live, columns, steps))
                values, batch = values[kept], None
        if live:
            k, restart = live[0]
            outcomes[k] = _run_alone(restart, values[0], columns[0], steps[0])
    return outcomes


def _rounding_slack(m: int, num_vars: int, grid: int, mags: list[float], peak: float) -> float:
    """kappa with bh_ratio(P, grid).estimate <= score * (1 + kappa), where
    P has the real coefficients of magnitudes mags, peak is the maximum
    magnitude of their fresh grid values (_grid_values) and score =
    ||c||_p / peak; inf where the bound below gives nothing.

    The estimate is ||c||_p / L.  Its numerator is the score's, bit for
    bit: both are _lp_norm of the same magnitudes, zeros aside, which
    fsum adds exactly.  Its denominator L is sup_norm's lower estimate,
    at least fl|P.evaluate| at the argmax of torus_grid_max, since
    sup_norm reports no value below that one.  With ||c||_1
    the sum of mags, E = supnorm._rounding_bound(m, N, n, K, ||c||_1)
    bounds the rounding of peak, of that argmax and of P.evaluate there
    (N the number of coefficients, n = num_vars, K = grid, u = 2^-53),
    so L >= peak - E = peak (1 - delta), delta = E / peak.  For
    delta < 1/2, 1 / (1 - delta) <= 1 + 2 delta, and the four roundings
    (the two quotients, 1 + kappa and its product with the score) add
    less than 8u; kappa = 2 delta + 16u covers them.  For delta >= 1/2, a
    peak that is not finite, or a zero vector, kappa is inf.
    """
    error = _rounding_bound(m, len(mags), num_vars, grid, sum(mags))
    if not (math.isfinite(peak) and error < 0.5 * peak):
        return math.inf
    return 2.0 * error / peak + 16.0 * 2.0**-53


def _cannot_win(cfg: SearchConfig, vec: np.ndarray, peak: float, best_estimate: float) -> bool:
    """Whether vec's estimate is at most best_estimate, by its grid score
    times 1 + kappa (see _rounding_slack), without a sup-norm bracket;
    peak is the maximum magnitude of vec's fresh grid values."""
    mags = np.abs(vec).tolist()
    kappa = _rounding_slack(cfg.m, cfg.num_vars, cfg.grid, mags, peak)
    return (
        kappa < math.inf
        and _lp_norm(mags, bh_exponent(cfg.m)) / peak * (1.0 + kappa) <= best_estimate
    )


def search(cfg: SearchConfig) -> WitnessCertificate:
    """Multi-restart pattern search; returns the best certificate found.

    Restarts are independent (restart r owns generator rng_seed + r and
    its own eval budget), so each takes the same path whatever window it
    runs in.  They run in lockstep windows of
    w = max(1, _LOCKSTEP_POINTS // K^(num_vars - 1)) restarts, one window
    after another (_run_window); a window's arrays hold at most
    max(_LOCKSTEP_POINTS, K^(num_vars - 1)) grid values, so memory does
    not grow with cfg.restarts.  A restart's start and final vectors are
    its finalists, merged in restart order, start first: the merge keeps
    the largest bh_ratio(P, cfg.grid).estimate, ties broken by the
    earliest finalist, and holds only the best one so far.  A finalist
    whose grid score times 1 + kappa (_rounding_slack) is at most the
    best estimate so far cannot win and is skipped: its bh_ratio is never
    called, so nothing bh_ratio would raise for it is raised; the first
    finalist whose bh_ratio raises ends the search with that error.
    Restart 0 starts from the family seed and its start is always scored,
    so the result is never below the family's ratio.  The estimate is the
    merge key because it is the quantity the seeded floor guarantees; the
    certified value is reported alongside it in the certificate.
    """
    table = _phase_table(cfg.m, cfg.grid) if cfg.num_vars >= 2 else None
    indices = degree_multi_indices(cfg.m, cfg.num_vars)
    width = max(1, _LOCKSTEP_POINTS // cfg.grid ** (cfg.num_vars - 1))
    best: tuple[float, int, HomogeneousPolynomial] | None = None
    for first in range(0, cfg.restarts, width):
        window = range(first, min(first + width, cfg.restarts))
        for r, (start, start_peak, final) in zip(window, _run_window(cfg, indices, table, window)):
            finalists = [(start, start_peak)]
            if final is not start:
                finalists.append((final, float(np.abs(_grid_values(table, indices, final)).max())))
            for vec, peak in finalists:
                if best is not None and _cannot_win(cfg, vec, peak, best[0]):
                    continue
                poly = _vector_to_polynomial(cfg.m, cfg.num_vars, indices, vec)
                estimate = bh_ratio(poly, cfg.grid).estimate
                if best is None or estimate > best[0]:  # strict > keeps the earliest
                    best = (estimate, r, poly)
    _, index, poly = best  # set by restart 0, as restarts >= 1
    return certify(poly, cfg.grid, search_config=cfg, restart_index=index)


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
