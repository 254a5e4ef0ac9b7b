"""The benchmark's three workloads: seeded inputs, one operation, its check.

Every workload is a closed loop with a single client: the next operation
starts only after the previous one has returned and been checked.  Inputs
are generated here from the workload seed alone (the program receives
only the generated inputs), and every check is an independent property of
the output, cheap next to the operation it checks:

* ``ratio-n3``       -- ``bhbounds ratio --file P.json`` through ``cli.main``
                        on random 3-variable polynomials (grid-bound);
* ``search-m2n2``    -- ``bhbounds search --m 2 --n 2`` through ``cli.main``
                        with the default configuration (refine-bound);
* ``family-witness`` -- ``certify(build_witness(m, FamilyParams(a, b, c)))``
                        through the library, checked against the closed-form
                        sup norm (thousands of tiny calls).

Only stable public entry points are called, and never with a thread or
chunk setting, so scheduling knobs can be removed without breaking this.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import bhbounds
from bhbounds import cli

# Relative rounding allowance for values printed by the CLI at 12
# significant digits.
_PRINT_REL = 1e-11


class CheckFailure(Exception):
    """An operation's output violates a property it must satisfy."""


@dataclass(frozen=True)
class Quality:
    """The bracket an operation produced: sup-norm lower estimate and upper
    bracket, and the certified and estimated coefficient-to-sup ratios."""

    sup_lower: float
    sup_upper: float
    certified: float
    estimate: float

    @property
    def bracket_rel_width(self) -> float:
        return (self.sup_upper - self.sup_lower) / self.sup_lower


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _reject_constant(token: str) -> float:
    raise CheckFailure(f"non-finite JSON constant {token}")


def _parse_stdout(rc: int, stdout: str) -> dict:
    """Exit 0 and a JSON object whose numeric fields are all finite."""
    _require(rc == 0, f"exit code {rc}")
    try:
        doc = json.loads(stdout, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"stdout is not JSON: {exc}") from exc
    _require(isinstance(doc, dict), "stdout is not a JSON object")
    for key, value in doc.items():
        if isinstance(value, float):
            _require(math.isfinite(value), f"field {key} is not finite")
    return doc


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with stdout captured and stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


# --- ratio-n3 ----------------------------------------------------------------

# About as many as a run completes, so medians are mostly over distinct
# inputs; a multiple of 3, so every degree is equally represented.
RATIO_POLYS = 510
RATIO_DEGREES = (3, 4, 5)
RATIO_PRESENT = 0.7


@dataclass(frozen=True)
class PolySpec:
    """A generated polynomial: degree m on 3 variables, sparse terms."""

    m: int
    terms: tuple[tuple[tuple[int, ...], float, float], ...]  # (alpha, re, im)

    def document(self) -> str:
        doc = {
            "m": self.m,
            "n": 3,
            "terms": [{"alpha": list(a), "re": re, "im": im} for a, re, im in self.terms],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def coeff_norm(self, p: float) -> float:
        return math.fsum(math.hypot(re, im) ** p for _, re, im in self.terms) ** (1.0 / p)


def _monomials(m: int, n: int) -> list[tuple[int, ...]]:
    return sorted(
        alpha for alpha in itertools.product(range(m + 1), repeat=n) if sum(alpha) == m
    )


def generate_polys(seed: int) -> list[PolySpec]:
    """RATIO_POLYS random n=3 polynomials; degrees 3, 4, 5 in turn, so every
    run's ops are balanced over them whatever their count; round(70%) of the
    monomials present, coefficients uniform in [-2, 2]^2."""
    rng = random.Random(f"ratio-n3:{seed}")
    polys = []
    for i in range(RATIO_POLYS):
        m = RATIO_DEGREES[i % len(RATIO_DEGREES)]
        monomials = _monomials(m, 3)
        chosen = sorted(rng.sample(monomials, round(RATIO_PRESENT * len(monomials))))
        terms = tuple((a, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for a in chosen)
        polys.append(PolySpec(m, terms))
    return polys


def check_ratio(spec: PolySpec, rc: int, stdout: str) -> Quality:
    doc = _parse_stdout(rc, stdout)
    _require((doc.get("m"), doc.get("n")) == (spec.m, 3), "wrong degree or variables")
    _require(doc.get("grid") == 64, f"grid {doc.get('grid')} is not the default 64")
    lower, upper = doc["supnorm_lower"], doc["supnorm_upper"]
    _require(0 < lower <= upper, "sup-norm bracket is empty or not positive")
    # Parseval: the l2 coefficient norm is the L2 norm on the torus <= ||P||.
    _require(
        spec.coeff_norm(2.0) <= upper * (1 + _PRINT_REL),
        "upper bracket below the l2 coefficient norm",
    )
    # Triangle inequality: ||P|| <= l1 coefficient norm.
    _require(
        lower <= spec.coeff_norm(1.0) * (1 + 1e-12),
        "lower estimate above the l1 coefficient norm",
    )
    _require(
        doc["certified"] <= bhbounds.upper_bound(spec.m),
        "certified ratio above the hypercontractive upper bound",
    )
    return Quality(lower, upper, doc["certified"], doc["estimate"])


class RatioN3:
    name = "ratio-n3"

    def __init__(self, seed: int, workdir: Path):
        self.specs = generate_polys(seed)
        self.paths = []
        for i, spec in enumerate(self.specs):
            path = workdir / f"poly-{i:03d}.json"
            path.write_text(spec.document())
            self.paths.append(str(path))

    def inputs_bytes(self) -> bytes:
        return b"".join(Path(p).read_bytes() for p in self.paths)

    def warm_up(self) -> None:
        self.check(0, self.run(0))

    def run(self, i: int) -> tuple[int, str]:
        return _run_cli(["ratio", "--file", self.paths[i % len(self.paths)]])

    def check(self, i: int, outcome: tuple[int, str]) -> Quality:
        return check_ratio(self.specs[i % len(self.specs)], *outcome)


# --- search-m2n2 -------------------------------------------------------------

SEARCH_SEEDS = 64


def generate_search_seeds(seed: int) -> list[int]:
    rng = random.Random(f"search-m2n2:{seed}")
    return [rng.randrange(1 << 31) for _ in range(SEARCH_SEEDS)]


def check_search(rc: int, stdout: str, cert_path: str) -> Quality:
    _parse_stdout(rc, stdout)
    written = Path(cert_path).read_text()
    try:
        cert = bhbounds.load_certificate(cert_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailure(f"certificate does not load: {exc}") from exc
    _require(
        bhbounds.certificate_json(cert) == written,
        "certificate does not re-serialise to the bytes written",
    )
    # Restart 0 starts from the family witness, so the search can never end
    # below the closed-form bound; full precision, not the printed digits.
    _require(
        cert.estimate >= bhbounds.lower_bound(2) - 1e-12,
        "estimate below the closed-form family bound for m=2",
    )
    _require(cert.certified_lower <= cert.estimate, "certified value above estimate")
    return Quality(
        cert.supnorm.lower_estimate,
        cert.supnorm.upper_bracket,
        cert.certified_lower,
        cert.estimate,
    )


class SearchM2N2:
    name = "search-m2n2"

    def __init__(self, seed: int, workdir: Path):
        self.seeds = generate_search_seeds(seed)
        self.cert_path = str(workdir / "certificate.json")
        self.warm_path = str(workdir / "warm-up.json")
        (workdir / "search-seeds.json").write_text(json.dumps(self.seeds) + "\n")

    def inputs_bytes(self) -> bytes:
        return json.dumps(self.seeds).encode()

    def warm_up(self) -> None:
        # A one-restart, short-budget search exercises the whole path
        # (search, certify, certificate write) at a fraction of an op.
        rc, _ = _run_cli(
            ["search", "--m", "2", "--n", "2", "--seed", str(self.seeds[0]),
             "--restarts", "1", "--budget", "20", "--out", self.warm_path]
        )
        _require(rc == 0, f"warm-up search exited {rc}")

    def run(self, i: int) -> tuple[int, str]:
        seed = self.seeds[i % len(self.seeds)]
        return _run_cli(
            ["search", "--m", "2", "--n", "2", "--seed", str(seed), "--out", self.cert_path]
        )

    def check(self, i: int, outcome: tuple[int, str]) -> Quality:
        return check_search(*outcome, self.cert_path)


# --- family-witness ----------------------------------------------------------

FAMILY_DEGREES = range(2, 17)
FAMILY_DRAWS = 273 * len(FAMILY_DEGREES)  # every degree equally represented
FAMILY_TOL = 1e-6


@dataclass(frozen=True)
class FamilyDraw:
    m: int
    a: float
    b: float
    c: float


def generate_family(seed: int) -> list[FamilyDraw]:
    """Valid draws: ab < 0 and |c(a+b)| <= 4|ab|; m takes 2..16 in turn."""
    rng = random.Random(f"family-witness:{seed}")
    draws = []
    for i in range(FAMILY_DRAWS):
        m = FAMILY_DEGREES[i % len(FAMILY_DEGREES)]
        sign = rng.choice((1.0, -1.0))
        a = sign * rng.uniform(0.25, 2.0)
        b = -sign * rng.uniform(0.25, 2.0)
        c_max = 4.0 if a + b == 0 else min(4.0, 4.0 * abs(a * b) / abs(a + b))
        c = rng.uniform(-c_max, c_max) * 0.999
        draws.append(FamilyDraw(m, a, b, c))
    return draws


def check_family(draw: FamilyDraw, cert) -> Quality:
    exact = bhbounds.quadratic_sup_norm(draw.a, draw.b, draw.c)
    sup = cert.supnorm
    _require(
        abs(sup.lower_estimate - exact) <= FAMILY_TOL,
        f"lower estimate {sup.lower_estimate!r} is not the closed form {exact!r}",
    )
    _require(sup.upper_bracket >= exact, "upper bracket below the closed form")
    _require(
        cert.certified_lower <= bhbounds.upper_bound(draw.m),
        "certified ratio above the hypercontractive upper bound",
    )
    return Quality(sup.lower_estimate, sup.upper_bracket, cert.certified_lower, cert.estimate)


class FamilyWitness:
    name = "family-witness"

    def __init__(self, seed: int, workdir: Path):
        self.draws = generate_family(seed)

    def inputs_bytes(self) -> bytes:
        return repr(self.draws).encode()

    def warm_up(self) -> None:
        for i in range(16):
            self.check(i, self.run(i))

    def run(self, i: int):
        d = self.draws[i % len(self.draws)]
        return bhbounds.certify(bhbounds.build_witness(d.m, bhbounds.FamilyParams(d.a, d.b, d.c)))

    def check(self, i: int, cert) -> Quality:
        return check_family(self.draws[i % len(self.draws)], cert)


WORKLOADS = {w.name: w for w in (RatioN3, SearchM2N2, FamilyWitness)}
