"""Batch command-line front door.

Subcommands: bounds, ratio, verify-family, search, fm-curve.  Everything
on stdout is machine-parseable (CSV or JSON) with floats at 12
significant digits, except the bounds CSV, at 9; human prose goes to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .family import (
    _MAX_WEIGHT_DEGREE,
    bh_ratio,
    bounds_table,
    bounds_table_csv,
    build_witness,
    certify,
    FamilyParams,
    family_ratio,
    lower_bound,
    optimal_x,
)
from .poly import load_polynomial
# bench/spans.py wraps cli.certificate_json.
from .search import SearchConfig, certificate_json, save_certificate, search  # noqa: F401
from .supnorm import DEFAULT_GRID

VERIFY_TOLERANCE = 1e-6

# Most rows fm-curve samples; more is refused before anything is allocated.
MAX_CURVE_POINTS = 1 << 20


def _sig12(x: float) -> float:
    """Round a float to 12 significant digits for stable JSON output."""
    return float(f"{x:.12g}")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_bounds(args) -> int:
    rows = bounds_table(args.m_min, args.m_max)
    if args.format == "csv":
        sys.stdout.write(bounds_table_csv(rows))
    else:
        _print_json(
            [
                {name: _sig12(v) if isinstance(v, float) else v for name, v in asdict(row).items()}
                for row in rows
            ]
        )
    return 0


def cmd_ratio(args) -> int:
    P = load_polynomial(args.file)
    cert = certify(P, args.grid)
    _print_json(
        {
            "m": P.degree,
            "n": P.num_vars,
            "coeff_norm": _sig12(cert.coeff_norm),
            "estimate": _sig12(cert.estimate),
            "certified": _sig12(cert.certified_lower),
            "supnorm_lower": _sig12(cert.supnorm.lower_estimate),
            "supnorm_upper": _sig12(cert.supnorm.upper_bracket),
            "grid": cert.supnorm.grid_used,
            "converged": cert.supnorm.converged,
        }
    )
    return 0


def cmd_verify_family(args) -> int:
    if args.m_max < 2:
        raise ValueError(f"--to must be >= 2, got {args.m_max}")
    lines = ["m,status,estimate,expected,abs_error"]
    all_pass = True
    for m in range(2, args.m_max + 1):
        witness = build_witness(m, FamilyParams(1.0, -1.0, optimal_x(m)))
        estimate = bh_ratio(witness, args.grid).estimate
        expected = lower_bound(m)
        err = abs(estimate - expected)
        ok = err <= VERIFY_TOLERANCE
        all_pass &= ok
        lines.append(
            f"{m},{'PASS' if ok else 'FAIL'},{estimate:.12g},{expected:.12g},{err:.3g}"
        )
        if not ok:
            print(
                f"m={m}: pipeline estimate {estimate:.12g} differs from the closed "
                f"form {expected:.12g} by {err:.3g} (> {VERIFY_TOLERANCE}); the grid "
                f"may be too coarse to locate the maximizer, try a larger --grid",
                file=sys.stderr,
            )
    print("\n".join(lines))
    return 0 if all_pass else 1


def cmd_fm_curve(args) -> int:
    if args.m < 2:
        raise ValueError(f"--m must be >= 2, got {args.m}")
    if not (0 < args.xmin <= args.xmax and math.isfinite(args.xmax)):
        raise ValueError(f"need finite 0 < xmin <= xmax, got [{args.xmin}, {args.xmax}]")
    if not 1 <= args.points <= MAX_CURVE_POINTS:
        raise ValueError(f"--points must be in [1, {MAX_CURVE_POINTS}], got {args.points}")
    xs = list(np.logspace(math.log10(args.xmin), math.log10(args.xmax), args.points))
    # Above _MAX_WEIGHT_DEGREE the optimum is past every finite --xmax.
    x_star = optimal_x(args.m) if args.m <= _MAX_WEIGHT_DEGREE else math.inf
    marked = [(x, 0) for x in xs]
    if args.xmin <= x_star <= args.xmax:
        marked.append((x_star, 1))
        marked.sort(key=lambda pair: pair[0])
    lines = ["x,f,optimal"]
    for x, is_opt in marked:
        lines.append(f"{x:.12g},{family_ratio(args.m, x):.12g},{is_opt}")
    print("\n".join(lines))
    return 0


def cmd_search(args) -> int:
    cfg = SearchConfig(
        m=args.m,
        num_vars=args.n,
        restarts=args.restarts,
        rng_seed=args.seed,
        eval_budget=args.budget,
        grid=args.grid,
    )
    cert = search(cfg)
    out_path = args.out or f"bh-cert-m{args.m}-n{args.n}-seed{args.seed}.json"
    save_certificate(cert, out_path)
    _print_json(
        {
            "m": args.m,
            "n": args.n,
            "estimate": _sig12(cert.estimate),
            "certified_lower": _sig12(cert.certified_lower),
            "coeff_norm": _sig12(cert.coeff_norm),
            "supnorm_lower": _sig12(cert.supnorm.lower_estimate),
            "supnorm_upper": _sig12(cert.supnorm.upper_bracket),
            "restart_index": cert.restart_index,
            "certificate": out_path,
        }
    )
    print(f"certificate written to {out_path}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and never changes it."""
    parser = argparse.ArgumentParser(
        prog="bhbounds",
        description=(
            "Bounds for the polynomial Bohnenblust-Hille constants and "
            "certified witness ratios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="table of lower/upper bounds per degree")
    p_bounds.add_argument("--from", dest="m_min", type=int, required=True)
    p_bounds.add_argument("--to", dest="m_max", type=int, required=True)
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.set_defaults(func=cmd_bounds)

    p_ratio = sub.add_parser("ratio", help="ratio of one polynomial from a JSON file")
    p_ratio.add_argument("--file", required=True)
    p_ratio.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_ratio.set_defaults(func=cmd_ratio)

    p_verify = sub.add_parser(
        "verify-family",
        help="check the numerical pipeline against the closed-form bounds",
    )
    p_verify.add_argument("--to", dest="m_max", type=int, required=True)
    p_verify.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_verify.set_defaults(func=cmd_verify_family)

    p_curve = sub.add_parser("fm-curve", help="sample the family ratio curve as CSV")
    p_curve.add_argument("--m", type=int, required=True)
    p_curve.add_argument("--xmin", type=float, default=1e-3)
    p_curve.add_argument("--xmax", type=float, default=1e3)
    p_curve.add_argument("--points", type=int, default=200)
    p_curve.set_defaults(func=cmd_fm_curve)

    p_search = sub.add_parser("search", help="search coefficient space for witnesses")
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--restarts", type=int, default=32)
    p_search.add_argument("--budget", type=int, default=200)
    p_search.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the one place where an input error becomes a
    single "error:" line on stderr and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # PolynomialFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
