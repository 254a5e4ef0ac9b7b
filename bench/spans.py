"""Span tracing from outside the program, for the benchmark's traced run.

Tracer.install replaces public names in the namespaces of the modules that
call them (and two methods of HomogeneousPolynomial) with timing wrappers;
Tracer.restore puts the originals back.  Each span records its name, start,
end, parent span and op id; spans stay in memory until the run ends.  A
span's self time is its duration minus the time its child spans cover.

Some wrappers also read the values a layer returns, which the program does
not report itself yet: grid points and the grid maximum, refine sweeps and
convergence, and the Lipschitz slack of each bracket.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import bhbounds
from bhbounds.poly import HomogeneousPolynomial

# The package re-exports a function named search, which shadows the module
# of that name as an attribute, so the modules are looked up by name.
cli, family, search, supnorm = (
    importlib.import_module(f"bhbounds.{name}") for name in ("cli", "family", "search", "supnorm")
)

# search.evals and search.zero_candidates are taken over this many leading
# traced ops, so they repeat exactly for a seed however many ops a run
# completes.
COUNT_PREFIX_OPS = 2


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_ns", "error", "attrs")

    def __init__(self, name: str, start: int, parent: "Span | None", op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_ns = 0
        self.error = None
        self.attrs = None

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def note(self, key: str, value) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value


def active_axes(P) -> int:
    """Number of axes whose exponent varies across terms: the grid's rank."""
    alphas = list(P.terms)
    if len(alphas) <= 1:
        return 0
    return sum(1 for j in range(P.num_vars) if len({a[j] for a in alphas}) > 1)


def _on_grid(span: Span, args, kwargs, result) -> None:
    P, K = args[0], args[1] if len(args) > 1 else kwargs["K"]
    span.note("points", K ** active_axes(P) if not P.is_zero else 0)
    if span.parent is not None:
        span.parent.note("grid_value", result[0])


def _on_refine(span: Span, args, kwargs, result) -> None:
    span.note("sweeps", result.sweeps)
    span.note("converged", result.converged)
    grid_value = span.parent.attrs.get("grid_value") if span.parent and span.parent.attrs else None
    if grid_value:
        span.note("gain", (result.value - grid_value) / grid_value)


def _on_sup_norm(span: Span, args, kwargs, result) -> None:
    grid_value = span.attrs.get("grid_value") if span.attrs else None
    if grid_value:
        span.note("slack_rel", (result.upper_bracket - grid_value) / grid_value)


# (owner, attribute, span name, hook on return)
_TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "load_polynomial", "poly.load_polynomial", None),
    (cli, "certify", "search.certify", None),
    (cli, "search", "search.search", None),
    (cli, "certificate_json", "search.certificate_json", None),
    (bhbounds, "certify", "search.certify", None),
    (bhbounds, "lower_bound", "family.closed_form", None),
    (bhbounds, "upper_bound", "family.closed_form", None),
    (search, "bh_ratio", "family.bh_ratio", None),
    (search, "certify", "search.certify", None),
    (search, "sup_norm", "supnorm.sup_norm", _on_sup_norm),
    (search, "coefficient_lp_norm", "poly.coefficient_lp_norm", None),
    (family, "sup_norm", "supnorm.sup_norm", _on_sup_norm),
    (family, "coefficient_lp_norm", "poly.coefficient_lp_norm", None),
    (supnorm, "torus_grid_max", "supnorm.torus_grid_max", _on_grid),
    (supnorm, "refine_local", "supnorm.refine_local", _on_refine),
    (supnorm, "torus_lipschitz_bound", "supnorm.torus_lipschitz_bound", None),
    (HomogeneousPolynomial, "__init__", "poly.HomogeneousPolynomial", None),
    (HomogeneousPolynomial, "evaluate", "poly.evaluate", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches = [
            (owner, attr, getattr(owner, attr), self._wrap(getattr(owner, attr), name, hook))
            for owner, attr, name, hook in _TARGETS
        ]

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.op)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start
        self.spans.append(span)

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines, parents as indices into the file."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                row = {
                    "name": s.name,
                    "start_ns": s.start,
                    "end_ns": s.end,
                    "parent": index.get(id(s.parent)),
                    "op": s.op,
                }
                if s.error:
                    row["error"] = s.error
                if s.attrs:
                    row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


_UNITS = {
    "supnorm.grid_points": "count",
    "supnorm.grid_points_per_s": "1/s",
    "supnorm.refine_sweeps": "sweeps/call",
    "supnorm.refine_converged_ratio": "ratio",
    "supnorm.refine_gain": "ratio",
    "supnorm.slack_rel": "ratio",
    "search.evals": "count",
    "search.zero_candidates": "count",
}


def unit_of(name: str) -> str:
    for suffix, unit in ((".self_ms", "ms"), (".self_us", "us"), (".calls", "count")):
        if name.endswith(suffix):
            return unit
    return _UNITS[name]


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `ops` traced operations.

    Times and calls are per op; refine sweeps are per refine call; the
    gain and slack ratios are means over the calls that produced them.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += s.self_ns

    def per_op_ms(name: str) -> float:
        return self_ns[name] / 1e6 / ops

    def attr(name: str, key: str) -> list:
        return [s.attrs[key] for s in spans if s.name == name and s.attrs and key in s.attrs]

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    grid_points = sum(attr("supnorm.torus_grid_max", "points"))
    grid_s = self_ns["supnorm.torus_grid_max"] / 1e9
    leading = set(sorted({s.op for s in spans if s.op is not None})[:COUNT_PREFIX_OPS])
    prefix = [s for s in spans if s.op in leading]
    prefix_searches = sum(1 for s in prefix if s.name == "search.search")
    prefix_evals = [s for s in prefix if s.name == "family.bh_ratio"]

    names = (
        "cli.main", "poly.load_polynomial", "poly.HomogeneousPolynomial", "poly.evaluate",
        "poly.coefficient_lp_norm", "supnorm.torus_grid_max", "supnorm.refine_local",
        "supnorm.sup_norm", "supnorm.torus_lipschitz_bound", "family.bh_ratio",
        "search.search", "search.certify", "search.certificate_json",
    )
    metrics = {f"{name}.self_ms": per_op_ms(name) for name in names}
    for name in ("poly.HomogeneousPolynomial", "poly.evaluate", "supnorm.torus_grid_max",
                 "supnorm.refine_local", "family.bh_ratio"):
        metrics[f"{name}.calls"] = calls[name] / ops
    metrics.update({
        "family.closed_form.self_us": self_ns["family.closed_form"] / 1e3 / ops,
        "supnorm.grid_points": grid_points / ops,
        "supnorm.grid_points_per_s": grid_points / grid_s if grid_s else 0.0,
        "supnorm.refine_sweeps": mean(attr("supnorm.refine_local", "sweeps")),
        "supnorm.refine_converged_ratio": mean(attr("supnorm.refine_local", "converged")),
        "supnorm.refine_gain": mean(attr("supnorm.refine_local", "gain")),
        "supnorm.slack_rel": mean(attr("supnorm.sup_norm", "slack_rel")),
        "search.evals": len(prefix_evals) / prefix_searches if prefix_searches else 0.0,
        "search.zero_candidates": (
            sum(1 for s in prefix_evals if s.error == "ZeroPolynomialError") / prefix_searches
            if prefix_searches else 0.0
        ),
    })
    return metrics
