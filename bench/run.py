"""Run one benchmark workload against the bhbounds sources in this checkout.

    python3 bench/run.py --workload ratio-n3 --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ratio-n3, search-m2n2, family-witness.  Each
runs as a closed loop with one client in this one process, so a run's peak
memory is the workload's own.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 alternates untraced and traced ops over --seconds and reports the
per-layer metrics (from the traced ops) plus ops/s of each mode side by
side.  Spans go to .bench_out/trace-<workload>-seed<seed>.jsonl.gz.

Human-readable lines come first on stdout; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
only if every operation passed its check.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("ratio-n3", "search-m2n2", "family-witness")


def _import_program() -> None:
    """Import bhbounds from this checkout's src/, never from elsewhere."""
    package = SRC / "bhbounds"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no bhbounds sources at {package}")
    sys.path.insert(0, str(SRC))
    import bhbounds

    if Path(bhbounds.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported bhbounds from {bhbounds.__file__}, not {package}")


def _fresh_import() -> None:
    """A new interpreter imports the package, as every CLI call does."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import bhbounds",
         str(SRC)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )


def set_up(cls, seed: int, workdir: Path):
    """SETUP_REPEATS full set-ups (import, inputs, warm-up); the median time.

    Every repeat must generate byte-identical inputs from the same seed.
    """
    times = []
    reference = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_import()
        workload = cls(seed, workdir)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
        inputs = workload.inputs_bytes()
        if reference is None:
            reference = inputs
        elif inputs != reference:
            raise RuntimeError(f"seed {seed} generated different inputs on a repeat")
    return workload, statistics.median(times)


@dataclass
class Loop:
    """The ops of one mode (untraced or traced) of a closed-loop run."""

    busy_s: float = 0.0  # time inside this mode's ops and their checks
    attempted: int = 0
    failures: list = field(default_factory=list)
    # Per verified op, in flat arrays so the harness's own memory stays small
    # next to the program's peak RSS.
    latencies_ms: array.array = field(default_factory=lambda: array.array("d"))
    bracket_rel_width: array.array = field(default_factory=lambda: array.array("d"))
    certified: array.array = field(default_factory=lambda: array.array("d"))
    estimate: array.array = field(default_factory=lambda: array.array("d"))

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ms) / self.busy_s


def run_loop(workload, seconds: float, failure_type, tracer=None) -> list[Loop]:
    """Ops 0, 1, 2, ... back to back until the next would end past `seconds`.

    The first op of each mode always runs.  Only the op itself is timed for
    its latency; ops_per_s divides by the time in ops and their checks.
    With a tracer, odd ops run traced and go to a second Loop, so both modes
    are measured over the same stretch of machine time.
    """
    loops = [Loop()] if tracer is None else [Loop(), Loop()]
    start = time.perf_counter()
    i = 0
    while i < len(loops) or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        loop = loops[i % len(loops)]
        traced = loop is not loops[0]
        if traced:
            tracer.install()
            tracer.op = i
            root = tracer.open("op")
        t0 = time.perf_counter_ns()
        try:
            outcome = workload.run(i)
        except Exception:  # an op that raises is a failed op, not a crashed run
            outcome = None
            loop.failures.append((i, traceback.format_exc()))
        finally:
            if traced:
                tracer.close(root)
        latency_ms = (time.perf_counter_ns() - t0) / 1e6
        loop.attempted += 1
        if outcome is not None:
            try:
                quality = workload.check(i, outcome)
            except failure_type as exc:
                loop.failures.append((i, f"check failed: {exc}"))
            else:
                loop.latencies_ms.append(latency_ms)
                loop.bracket_rel_width.append(quality.bracket_rel_width)
                loop.certified.append(quality.certified)
                loop.estimate.append(quality.estimate)
        loop.busy_s += (time.perf_counter_ns() - t0) / 1e9
        if traced:
            tracer.op = None
            tracer.restore()
        i += 1
    return loops


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (loop.ops_per_s, "1/s"),
        "op_p90_ms": (_p90(loop.latencies_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "bracket_rel_width": (statistics.median(loop.bracket_rel_width), "ratio"),
        "certified_ratio": (statistics.median(loop.certified), "ratio"),
        "search_estimate": (statistics.median(loop.estimate), "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        workload, setup_s = set_up(cls, args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        loops = run_loop(workload, args.seconds, workloads.CheckFailure, tracer)
        if not all(loop.latencies_ms for loop in loops):
            metrics = {}  # some mode has no verified op to measure
        elif args.trace:
            plain, traced = loops
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_path)
            values = spans.layer_metrics(tracer.spans, traced.attempted)
            metrics = {name: (value, spans.unit_of(name)) for name, value in values.items()}
            metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s, "1/s")
            metrics["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
            metrics["trace.overhead"] = (plain.ops_per_s / traced.ops_per_s - 1, "ratio")
        else:
            metrics = end_to_end_metrics(loops[0], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for i, message in failures[:5]:
        print(f"op {i} failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for loop in loops:
        # op_p50_ms is printed but carries no bound: the host switches between
        # speed states lasting seconds, so with sub-millisecond ops the median
        # lands in whichever state held most ops and jumps between runs.
        lat = loop.latencies_ms
        p50, p90 = (statistics.median(lat), _p90(lat)) if lat else (0.0, 0.0)
        beyond = sum(1 for x in lat if x > p90)
        print(f"  samples {len(lat)} ({beyond} beyond p90)  op_p50_ms {p50:.6g} ms  "
              f"attempted {loop.attempted}  busy {loop.busy_s:.3f} s")
    print(f"  fail_ratio {len(failures) / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if args.trace and metrics:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
