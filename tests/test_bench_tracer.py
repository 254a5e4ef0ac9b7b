"""The benchmark's tracer wraps public names of the package by attribute.

bench/spans.py looks each one up when a Tracer is built, so a renamed or
deleted attribute breaks every traced benchmark run (`bench/run.py
--trace 1`).  This loads the tracer from its file, as the benchmark does,
and builds one.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_tracer_finds_every_wrapped_attribute():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.Tracer()  # looks up every wrapped attribute; raises if one is gone
