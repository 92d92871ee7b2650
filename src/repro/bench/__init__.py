"""Benchmark harness: experiment drivers for every paper table and figure.

Each function in :mod:`repro.bench.experiments` regenerates one table or
figure of the paper's §VII and checks the paper's claims about it;
:mod:`repro.bench.harness` wires methods, datasets and ground truths
together; :mod:`repro.bench.reporting` renders the monospace tables that
``repro experiment`` prints.
"""

from repro.bench.harness import (
    BenchContext,
    MethodResult,
    bench_context,
    method_names,
    run_method,
)
from repro.bench.metrics import jaccard, relative_error
from repro.bench.plots import Series, bar_chart, line_chart
from repro.bench.reporting import render_table

__all__ = [
    "BenchContext",
    "MethodResult",
    "bench_context",
    "method_names",
    "run_method",
    "relative_error",
    "jaccard",
    "render_table",
    "Series",
    "bar_chart",
    "line_chart",
]
