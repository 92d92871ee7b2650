"""The layer boundaries the traced pass wraps, and the per-layer metrics.

Every name in ``BENCHMARK.json``'s ``per_layer`` list is produced by
:func:`layer_metrics`; ``README.md`` says which end-to-end metric each
one is expected to move, and on which workload.
"""

from __future__ import annotations

import statistics
import time

from repro import format_query, parse_query

from benchmarks.ledger.spans import Target, self_seconds


def _seed_of_initialise(tracer, args, kwargs, state):
    seed = args[2] if len(args) > 2 else kwargs.get("seed")
    if state is not None:
        tracer.states[id(state)] = (state, seed)
    return seed


def _seed_of_state(tracer, args, kwargs, _result):
    state = args[1] if len(args) > 1 else kwargs.get("state")
    return tracer.states.get(id(state), (None, None))[1]


def _seed_of_submit(_tracer, _args, kwargs, _result):
    return kwargs.get("seed")


_EXECUTOR = ("repro.core.executor", "QueryExecutor")
#: executor entry points that take the query's state as first argument
_STATE_STEPS = (
    "step", "step_grouped", "step_extreme",
    "grow", "grow_grouped", "grow_extreme",
    "finalise", "finalise_grouped", "finalise_extreme",
)

TARGETS: list[Target] = [
    Target("kg.csr_snapshot", "repro.kg.csr", "csr_snapshot"),
    Target("kg.csr_build", "repro.kg.csr", "build_csr"),
    Target(
        "embedding.similarity_row",
        "repro.embedding.predicate_space", "similarity_row",
        owner="PredicateVectorSpace",
    ),
    Target("planner.plan", "repro.core.planner", "plan_for", owner="QueryPlanner"),
    Target("sampling.scope", "repro.sampling.scope", "build_scope"),
    Target(
        "sampling.stationary", "repro.sampling.stationary", "stationary_distribution"
    ),
    Target(
        "sampling.draw", "repro.sampling.collector", "collect_indices",
        owner="AnswerCollector",
        count=lambda args, kwargs, result: len(result),
    ),
    Target(
        "semantics.validate", "repro.semantics.validation", "validate_batch",
        owner="CorrectnessValidator",
        count=lambda args, kwargs, result: len(result),
    ),
    Target("estimation.blb", "repro.estimation.bootstrap", "blb_confidence_interval"),
    Target("estimation.estimate", "repro.estimation.estimators", "estimate"),
    Target(
        "executor.initialise", _EXECUTOR[0], "initialise", owner=_EXECUTOR[1],
        query_id=_seed_of_initialise,
    ),
    *(
        Target(
            f"executor.{name}", _EXECUTOR[0], name, owner=_EXECUTOR[1],
            query_id=_seed_of_state,
        )
        for name in _STATE_STEPS
    ),
    Target(
        "executor.prewarm", _EXECUTOR[0], "prewarm_similarities", owner=_EXECUTOR[1]
    ),
    Target(
        "service.submit", "repro.core.service", "submit",
        owner="AggregateQueryService", query_id=_seed_of_submit,
    ),
]

#: ``result.stage_ms`` bucket -> the benchmark spans that should add up to it
STAGE_SPANS = {
    "sampling": ("executor.initialise", "executor.grow", "executor.grow_grouped",
                 "executor.grow_extreme"),
    "validation": ("semantics.validate",),
    "estimation": ("estimation.estimate",),
    "guarantee": ("estimation.blb",),
}

PER_LAYER_UNITS = {
    "query.parse_us": "us",
    "kg.csr_build_ms": "ms",
    "kg.csr_builds": "count",
    "embedding.similarity_row_ms": "ms",
    "embedding.similarity_row_calls": "count",
    "planner.plan_ms": "ms",
    "planner.builds": "count",
    "planner.cache_hit_share": "share",
    "sampling.scope_ms": "ms",
    "sampling.stationary_ms": "ms",
    "sampling.draw_ms": "ms",
    "sampling.draws": "count",
    "semantics.validate_ms": "ms",
    "semantics.validate_calls": "count",
    "semantics.validated_entries": "count",
    "estimation.blb_ms": "ms",
    "estimation.blb_calls": "count",
    "estimation.estimate_ms": "ms",
    "executor.rounds": "count",
    "executor.initialise_ms": "ms",
    "executor.step_self_ms": "ms",
    "executor.wasted_draw_share": "share",
    "service.submit_us": "us",
    "service.wait_ms": "ms",
    "service.sheds": "count",
    "service.deadline_expiries": "count",
    "server.accept_ms": "ms",
    "server.first_event_ms": "ms",
    "server.wire_overhead_ms": "ms",
    "server.sse_events": "count",
    "server.requests": "count",
    "server.http_errors": "count",
    "trace.span_cover_share": "share",
    "trace.overhead_share": "share",
}

#: the span each timing/count metric is read from
_SPAN_METRICS = {
    "kg.csr_build": ("kg.csr_build_ms", "kg.csr_builds"),
    "embedding.similarity_row": (
        "embedding.similarity_row_ms", "embedding.similarity_row_calls"
    ),
    "planner.plan": ("planner.plan_ms", None),
    "sampling.scope": ("sampling.scope_ms", None),
    "sampling.stationary": ("sampling.stationary_ms", None),
    "sampling.draw": ("sampling.draw_ms", None),
    "semantics.validate": ("semantics.validate_ms", "semantics.validate_calls"),
    "estimation.blb": ("estimation.blb_ms", "estimation.blb_calls"),
    "estimation.estimate": ("estimation.estimate_ms", None),
    "executor.initialise": ("executor.initialise_ms", None),
}

#: call counts reported for the whole pass instead of per query
_PASS_TOTALS = frozenset(["kg.csr_builds"])

#: spans that are one query's own executor work (the rest of an
#: operation's latency is time it waited for the scheduler)
_OWN_SPANS = frozenset(
    ["executor.initialise", "service.submit"]
    + [f"executor.{name}" for name in _STATE_STEPS]
)
_STEP_SPANS = frozenset(
    f"executor.{name}" for name in ("step", "step_grouped", "step_extreme")
)


def layer_metrics(
    trace: dict, operations: list[dict], *, queries: int, plan_builds: int
) -> tuple[dict[str, float], list[dict]]:
    """``(metrics, obs_gaps)`` for one traced pass.

    Timings are mean milliseconds *per query* of the pass (so workloads
    of different length compare), ``*_calls`` / ``sampling.draws`` /
    ``executor.rounds`` / ``semantics.validated_entries`` are per query
    too; ``kg.csr_builds`` and ``planner.builds`` are totals of the pass.
    Metrics of an untraced target are left out.
    """
    spans = trace["spans"]
    own = self_seconds(spans)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    by_query: dict[object, float] = {}
    step_self = 0.0
    for span, span_own in zip(spans, own):
        name = span["name"]
        duration = span["end"] - span["start"]
        seconds[name] = seconds.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0.0) + span["count"]
        if name in _STEP_SPANS:
            step_self += span_own
        # own work = the query's top-level executor spans, not their children
        if name in _OWN_SPANS and span["query_id"] is not None:
            parent = span["parent"]
            if parent < 0 or spans[parent]["name"] not in _OWN_SPANS:
                by_query[span["query_id"]] = (
                    by_query.get(span["query_id"], 0.0) + duration
                )

    untraced = set(trace["untraced"])
    per_query = 1e3 / max(1, queries)
    metrics: dict[str, float] = {}
    for span_name, (time_metric, calls_metric) in _SPAN_METRICS.items():
        if span_name in untraced:
            continue
        metrics[time_metric] = seconds.get(span_name, 0.0) * per_query
        if calls_metric in _PASS_TOTALS:
            metrics[calls_metric] = float(calls.get(span_name, 0))
        elif calls_metric is not None:
            metrics[calls_metric] = calls.get(span_name, 0) / max(1, queries)
    if "sampling.draw" not in untraced:
        metrics["sampling.draws"] = counts.get("sampling.draw", 0.0) / max(1, queries)
    if "semantics.validate" not in untraced:
        metrics["semantics.validated_entries"] = (
            counts.get("semantics.validate", 0.0) / max(1, queries)
        )
    if "planner.plan" not in untraced:
        plan_calls = calls.get("planner.plan", 0)
        metrics["planner.builds"] = float(plan_builds)
        metrics["planner.cache_hit_share"] = (
            1.0 - plan_builds / plan_calls if plan_calls else 1.0
        )
    if not _STEP_SPANS & untraced:
        metrics["executor.step_self_ms"] = step_self * per_query
        metrics["executor.rounds"] = (
            sum(calls.get(name, 0) for name in _STEP_SPANS) / max(1, queries)
        )
    if "service.submit" not in untraced:
        submits = calls.get("service.submit", 0)
        metrics["service.submit_us"] = (
            seconds.get("service.submit", 0.0) * 1e6 / submits if submits else 0.0
        )

    # time an operation spent outside its own queries' spans = waiting
    settled = [op for op in operations if op["ok"]]
    if settled and not _OWN_SPANS & untraced:
        latency = sum(op["latency_s"] for op in settled)
        # cross-query prewarm serves the whole batch, so it is covered time
        covered = seconds.get("executor.prewarm", 0.0) + sum(
            by_query.get(seed, 0.0) for op in settled for seed in op["seeds"]
        )
        metrics["service.wait_ms"] = max(0.0, latency - covered) * 1e3 / len(settled)
        metrics["trace.span_cover_share"] = covered / latency if latency else 0.0

    draws = correct = 0
    stage_ms: dict[str, float] = {}
    for op in settled:
        for outcome in op["outcomes"]:
            for bucket, value in outcome["stage_ms"].items():
                stage_ms[bucket] = stage_ms.get(bucket, 0.0) + value
            if outcome["guaranteed"]:
                draws += outcome["values"]["total_draws"]
                correct += outcome["values"]["correct_draws"]
    metrics["executor.wasted_draw_share"] = 1.0 - correct / draws if draws else 0.0

    gaps = []
    for bucket, names in STAGE_SPANS.items():
        if untraced.intersection(names) or bucket not in stage_ms:
            continue
        span_ms = sum(seconds.get(name, 0.0) for name in names) * 1e3
        reference = stage_ms[bucket]
        gap = abs(span_ms - reference) / reference if reference else 0.0
        if gap > 0.10:
            gaps.append(
                {
                    "stage": bucket,
                    "stage_ms": reference,
                    "span_ms": span_ms,
                    "gap_share": gap,
                }
            )
    return metrics, gaps


def parse_us(queries) -> float:
    """Median microseconds of one ``parse_query(format_query(q))`` call."""
    samples = []
    for query in queries:
        text = format_query(query)
        started = time.perf_counter()
        parse_query(text)
        samples.append((time.perf_counter() - started) * 1e6)
    return statistics.median(samples)
