"""Experiment drivers: one function per paper table / figure (§VII).

Every driver returns an :class:`ExperimentResult` whose ``text`` is the
paper-style rendered table; the pytest benches time the driver, print the
text and persist it under ``benchmarks/results/``.  Heavy intermediate
state (bundles, ground truths, per-query method runs) is memoised in
:mod:`repro.bench.harness` so related tables (VI, VII, VIII) share work.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.baselines import SemanticSimilarityBaseline
from repro.bench.harness import (
    BenchContext,
    MethodResult,
    bench_context,
    figure_engine,
    method_names,
    run_method,
)
from repro.bench.metrics import (
    jaccard,
    mean_or_nan,
    relative_error,
    variance_or_nan,
)
from repro.bench.reporting import render_table
from repro.bench.sampled import DeltaStrategy, ExtremeMethod, PaperConfig, SamplerKind
from repro.datasets import WorkloadQuery, guaranteed_queries, simple_query_graph
from repro.embedding import (
    EmbeddingTrainer,
    PredicateVectorSpace,
    RescalModel,
    StructuredEmbeddingModel,
    TrainingConfig,
    TransDModel,
    TransEModel,
    TransHModel,
)
from repro.query.aggregate import AggregateFunction, AggregateQuery
from repro.query.graph import QueryShape

DATASETS = ("dbpedia-like", "freebase-like", "yago2-like")
SHAPES = ("simple", "chain", "star", "cycle", "flower")
FUNCTIONS = (AggregateFunction.COUNT, AggregateFunction.AVG, AggregateFunction.SUM)

#: scale used by the effectiveness experiments (fast, errors well-resolved)
EFFECTIVENESS_SCALE = 1.0
#: scale used by the timing experiments (where SSB's enumeration dominates)
EFFICIENCY_SCALE = float(os.environ.get("REPRO_BENCH_EFFICIENCY_SCALE", "4.0"))


@dataclass(frozen=True)
class ExperimentResult:
    """A rendered experiment: machine-readable rows + printable text."""

    name: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    text: str


def _result(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list[object]],
    notes: str | None = None,
) -> ExperimentResult:
    text = render_table(title, headers, rows, notes=notes)
    return ExperimentResult(
        name=name,
        headers=tuple(headers),
        rows=tuple(tuple(row) for row in rows),
        text=text,
    )


# ---------------------------------------------------------------------------
# Shared effectiveness/efficiency matrix (Tables VI, VII, VIII)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _QueryRun:
    dataset: str
    shape: str
    function: str
    method: str
    tau_error: float
    ha_error: float
    elapsed_ms: float
    supported: bool


@lru_cache(maxsize=4)
def _effectiveness_runs(seed: int, scale: float) -> tuple[_QueryRun, ...]:
    """Run every method on every guaranteed workload query, once."""
    runs: list[_QueryRun] = []
    for preset in DATASETS:
        context = bench_context(preset, seed=seed, scale=scale)
        queries = guaranteed_queries(context.workload)
        for query in queries:
            truth = context.tau_ground_truth(query.aggregate_query)
            human = context.ha_ground_truth(query.aggregate_query)
            for method in method_names():
                outcome = run_method(
                    context, method, query, query_seed=seed + 11
                )
                runs.append(
                    _QueryRun(
                        dataset=preset,
                        shape=query.shape.value,
                        function=query.function.value,
                        method=method,
                        tau_error=outcome.error_against(truth.value, truth.groups),
                        ha_error=outcome.error_against(human.value, human.groups),
                        elapsed_ms=outcome.elapsed_seconds * 1000.0,
                        supported=outcome.supported,
                    )
                )
    return tuple(runs)


def _matrix_rows(
    runs: tuple[_QueryRun, ...], value_of, percent: bool = True
) -> list[list[object]]:
    rows: list[list[object]] = []
    for method in method_names():
        row: list[object] = [method]
        for dataset in DATASETS:
            for shape in SHAPES:
                cell_values = [
                    value_of(run)
                    for run in runs
                    if run.method == method
                    and run.dataset == dataset
                    and run.shape == shape
                    and run.supported
                ]
                mean = mean_or_nan(cell_values)
                row.append(mean * 100.0 if percent and mean == mean else mean)
        rows.append(row)
    return rows


def _matrix_headers() -> list[str]:
    headers = ["Method"]
    for dataset in DATASETS:
        short = dataset.split("-")[0]
        headers.extend(f"{short}/{shape}" for shape in SHAPES)
    return headers


def table6_tau_gt_error(seed: int = 0) -> ExperimentResult:
    """Table VI: relative error (%) w.r.t. tau-GT, methods x datasets x shapes."""
    runs = _effectiveness_runs(seed, EFFECTIVENESS_SCALE)
    rows = _matrix_rows(runs, lambda run: run.tau_error)
    return _result(
        "table06",
        "Table VI — relative error (%) vs tau-GT",
        _matrix_headers(),
        rows,
        notes="EAQ supports simple queries only ('-' elsewhere); SSB defines tau-GT (0 by construction).",
    )


def table7_ha_gt_error(seed: int = 0) -> ExperimentResult:
    """Table VII: relative error (%) w.r.t. human-annotated ground truth."""
    runs = _effectiveness_runs(seed, EFFECTIVENESS_SCALE)
    rows = _matrix_rows(runs, lambda run: run.ha_error)
    return _result(
        "table07",
        "Table VII — relative error (%) vs HA-GT",
        _matrix_headers(),
        rows,
        notes="HA-GT comes from 10 simulated annotators (schema-level intersection).",
    )


@lru_cache(maxsize=4)
def _efficiency_runs(seed: int, scale: float) -> tuple[_QueryRun, ...]:
    """Timing runs at the larger scale, one COUNT+AVG query per shape."""
    runs: list[_QueryRun] = []
    for preset in DATASETS:
        context = bench_context(preset, seed=seed, scale=scale)
        queries = guaranteed_queries(context.workload)
        picked: list[WorkloadQuery] = []
        for shape in SHAPES:
            for function in ("COUNT", "AVG"):
                for query in queries:
                    if query.shape.value == shape and query.function.value == function:
                        picked.append(query)
                        break
        for query in picked:
            for method in method_names():
                outcome = run_method(context, method, query, query_seed=seed + 13)
                runs.append(
                    _QueryRun(
                        dataset=preset,
                        shape=query.shape.value,
                        function=query.function.value,
                        method=method,
                        tau_error=float("nan"),
                        ha_error=float("nan"),
                        elapsed_ms=outcome.elapsed_seconds * 1000.0,
                        supported=outcome.supported,
                    )
                )
    return tuple(runs)


def table8_response_time(seed: int = 0) -> ExperimentResult:
    """Table VIII: average response time (ms) per method/shape/dataset."""
    runs = _efficiency_runs(seed, EFFICIENCY_SCALE)
    rows = _matrix_rows(runs, lambda run: run.elapsed_ms, percent=False)
    return _result(
        "table08",
        f"Table VIII — avg response time (ms) at scale {EFFICIENCY_SCALE:g}",
        _matrix_headers(),
        rows,
        notes=(
            "Cold per-query state for every method. In-memory substrates make "
            "index-lookup comparators (JENA/Virtuoso analogs) faster than their "
            "real RDF-store counterparts; the ours-vs-SSB ordering is the "
            "algorithmically meaningful one (see EXPERIMENTS.md)."
        ),
    )


# ---------------------------------------------------------------------------
# Table V — annotator agreement
# ---------------------------------------------------------------------------
TAU_GRID = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


def table5_ajs(seed: int = 0) -> ExperimentResult:
    """Table V: avg Jaccard similarity between HA and tau-relevant answers."""
    rows: list[list[object]] = []
    for preset in DATASETS:
        context = bench_context(preset, seed=seed, scale=EFFECTIVENESS_SCALE)
        per_tau: dict[float, list[float]] = {tau: [] for tau in TAU_GRID}
        for hub in context.bundle.spec.hubs:
            graph = simple_query_graph(hub)
            similarities = SemanticSimilarityBaseline(
                context.bundle.kg, context.space
            ).answer_similarities(graph)
            human = context.oracle.human_answers(graph)
            for tau in TAU_GRID:
                tau_set = {
                    node for node, value in similarities.items() if value >= tau
                }
                per_tau[tau].append(jaccard(tau_set, human))
        ajs_row: list[object] = [f"{preset}-AJS"]
        var_row: list[object] = [f"{preset}-Var"]
        for tau in TAU_GRID:
            ajs_row.append(mean_or_nan(per_tau[tau]))
            var_row.append(variance_or_nan(per_tau[tau]))
        rows.append(ajs_row)
        rows.append(var_row)
    headers = ["Threshold tau"] + [f"{tau:.2f}" for tau in TAU_GRID]
    return _result(
        "table05",
        "Table V — AJS between human-annotated and tau-relevant answers",
        headers,
        rows,
        notes="AJS should peak at an intermediate tau (the calibrated threshold).",
    )


# ---------------------------------------------------------------------------
# Table IX — iterative refinement case study
# ---------------------------------------------------------------------------
def table9_case_study(seed: int = 0) -> ExperimentResult:
    """Table IX: per-round estimate / MoE / error refinement (Q1, Q2, Q6)."""
    cases = [
        ("Q1 (COUNT cars of Germany)", "dbpedia-like", "germany_cars", AggregateFunction.COUNT, None),
        ("Q2 (AVG price of cars)", "dbpedia-like", "germany_cars", AggregateFunction.AVG, "price"),
        ("Q6 (SUM box office)", "freebase-like", "spielberg_movies", AggregateFunction.SUM, "box_office"),
    ]
    rows: list[list[object]] = []
    for label, preset, hub_key, function, attribute in cases:
        context = bench_context(preset, seed=seed, scale=EFFECTIVENESS_SCALE)
        hub = context.bundle.spec.hub(hub_key)
        aggregate_query = AggregateQuery(
            query=simple_query_graph(hub), function=function, attribute=attribute
        )
        truth = context.tau_ground_truth(aggregate_query)
        result = context.engine().execute(aggregate_query, seed=seed + 17)
        for trace in result.rounds:
            rows.append(
                [
                    label,
                    trace.round_index,
                    round(trace.estimate, 2),
                    round(trace.moe, 2) if np.isfinite(trace.moe) else None,
                    round(trace.relative_error(truth.value) * 100.0, 2),
                ]
            )
    return _result(
        "table09",
        "Table IX — case study: relative error refinement per round",
        ["Query", "Round", "Estimate", "MoE", "Error %"],
        rows,
        notes="MoE and error shrink per round; termination needs error <= eb = 1%.",
    )


# ---------------------------------------------------------------------------
# Tables X & XI — operator support (filter / GROUP-BY / MAX-MIN)
# ---------------------------------------------------------------------------
def _operator_queries(context: BenchContext) -> dict[str, list[WorkloadQuery]]:
    queries = context.workload
    return {
        "Filter": [q for q in queries if q.aggregate_query.has_filters],
        "GROUP-BY": [q for q in queries if q.aggregate_query.group_by is not None],
        "MAX/MIN": [
            q
            for q in queries
            if q.function in (AggregateFunction.MAX, AggregateFunction.MIN)
        ],
    }


#: the paper reports GROUP-BY support only for these methods
GROUP_BY_METHODS = ("Ours", "JENA", "Virtuoso", "SSB")


@lru_cache(maxsize=2)
def _operator_runs(seed: int) -> tuple[_QueryRun, ...]:
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    runs: list[_QueryRun] = []
    for operator, queries in _operator_queries(context).items():
        for query in queries:
            truth = context.tau_ground_truth(query.aggregate_query)
            human = context.ha_ground_truth(query.aggregate_query)
            for method in method_names():
                if operator == "GROUP-BY" and method not in GROUP_BY_METHODS:
                    continue
                outcome = run_method(context, method, query, query_seed=seed + 19)
                runs.append(
                    _QueryRun(
                        dataset=operator,  # reuse the dataset slot for the operator
                        shape=operator,
                        function=query.function.value,
                        method=method,
                        tau_error=outcome.error_against(truth.value, truth.groups),
                        ha_error=outcome.error_against(human.value, human.groups),
                        elapsed_ms=outcome.elapsed_seconds * 1000.0,
                        supported=outcome.supported,
                    )
                )
    return tuple(runs)


def table10_operator_time(seed: int = 0) -> ExperimentResult:
    """Table X: efficiency (seconds) for filter / GROUP-BY / MAX-MIN."""
    runs = _operator_runs(seed)
    rows: list[list[object]] = []
    for method in method_names():
        row: list[object] = [method]
        for operator in ("Filter", "GROUP-BY", "MAX/MIN"):
            values = [
                run.elapsed_ms / 1000.0
                for run in runs
                if run.method == method and run.shape == operator and run.supported
            ]
            row.append(mean_or_nan(values))
        rows.append(row)
    return _result(
        "table10",
        "Table X — efficiency (s) for various operators (DBpedia-like)",
        ["Method", "Filter", "GROUP-BY", "MAX/MIN"],
        rows,
        notes="GROUP-BY rows: methods without grouped evaluation are '-', as in the paper.",
    )


def table11_operator_error(seed: int = 0) -> ExperimentResult:
    """Table XI: effectiveness for operators w.r.t. tau-GT and HA-GT."""
    runs = _operator_runs(seed)
    rows: list[list[object]] = []
    for method in method_names():
        row: list[object] = [method]
        for truth_kind in ("tau", "ha"):
            for operator in ("Filter", "GROUP-BY", "MAX/MIN"):
                values = [
                    (run.tau_error if truth_kind == "tau" else run.ha_error) * 100.0
                    for run in runs
                    if run.method == method
                    and run.shape == operator
                    and run.supported
                    and np.isfinite(
                        run.tau_error if truth_kind == "tau" else run.ha_error
                    )
                ]
                row.append(mean_or_nan(values))
        rows.append(row)
    headers = [
        "Method",
        "Filter(tau)",
        "GROUP-BY(tau)",
        "MAX/MIN(tau)",
        "Filter(HA)",
        "GROUP-BY(HA)",
        "MAX/MIN(HA)",
    ]
    return _result(
        "table11",
        "Table XI — relative error (%) for various operators (DBpedia-like)",
        headers,
        rows,
    )


# ---------------------------------------------------------------------------
# Table XII — per-step timing
# ---------------------------------------------------------------------------
def table12_step_timing(seed: int = 0) -> ExperimentResult:
    """Table XII: S1/S2/S3 time per aggregate function (DBpedia-like simple)."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    hub = context.bundle.spec.hub("germany_cars")
    rows: list[list[object]] = []
    for function in FUNCTIONS:
        attribute = "price" if function.needs_attribute else None
        aggregate_query = AggregateQuery(
            query=simple_query_graph(hub), function=function, attribute=attribute
        )
        stage_totals = {"sampling": 0.0, "estimation": 0.0, "guarantee": 0.0}
        repeats = 3
        for repeat in range(repeats):
            result = context.engine().execute(
                aggregate_query, seed=seed + 23 + repeat
            )
            for stage, value in result.stage_ms.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + value
        rows.append(
            [
                function.value,
                round(stage_totals["sampling"] / repeats, 1),
                # the paper's S2 covers validation + estimation; the engine
                # buckets them separately since the plan/execute split
                round(
                    (
                        stage_totals["estimation"]
                        + stage_totals.get("validation", 0.0)
                    )
                    / repeats,
                    1,
                ),
                round(stage_totals["guarantee"] / repeats, 1),
            ]
        )
    return _result(
        "table12",
        "Table XII — per-step time (ms): S1 sampling / S2 estimation / S3 guarantee",
        ["Operator", "S1", "S2", "S3"],
        rows,
        notes="S1 covers scope+walk+collection; S2 validation+estimation; S3 the CI.",
    )


# ---------------------------------------------------------------------------
# Table XIII — embedding models
# ---------------------------------------------------------------------------
EMBEDDING_MODELS = (
    ("TransE", TransEModel, 32),
    ("TransD", TransDModel, 32),
    ("TransH", TransHModel, 32),
    ("RESCAL", RescalModel, 32),
    ("SE", StructuredEmbeddingModel, 32),
)


def table13_embeddings(seed: int = 0, epochs: int = 25) -> ExperimentResult:
    """Table XIII: embedding model cost and downstream accuracy (HA-GT)."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    kg = context.bundle.kg
    hub = context.bundle.spec.hub("germany_cars")
    queries = [
        AggregateQuery(
            query=simple_query_graph(hub),
            function=function,
            attribute="price" if function.needs_attribute else None,
        )
        for function in FUNCTIONS
    ]
    rows: list[list[object]] = []
    for name, model_class, dim in EMBEDDING_MODELS:
        model = model_class(
            kg.num_nodes,
            kg.num_predicates,
            dim=dim,
            predicate_names=list(kg.predicates),
            seed=seed,
        )
        report = EmbeddingTrainer(TrainingConfig(epochs=epochs, seed=seed)).train(
            model, kg
        )
        space = PredicateVectorSpace(model)
        errors = []
        for aggregate_query in queries:
            human = context.ha_ground_truth(aggregate_query)
            engine = figure_engine(context.bundle.kg, space, PaperConfig(seed=seed))
            result = engine.execute(aggregate_query, seed=seed + 29)
            errors.append(relative_error(result.value, human.value))
        rows.append(
            [
                name,
                round(report.wall_seconds, 2),
                round(model.memory_bytes() / 1e6, 2),
                round(_predicate_separation(space, context), 3),
                round(float(np.mean(errors)) * 100.0, 2),
            ]
        )
    return _result(
        "table13",
        "Table XIII — effect of KG embedding models (DBpedia-like, HA-GT)",
        ["Model", "Embed time (s)", "Memory (MB)", "Separation", "Relative error (%)"],
        rows,
        notes=(
            "Translation-family models should beat RESCAL/SE on cost and on "
            "predicate separation (the margin by which correct-schema "
            "predicates outrank near-misses w.r.t. the canonical predicate). "
            "Downstream error moves less: exact-predicate matches validate "
            "under any space, so only schema-flexible answers are at stake."
        ),
    )


def _predicate_separation(space: PredicateVectorSpace, context: BenchContext) -> float:
    """Mean margin of correct-schema over near-miss predicate similarity.

    For every hub, every predicate occurring in a correct schema should be
    more similar to the hub's canonical predicate than every near-miss
    predicate; the mean margin measures how well a trained space separates
    the two — the quantity the engine's transition matrix (Eq. 5) and
    validation threshold actually consume.
    """
    margins: list[float] = []
    for hub in context.bundle.spec.hubs:
        canonical = hub.canonical_predicate
        correct = {
            step.predicate
            for schema in hub.correct_schemas
            for step in schema.steps
        }
        near_miss = {
            step.predicate
            for schema in hub.near_miss_schemas
            for step in schema.steps
        }
        for good in correct:
            for bad in near_miss:
                margins.append(
                    space.similarity(good, canonical)
                    - space.similarity(bad, canonical)
                )
    return float(np.mean(margins)) if margins else float("nan")


# ---------------------------------------------------------------------------
# Figure 5 — per-step ablations
# ---------------------------------------------------------------------------
def _hub_queries(context: BenchContext, hub_key: str) -> list[AggregateQuery]:
    hub = context.bundle.spec.hub(hub_key)
    return [
        AggregateQuery(
            query=simple_query_graph(hub),
            function=function,
            attribute="price" if function.needs_attribute else None,
        )
        for function in FUNCTIONS
    ]


def _ablation_rows(
    context: BenchContext,
    configs: dict[str, PaperConfig],
    seed: int,
) -> list[list[object]]:
    queries = _hub_queries(context, "germany_cars")
    rows: list[list[object]] = []
    for label, config in configs.items():
        for aggregate_query in queries:
            truth = context.tau_ground_truth(aggregate_query)
            started = time.perf_counter()
            result = context.engine(config).execute(aggregate_query, seed=seed + 31)
            elapsed = time.perf_counter() - started
            rows.append(
                [
                    label,
                    aggregate_query.function.value,
                    round(relative_error(result.value, truth.value) * 100.0, 3),
                    round(elapsed * 1000.0, 1),
                ]
            )
    return rows


def fig5a_sampling_ablation(seed: int = 0) -> ExperimentResult:
    """Fig 5(a): semantic-aware sampling vs CNARW vs Node2Vec."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {
        "semantic-aware": PaperConfig(seed=seed),
        "CNARW": PaperConfig(seed=seed, sampler=SamplerKind.CNARW),
        "Node2Vec": PaperConfig(seed=seed, sampler=SamplerKind.NODE2VEC),
    }
    rows = _ablation_rows(context, configs, seed)
    return _result(
        "fig5a",
        "Fig 5(a) — effect of S1 (sampling) on error (%) and time (ms)",
        ["Sampler", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Topology-only samplers ignore semantics: worse error and/or more time.",
    )


def fig5b_validation_ablation(seed: int = 0) -> ExperimentResult:
    """Fig 5(b): with vs without correctness validation."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {
        "with validation": PaperConfig(seed=seed),
        "without validation": PaperConfig(seed=seed, validate_correctness=False),
    }
    rows = _ablation_rows(context, configs, seed)
    return _result(
        "fig5b",
        "Fig 5(b) — effect of S2 (correctness validation)",
        ["Variant", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Without validation, below-tau answers pollute the estimate.",
    )


def fig5c_delta_ablation(seed: int = 0) -> ExperimentResult:
    """Fig 5(c): Eq. 12 error-based sample growth vs a fixed increment."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {
        "error-based": PaperConfig(seed=seed),
        "fixed(+50)": PaperConfig(
            seed=seed,
            delta_strategy=DeltaStrategy.FIXED,
            max_rounds=60,
        ),
    }
    rows = _ablation_rows(context, configs, seed)
    return _result(
        "fig5c",
        "Fig 5(c) — effect of S3 (sample-size configuration)",
        ["Strategy", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Similar error; the error-based schedule needs fewer rounds.",
    )


# ---------------------------------------------------------------------------
# Figure 6 — interactivity and parameter sensitivity
# ---------------------------------------------------------------------------
def fig6a_interactive(seed: int = 0) -> ExperimentResult:
    """Fig 6(a): incremental time as eb is tightened 5% -> 1%."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    rows: list[list[object]] = []
    for aggregate_query in _hub_queries(context, "germany_cars"):
        engine = context.engine(PaperConfig(seed=seed, error_bound=0.05))
        handle = None
        previous = None
        for error_bound in (0.05, 0.04, 0.03, 0.02, 0.01):
            started = time.perf_counter()
            if handle is None:
                # the first run's time includes initialise; its added draws
                # are those after the initial sample
                handle = engine.service.submit(
                    aggregate_query, seed=seed + 37, error_bound=error_bound
                )
                result = handle.result()
                added = result.total_draws - result.rounds[0].total_draws
            else:
                draws_before = handle.total_draws
                result = handle.refine(error_bound).result()
                added = handle.total_draws - draws_before
            elapsed = time.perf_counter() - started
            label = (
                f"{previous:.0%}->{error_bound:.0%}" if previous else f"init {error_bound:.0%}"
            )
            rows.append(
                [
                    aggregate_query.function.value,
                    label,
                    round(elapsed * 1000.0, 1),
                    added,
                    round(result.value, 2),
                ]
            )
            previous = error_bound
        engine.service.close()
    return _result(
        "fig6a",
        "Fig 6(a) — interactive error-bound refinement",
        ["Function", "eb step", "Incremental time (ms)", "Added draws", "Estimate"],
        rows,
        notes="Tightening eb reuses all prior draws; each step costs a small increment.",
    )


def _sweep(
    context: BenchContext,
    parameter_values: list[object],
    config_for,
    seed: int,
    *,
    truth_for=None,
) -> list[list[object]]:
    rows: list[list[object]] = []
    queries = _hub_queries(context, "germany_cars")
    for value in parameter_values:
        for aggregate_query in queries:
            truth = (
                truth_for(aggregate_query, value)
                if truth_for is not None
                else context.tau_ground_truth(aggregate_query).value
            )
            started = time.perf_counter()
            result = context.engine(config_for(value)).execute(
                aggregate_query, seed=seed + 41
            )
            elapsed = time.perf_counter() - started
            rows.append(
                [
                    value,
                    aggregate_query.function.value,
                    round(relative_error(result.value, truth) * 100.0, 3),
                    round(elapsed * 1000.0, 1),
                ]
            )
    return rows


def fig6b_confidence_level(seed: int = 0) -> ExperimentResult:
    """Fig 6(b): error and time vs confidence level."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    rows = _sweep(
        context,
        [0.86, 0.89, 0.92, 0.95, 0.98],
        lambda level: PaperConfig(seed=seed, confidence_level=level),
        seed,
    )
    return _result(
        "fig6b",
        "Fig 6(b) — effect of confidence level 1-alpha",
        ["1-alpha", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Higher confidence -> tighter MoE requirement -> more samples, less error.",
    )


def fig6c_repeat_factor(seed: int = 0) -> ExperimentResult:
    """Fig 6(c): error and time vs the repeat factor r."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    rows = _sweep(
        context,
        [1, 2, 3, 4, 5],
        lambda r: PaperConfig(seed=seed, repeat_factor=r),
        seed,
    )
    return _result(
        "fig6c",
        "Fig 6(c) — effect of repeat factor r",
        ["r", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Larger r reduces validation false negatives; stabilises around r = 3.",
    )


def fig6d_sample_ratio(seed: int = 0) -> ExperimentResult:
    """Fig 6(d): error and time vs the desired sample ratio lambda."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    rows = _sweep(
        context,
        [0.1, 0.2, 0.3, 0.4, 0.5],
        lambda ratio: PaperConfig(seed=seed, sample_ratio=ratio),
        seed,
    )
    return _result(
        "fig6d",
        "Fig 6(d) — effect of desired sample ratio lambda",
        ["lambda", "Function", "Relative error (%)", "Time (ms)"],
        rows,
    )


def fig6e_nbound(seed: int = 0) -> ExperimentResult:
    """Fig 6(e): error and time vs the n-bounded subgraph size."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    rows = _sweep(
        context,
        [1, 2, 3, 4],
        lambda n: PaperConfig(seed=seed, n_bound=n),
        seed,
    )
    return _result(
        "fig6e",
        "Fig 6(e) — effect of the n-bounded subgraph",
        ["n", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        notes="Small n misses correct answers; error stabilises once n covers them (n>=3).",
    )


def fig6f_tau_threshold(seed: int = 0) -> ExperimentResult:
    """Fig 6(f): error vs tau, against tau-GT (left) and HA-GT (right)."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    hub = context.bundle.spec.hub("germany_cars")
    graph = simple_query_graph(hub)
    similarities = SemanticSimilarityBaseline(
        context.bundle.kg, context.space
    ).answer_similarities(graph)
    rows: list[list[object]] = []
    for tau in (0.70, 0.75, 0.80, 0.85, 0.90):
        for aggregate_query in _hub_queries(context, "germany_cars"):
            human = context.ha_ground_truth(aggregate_query)
            # tau-GT depends on tau: recompute from the similarity map.
            from repro.query.evaluate import aggregate_over, usable_answers

            tau_answers = usable_answers(
                context.bundle.kg,
                aggregate_query,
                {node for node, value in similarities.items() if value >= tau},
            )
            tau_value, _ = aggregate_over(
                context.bundle.kg, aggregate_query, tau_answers
            )
            result = context.engine(PaperConfig(seed=seed, tau=tau)).execute(
                aggregate_query, seed=seed + 43
            )
            rows.append(
                [
                    tau,
                    aggregate_query.function.value,
                    round(relative_error(result.value, tau_value) * 100.0, 3),
                    round(relative_error(result.value, human.value) * 100.0, 3),
                ]
            )
    return _result(
        "fig6f",
        "Fig 6(f) — effect of the semantic similarity threshold tau",
        ["tau", "Function", "Error vs tau-GT (%)", "Error vs HA-GT (%)"],
        rows,
        notes="tau-GT error stays low for all tau; HA-GT error is minimised near the calibrated tau.",
    )


# ---------------------------------------------------------------------------
# Extra: scaling crossover (beyond the paper; motivates the AQP design)
# ---------------------------------------------------------------------------
def scaling_crossover(seed: int = 0) -> ExperimentResult:
    """Ours vs SSB wall time as the KG grows (COUNT, simple + chain)."""
    from repro.datasets import build_dataset, dbpedia_like_spec, standard_workload

    rows: list[list[object]] = []
    for scale in (1.0, 2.0, 4.0, 6.0):
        bundle = build_dataset(dbpedia_like_spec(seed=seed, scale=scale))
        space = bundle.space()
        queries = guaranteed_queries(standard_workload(bundle))
        for shape in ("simple", "chain"):
            query = next(
                q
                for q in queries
                if q.shape.value == shape and q.function.value == "COUNT"
            )
            ssb = SemanticSimilarityBaseline(bundle.kg, space)
            started = time.perf_counter()
            truth = ssb.ground_truth(query.aggregate_query)
            ssb_elapsed = time.perf_counter() - started
            engine = figure_engine(bundle.kg, space, PaperConfig(seed=seed))
            started = time.perf_counter()
            result = engine.execute(query.aggregate_query, seed=seed + 47)
            ours_elapsed = time.perf_counter() - started
            rows.append(
                [
                    f"{scale:g}x ({bundle.kg.num_nodes} nodes)",
                    shape,
                    round(ours_elapsed * 1000.0, 1),
                    round(ssb_elapsed * 1000.0, 1),
                    round(relative_error(result.value, truth.value) * 100.0, 3),
                ]
            )
    return _result(
        "scaling",
        "Scaling crossover — ours vs exact SSB (COUNT)",
        ["KG scale", "Shape", "Ours (ms)", "SSB (ms)", "Ours error (%)"],
        rows,
        notes="SSB's exhaustive enumeration grows superlinearly; sampling stays bounded.",
    )


# ---------------------------------------------------------------------------
# Extension: EVT-based MAX/MIN (the paper's named future-work item)
# ---------------------------------------------------------------------------
def ext_evt_extremes(seed: int = 0, replications: int = 5) -> ExperimentResult:
    """Sample-extreme vs EVT-extrapolated MAX/MIN error, per dataset.

    The paper reports MAX/MIN only as the extremum of the collected
    sample (§VII-B) and proposes EVT estimation as future work.  This
    experiment runs both estimators under identical (deliberately small)
    samples — so the sample extremum reliably misses the population
    extremum — and averages the relative error over ``replications``
    independently-seeded runs, since a single tail fit on a small sample
    is noisy in both directions.
    """
    rows: list[list[object]] = []
    extremes = (AggregateFunction.MAX, AggregateFunction.MIN)
    for dataset in DATASETS:
        # Larger bundles so a 5% sample genuinely misses the extremum.
        context = bench_context(dataset, seed=seed, scale=2.0)
        hub = context.bundle.spec.hubs[0]
        attribute = hub.attributes[0].name
        for function in extremes:
            aggregate_query = AggregateQuery(
                query=simple_query_graph(hub),
                function=function,
                attribute=attribute,
            )
            truth = context.tau_ground_truth(aggregate_query)
            for method in (ExtremeMethod.SAMPLE, ExtremeMethod.EVT):
                errors = []
                for replication in range(replications):
                    config = PaperConfig(
                        seed=seed + replication,
                        extreme_method=method,
                        extreme_rounds=2,
                        min_initial_sample=150,
                        # fit close to the tail: the bulk of a lognormal
                        # is a poor GPD and drags the extrapolation off
                        evt_exceedance_quantile=0.85,
                    )
                    result = context.engine(config).execute(
                        aggregate_query, seed=seed + 53 + replication * 17
                    )
                    errors.append(relative_error(result.value, truth.value))
                rows.append(
                    [
                        dataset,
                        f"{function.value}({attribute})",
                        method.value,
                        round(truth.value, 2),
                        round(float(np.mean(errors)) * 100.0, 2),
                        round(float(np.median(errors)) * 100.0, 2),
                    ]
                )
    return _result(
        "ext_evt",
        "Extension — EVT tail extrapolation for MAX/MIN "
        f"(small samples, {replications} runs)",
        [
            "Dataset",
            "Function",
            "Method",
            "tau-GT",
            "Mean error (%)",
            "Median error (%)",
        ],
        rows,
        notes=(
            "EVT extrapolates beyond the sample extremum via a GPD tail fit. "
            "It pays off for MAX over the heavy (Frechet-domain) upper tails "
            "of the lognormal attributes, and hurts for MIN: their short "
            "lower tails are mis-fit at sample-sized thresholds, so the "
            "plain sample minimum stays the better estimator — consistent "
            "with EVT theory and with the paper leaving extremes as future "
            "work. Median shows the typical run; the mean is tail-sensitive."
        ),
    )


# ---------------------------------------------------------------------------
# Extension: estimator-normalisation ablation (DESIGN.md faithfulness note 1)
# ---------------------------------------------------------------------------
def ext_normalization(seed: int = 0) -> ExperimentResult:
    """Hansen–Hurwitz (divide by |S_A|) vs literal Eq. 7-8 (divide by |S_A+|).

    Under i.i.d. draws from pi_A over *all* candidates, the literal
    normalisation is biased upward by 1/q where q is the probability mass
    of correct answers; the correction factor only vanishes when every
    draw validates.  This ablation measures both on the same queries.
    """
    from repro.estimation.estimators import Normalization

    rows: list[list[object]] = []
    for dataset in DATASETS:
        context = bench_context(dataset, seed=seed, scale=EFFECTIVENESS_SCALE)
        hub = context.bundle.spec.hubs[0]
        queries = [
            AggregateQuery(
                query=simple_query_graph(hub),
                function=function,
                # the hub's own attribute; AVG is skipped below (the
                # ratio estimator cancels the normalisation factor)
                attribute=hub.attributes[0].name
                if function.needs_attribute
                else None,
            )
            for function in (AggregateFunction.COUNT, AggregateFunction.SUM)
        ]
        for normalization in (Normalization.SAMPLE, Normalization.PAPER):
            for aggregate_query in queries:
                truth = context.tau_ground_truth(aggregate_query)
                config = PaperConfig(seed=seed, normalization=normalization)
                result = context.engine(config).execute(
                    aggregate_query, seed=seed + 61
                )
                rows.append(
                    [
                        dataset,
                        aggregate_query.function.value,
                        normalization.value,
                        round(result.value, 2),
                        round(truth.value, 2),
                        round(relative_error(result.value, truth.value) * 100.0, 2),
                    ]
                )
    return _result(
        "ext_normalization",
        "Extension — estimator normalisation ablation (COUNT/SUM)",
        ["Dataset", "Function", "Normalization", "Estimate", "tau-GT", "Error (%)"],
        rows,
        notes=(
            "'sample' = Hansen-Hurwitz (unbiased under i.i.d. draws over all "
            "candidates); 'paper' = literal Eq. 7-8, biased up by the share "
            "of below-tau draws in the sample."
        ),
    )
