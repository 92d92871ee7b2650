"""Experiment drivers: one function per paper table / figure (§VII).

Every driver returns an :class:`ExperimentResult`: its rows, the claims
the paper (or, for ``scaling`` and the ``ext_*`` extensions, the
repository) makes about them, each checked against the rows, and the
rendered table with a verdict per claim, which ``repro experiment NAME``
prints.  Heavy intermediate state (bundles, ground truths, per-query
method runs) is memoised in :mod:`repro.bench.harness` so related tables
(VI, VII, VIII) share work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.baselines import SemanticSimilarityBaseline
from repro.bench.harness import (
    BenchContext,
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

DATASETS = ("dbpedia-like", "freebase-like", "yago2-like")
SHAPES = ("simple", "chain", "star", "cycle", "flower")
FUNCTIONS = (AggregateFunction.COUNT, AggregateFunction.AVG, AggregateFunction.SUM)

#: scale used by the effectiveness experiments (fast, errors well-resolved)
EFFECTIVENESS_SCALE = 1.0
#: scale used by the timing experiments (where SSB's enumeration dominates)
EFFICIENCY_SCALE = 4.0
#: the paper's error bound eb, in the percent the rows report errors in
EB_PERCENT = PaperConfig.error_bound * 100.0


@dataclass(frozen=True)
class Claim:
    """One sentence about an experiment's rows, and whether they bear it out.

    ``why_not`` says, with the rows' numbers, why this implementation does
    not meet a claim it is known to miss.  The claim stays stated as the
    paper (or the repository) makes it; it is not loosened to hold.
    """

    text: str
    holds: bool
    why_not: str | None = None

    @property
    def verdict(self) -> str:
        if self.holds:
            return "holds"
        return f"differs: {self.why_not}" if self.why_not else "FAILS"


@dataclass(frozen=True)
class ExperimentResult:
    """A rendered experiment: machine-readable rows, the claims checked
    against them, and printable text."""

    name: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    claims: tuple[Claim, ...]
    text: str


def _result(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list[object]],
    *,
    claims: Sequence[Claim],
    notes: str | None = None,
) -> ExperimentResult:
    if not claims:
        raise ValueError(f"experiment {name!r} states no claim")
    table = render_table(title, headers, rows, notes=notes)
    verdicts = [f"- {claim.text}: {claim.verdict}" for claim in claims]
    return ExperimentResult(
        name=name,
        headers=tuple(headers),
        rows=tuple(tuple(row) for row in rows),
        claims=tuple(claims),
        text="\n".join([table, "", "Claims:", *verdicts]),
    )


def _errors(rows: list[list[object]], column: int = 2) -> dict[object, dict[str, float]]:
    """``{row[0]: {function: error}}`` over rows laid out as
    ``[label or swept value, function, error (%), ...]``."""
    errors: dict[object, dict[str, float]] = {}
    for row in rows:
        errors.setdefault(row[0], {})[row[1]] = row[column]
    return errors


def _within_eb(subject: str, errors: Sequence[float]) -> Claim:
    """The claim that every one of ``errors`` (in percent; NaN, an
    unsupported cell, skipped) is within eb."""
    return Claim(f"{subject} within eb = {EB_PERCENT:g}%", bool(np.nanmax(errors) <= EB_PERCENT))


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
    cells = {row[0]: row[1:] for row in rows}
    return _result(
        "table06",
        "Table VI — relative error (%) vs tau-GT",
        _matrix_headers(),
        rows,
        claims=[
            Claim("SSB defines tau-GT: its error is 0 on every cell", max(cells["SSB"]) < 1e-9),
            _within_eb("Ours' mean error on every cell is", cells["Ours"]),
        ],
        notes="EAQ supports simple queries only ('-' elsewhere).",
    )


def table7_ha_gt_error(seed: int = 0) -> ExperimentResult:
    """Table VII: relative error (%) w.r.t. human-annotated ground truth."""
    runs = _effectiveness_runs(seed, EFFECTIVENESS_SCALE)
    rows = _matrix_rows(runs, lambda run: run.ha_error)
    means = {row[0]: mean_or_nan(row[1:]) for row in rows}
    others = [mean for method, mean in means.items() if method not in ("Ours", "SSB")]
    return _result(
        "table07",
        "Table VII — relative error (%) vs HA-GT",
        _matrix_headers(),
        rows,
        claims=[
            Claim(
                "Ours' mean error is below every other method's (SSB, which is tau-GT, aside)",
                means["Ours"] < min(others),
            ),
        ],
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
    by_method = {row[0]: row for row in rows}
    ours, ssb = (
        [mean_or_nan(row[start : start + len(SHAPES)]) for start in range(1, len(row), len(SHAPES))]
        for row in (by_method["Ours"], by_method["SSB"])
    )
    return _result(
        "table08",
        f"Table VIII — avg response time (ms) at scale {EFFICIENCY_SCALE:g}",
        _matrix_headers(),
        rows,
        claims=[
            Claim(
                "Ours answers faster than SSB on every dataset, averaged over its shapes",
                all(mine < theirs for mine, theirs in zip(ours, ssb)),
            ),
        ],
        notes=(
            "Cold per-query state for every method. In-memory substrates make "
            "index-lookup comparators (JENA/Virtuoso analogs) faster than their "
            "real RDF-store counterparts, so only the ours-vs-SSB ordering is "
            "claimed."
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
    calibrated = 1 + TAU_GRID.index(PaperConfig.tau)
    return _result(
        "table05",
        "Table V — AJS between human-annotated and tau-relevant answers",
        headers,
        rows,
        claims=[
            Claim(
                f"AJS peaks at the calibrated tau = {PaperConfig.tau:g} on every dataset, "
                "above both ends of the grid",
                all(row[calibrated] == max(row[1:]) > max(row[1], row[-1]) for row in rows[::2]),
            ),
        ],
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
    first, last = {}, {}
    for row in rows:
        first.setdefault(row[0], row)
        last[row[0]] = row
    over_eb = [row for row in last.values() if row[4] > EB_PERCENT]
    return _result(
        "table09",
        "Table IX — case study: relative error refinement per round",
        ["Query", "Round", "Estimate", "MoE", "Error %"],
        rows,
        claims=[
            Claim(
                f"Termination needs error <= eb = {EB_PERCENT:g}%: every query ends within it",
                not over_eb,
                why_not="; ".join(
                    f"{row[0]} ends at round {row[1]} with {row[4]:.2f}% error and its MoE "
                    f"at {row[3] / row[2]:.2%} of its estimate"
                    for row in over_eb
                )
                + ": its MoE never met the bound, and the run stopped on the "
                f"{PaperConfig.max_sample_size:,}-draw sample cap",
            ),
            Claim(
                "MoE and error shrink over the rounds: every query ends with both below "
                "its first round's, and within 5% error",
                all(
                    row[3] < first[label][3] and row[4] < min(first[label][4], 5.0)
                    for label, row in last.items()
                ),
            ),
        ],
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


#: the operator columns of Tables X and XI
OPERATORS = ("Filter", "GROUP-BY", "MAX/MIN")
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
        for operator in OPERATORS:
            values = [
                run.elapsed_ms / 1000.0
                for run in runs
                if run.method == method and run.shape == operator and run.supported
            ]
            row.append(mean_or_nan(values))
        rows.append(row)
    seconds = {row[0]: row[1:] for row in rows}
    operators = list(zip(OPERATORS, seconds["Ours"], seconds["SSB"]))
    return _result(
        "table10",
        "Table X — efficiency (s) for various operators (DBpedia-like)",
        ["Method", *OPERATORS],
        rows,
        claims=[
            Claim(
                "Ours answers every operator faster than SSB",
                all(ours < ssb for _operator, ours, ssb in operators),
                why_not="Ours vs SSB: "
                + ", ".join(f"{op} {ours:.3f} s vs {ssb:.3f} s" for op, ours, ssb in operators)
                + f": SSB's exact enumeration is cheap at scale {EFFECTIVENESS_SCALE:g}; "
                f"Table VIII (scale {EFFICIENCY_SCALE:g}) and `scaling` show where Ours "
                "pulls ahead",
            ),
        ],
        notes="GROUP-BY rows: methods without grouped evaluation are '-', as in the paper.",
    )


def table11_operator_error(seed: int = 0) -> ExperimentResult:
    """Table XI: effectiveness for operators w.r.t. tau-GT and HA-GT."""
    runs = _operator_runs(seed)
    rows: list[list[object]] = []
    for method in method_names():
        row: list[object] = [method]
        for truth_kind in ("tau", "ha"):
            for operator in OPERATORS:
                values = [
                    (run.tau_error if truth_kind == "tau" else run.ha_error) * 100.0
                    for run in runs
                    if run.method == method and run.shape == operator and run.supported
                ]
                row.append(mean_or_nan(values))
        rows.append(row)
    headers = ["Method"] + [f"{op}({truth})" for truth in ("tau", "HA") for op in OPERATORS]
    errors = {row[0]: row[1:] for row in rows}
    others = [errors[method] for method in errors if method not in ("Ours", "SSB")]
    return _result(
        "table11",
        "Table XI — relative error (%) for various operators (DBpedia-like)",
        headers,
        rows,
        claims=[
            Claim(
                "Ours' error is below every other method's on every operator, vs both "
                "truths (SSB, which is tau-GT, aside)",
                all(
                    ours < other[column]
                    for column, ours in enumerate(errors["Ours"])
                    for other in others
                    if other[column] == other[column]
                ),
            ),
            _within_eb("Ours' Filter error vs tau-GT is", errors["Ours"][:1]),
        ],
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
        claims=[
            Claim(
                "S3 (the CI) costs no more than S1 + S2 on every operator",
                all(s3 <= s1 + s2 for _operator, s1, s2, s3 in rows),
            ),
        ],
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
    embed_seconds, memory, separation = (
        {row[0]: row[column] for row in rows} for column in (1, 2, 3)
    )
    return _result(
        "table13",
        "Table XIII — effect of KG embedding models (DBpedia-like, HA-GT)",
        ["Model", "Embed time (s)", "Memory (MB)", "Separation", "Relative error (%)"],
        rows,
        claims=[
            Claim(
                "TransE needs less memory than RESCAL and SE",
                memory["TransE"] < min(memory["RESCAL"], memory["SE"]),
            ),
            Claim("TransE trains faster than SE", embed_seconds["TransE"] < embed_seconds["SE"]),
            Claim(
                "TransE separates correct-schema from near-miss predicates better than "
                "RESCAL and SE",
                separation["TransE"] > max(separation["RESCAL"], separation["SE"]),
            ),
        ],
        notes=(
            "Separation is the margin by which correct-schema predicates "
            "outrank near-misses w.r.t. the canonical predicate. "
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


def _config_rows(
    context: BenchContext,
    configs: dict[object, PaperConfig],
    query_seed: int,
) -> list[list[object]]:
    """``[label, function, error (%), time (ms)]`` per config label (an
    ablation's variant or a sweep's value) and hub query."""
    queries = _hub_queries(context, "germany_cars")
    rows: list[list[object]] = []
    for label, config in configs.items():
        for aggregate_query in queries:
            truth = context.tau_ground_truth(aggregate_query)
            started = time.perf_counter()
            result = context.engine(config).execute(aggregate_query, seed=query_seed)
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
    rows = _config_rows(context, configs, seed + 31)
    errors = _errors(rows)
    topology_only = (errors["CNARW"], errors["Node2Vec"])
    return _result(
        "fig5a",
        "Fig 5(a) — effect of S1 (sampling) on error (%) and time (ms)",
        ["Sampler", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                "Semantic-aware sampling has the lowest error on every function",
                all(
                    error < min(other[function] for other in topology_only)
                    for function, error in errors["semantic-aware"].items()
                ),
            ),
        ],
    )


def fig5b_validation_ablation(seed: int = 0) -> ExperimentResult:
    """Fig 5(b): with vs without correctness validation."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {
        "with validation": PaperConfig(seed=seed),
        "without validation": PaperConfig(seed=seed, validate_correctness=False),
    }
    rows = _config_rows(context, configs, seed + 31)
    errors = _errors(rows)
    return _result(
        "fig5b",
        "Fig 5(b) — effect of S2 (correctness validation)",
        ["Variant", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                "Validation lowers the error on every function",
                all(
                    error < errors["without validation"][function]
                    for function, error in errors["with validation"].items()
                ),
            ),
        ],
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
    rows = _config_rows(context, configs, seed + 31)
    errors = _errors(rows)
    return _result(
        "fig5c",
        "Fig 5(c) — effect of S3 (sample-size configuration)",
        ["Strategy", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                f"Both schedules reach similar error: within eb = {EB_PERCENT:g} point of "
                "each other on every function",
                all(
                    abs(error - errors["fixed(+50)"][function]) <= EB_PERCENT
                    for function, error in errors["error-based"].items()
                ),
            ),
        ],
        notes="The paper also reports fewer rounds for the error-based schedule; these "
        "rows do not count rounds.",
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
    added: dict[str, list[int]] = {}
    for row in rows:
        added.setdefault(row[0], []).append(row[3])
    return _result(
        "fig6a",
        "Fig 6(a) — interactive error-bound refinement",
        ["Function", "eb step", "Incremental time (ms)", "Added draws", "Estimate"],
        rows,
        claims=[
            Claim(
                "Tightening eb keeps the draws already made: every step only adds draws, "
                "and 2% -> 1% adds the most, as n ~ 1/eb^2 predicts",
                all(min(counts) >= 0 and counts[-1] == max(counts) for counts in added.values()),
            ),
        ],
    )


def fig6b_confidence_level(seed: int = 0) -> ExperimentResult:
    """Fig 6(b): error and time vs confidence level."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    levels = (0.86, 0.89, 0.92, 0.95, 0.98)
    configs = {level: PaperConfig(seed=seed, confidence_level=level) for level in levels}
    rows = _config_rows(context, configs, seed + 41)
    errors = _errors(rows)
    lowest, highest = errors[levels[0]], errors[levels[-1]]
    return _result(
        "fig6b",
        "Fig 6(b) — effect of confidence level 1-alpha",
        ["1-alpha", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                "Higher confidence -> tighter MoE requirement -> more samples, less error: "
                "every function's error at 0.98 is at most its error at 0.86",
                all(highest[function] <= lowest[function] for function in lowest),
                why_not=", ".join(
                    f"{function} {error:.2f}% at 0.86 vs {highest[function]:.2f}% at 0.98"
                    for function, error in lowest.items()
                )
                + f": every level ends well within eb = {EB_PERCENT:g}%, where one fixed-seed "
                "run's error is sampling noise rather than a trend",
            ),
        ],
    )


def fig6c_repeat_factor(seed: int = 0) -> ExperimentResult:
    """Fig 6(c): error and time vs the repeat factor r."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {r: PaperConfig(seed=seed, repeat_factor=r) for r in (1, 2, 3, 4, 5)}
    rows = _config_rows(context, configs, seed + 41)
    errors = _errors(rows)
    mean_errors = {r: mean_or_nan(list(by_function.values())) for r, by_function in errors.items()}
    return _result(
        "fig6c",
        "Fig 6(c) — effect of repeat factor r",
        ["r", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                "Larger r reduces validation false negatives: the mean error over "
                "functions is lower at r = 3 than at r = 1",
                mean_errors[3] < mean_errors[1],
                why_not=f"the mean error is {mean_errors[1]:.3f}% at r = 1 and "
                f"{mean_errors[3]:.3f}% at r = 3: on this hub the r-path search misses "
                "the same correct candidates at every r, so a larger r has no false "
                "negative to recover",
            ),
            Claim(
                "The error stabilises from r = 3: r = 3, 4 and 5 give the same error on "
                "every function",
                errors[3] == errors[4] == errors[5],
            ),
        ],
    )


def fig6d_sample_ratio(seed: int = 0) -> ExperimentResult:
    """Fig 6(d): error and time vs the desired sample ratio lambda."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    ratios = (0.1, 0.2, 0.3, 0.4, 0.5)
    configs = {ratio: PaperConfig(seed=seed, sample_ratio=ratio) for ratio in ratios}
    rows = _config_rows(context, configs, seed + 41)
    return _result(
        "fig6d",
        "Fig 6(d) — effect of desired sample ratio lambda",
        ["lambda", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            _within_eb(
                "lambda only sizes the first sample: the error at every lambda is",
                [row[2] for row in rows],
            ),
        ],
    )


def fig6e_nbound(seed: int = 0) -> ExperimentResult:
    """Fig 6(e): error and time vs the n-bounded subgraph size."""
    context = bench_context("dbpedia-like", seed=seed, scale=EFFECTIVENESS_SCALE)
    configs = {n: PaperConfig(seed=seed, n_bound=n) for n in (1, 2, 3, 4)}
    rows = _config_rows(context, configs, seed + 41)
    errors = _errors(rows)
    return _result(
        "fig6e",
        "Fig 6(e) — effect of the n-bounded subgraph",
        ["n", "Function", "Relative error (%)", "Time (ms)"],
        rows,
        claims=[
            Claim(
                "Small n misses correct answers: every function's error at n = 3 is at "
                "most its error at n = 1",
                all(errors[3][function] <= error for function, error in errors[1].items()),
            ),
            _within_eb(
                "The error stabilises once n covers the answers: the error at every n >= 3 is",
                [row[2] for row in rows if row[0] >= 3],
            ),
        ],
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
    ha_means = {
        tau: mean_or_nan(list(errors.values()))
        for tau, errors in _errors(rows, column=3).items()
    }
    return _result(
        "fig6f",
        "Fig 6(f) — effect of the semantic similarity threshold tau",
        ["tau", "Function", "Error vs tau-GT (%)", "Error vs HA-GT (%)"],
        rows,
        claims=[
            _within_eb("The tau-GT error at every tau is", [row[2] for row in rows]),
            Claim(
                "HA-GT error, averaged over functions, is lowest at the calibrated "
                f"tau = {PaperConfig.tau:g}",
                min(ha_means, key=ha_means.__getitem__) == PaperConfig.tau,
            ),
        ],
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
    chains = [row for row in rows if row[1] == "chain"]
    return _result(
        "scaling",
        "Scaling crossover — ours vs exact SSB (COUNT)",
        ["KG scale", "Shape", "Ours (ms)", "SSB (ms)", "Ours error (%)"],
        rows,
        claims=[
            Claim(
                "Sampling takes over as the graph grows: on the largest graph Ours "
                "answers faster than SSB on both shapes",
                all(ours < ssb for _scale, _shape, ours, ssb, _error in rows[-2:]),
            ),
            Claim(
                "SSB's exhaustive chain enumeration grows faster than sampling: from the "
                "smallest graph to the largest, its chain time grows by a larger factor",
                chains[-1][3] / chains[0][3] > chains[-1][2] / chains[0][2],
            ),
        ],
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
    pooled: dict[tuple[str, str], list[float]] = {}
    for _dataset, function, method, _truth, mean_error, _median in rows:
        pooled.setdefault((method, function[:3]), []).append(mean_error)
    evt_max, sample_max, evt_min, sample_min = (
        mean_or_nan(pooled[key])
        for key in (("evt", "MAX"), ("sample", "MAX"), ("evt", "MIN"), ("sample", "MIN"))
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
        claims=[
            Claim(
                "EVT pays off for MAX: its mean error, pooled over datasets, is below the "
                "sample maximum's",
                evt_max < sample_max,
            ),
            Claim(
                "The sample minimum stays the better MIN estimator: its pooled mean error "
                "is below EVT's, and above 0 (it misses the population minimum)",
                0.0 < sample_min < evt_min,
            ),
        ],
        notes=(
            "EVT extrapolates past the sample extremum with a GPD tail fit, which suits "
            "the heavy (Frechet-domain) upper tails of the lognormal attributes, not "
            "their short lower tails. Median shows the typical run; the mean is "
            "tail-sensitive."
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
    errors = {(row[0], row[1], row[2]): row[5] for row in rows}
    sample_errors = [error for key, error in errors.items() if key[2] == "sample"]
    return _result(
        "ext_normalization",
        "Extension — estimator normalisation ablation (COUNT/SUM)",
        ["Dataset", "Function", "Normalization", "Estimate", "tau-GT", "Error (%)"],
        rows,
        claims=[
            Claim(
                "Literal Eq. 7-8 overestimates every COUNT and SUM, and Hansen-Hurwitz is "
                "closer to tau-GT on each",
                all(
                    estimate > truth and errors[dataset, function, "sample"] < error
                    for dataset, function, method, estimate, truth, error in rows
                    if method == "paper"
                ),
            ),
            Claim("Hansen-Hurwitz's mean error is below 5%", mean_or_nan(sample_errors) < 5.0),
        ],
        notes=(
            "'sample' = Hansen-Hurwitz (unbiased under i.i.d. draws over all "
            "candidates); 'paper' = literal Eq. 7-8, biased up by the share "
            "of below-tau draws in the sample."
        ),
    )
