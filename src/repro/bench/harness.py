"""Method and ground-truth wiring shared by all experiments.

A :class:`BenchContext` memoises, per (preset, seed, scale): the dataset
bundle, its predicate space, a trained TransE model for the EAQ comparator,
SSB/HA ground truths per query, and the standard workload.  ``run_method``
executes any of the paper's eight methods on one query with *cold* per-call
state so timings are comparable.

"Ours" runs on :func:`figure_engine`: the paper's model end to end.  Its
executor is :class:`~repro.bench.sampled.SampledExecutor`, which always
samples where a production query answers by census, so the figures sweep
what the paper's knobs do to a sample rather than read one exact answer,
and its planner binds the paper's greedy r-path search (§IV-B2) as each
plan's validator instead of the exact similarity row, so ``r`` and the
search budget act as in the paper.  Each figure engine keeps its plans in
a cache of its own: every run is cold, and no paper verdict reaches a
plan a production engine reads.  :func:`sampled_engine` is the same
sampled executor over the production planner (exact S2): what the tests
of the sampling mechanics run on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.baselines import (
    EaqBaseline,
    GrabBaseline,
    QgaBaseline,
    SemanticSimilarityBaseline,
    SgqBaseline,
    SparqlStyleEngine,
)
from repro.baselines.ssb import GroundTruth
from repro.bench.metrics import grouped_relative_error, relative_error
from repro.bench.sampled import (
    VALIDATION_EXPANSIONS,
    PaperConfig,
    PlanSampler,
    SampledExecutor,
)
from repro.core.engine import ApproximateAggregateEngine
from repro.core.plan import PlanCache, QueryPlan
from repro.core.planner import QueryPlanner, resolve_mapping_node
from repro.core.result import ApproximateResult, GroupedResult
from repro.datasets import (
    ALL_PRESETS,
    AnnotationOracle,
    DatasetBundle,
    HumanGroundTruth,
    WorkloadQuery,
    standard_workload,
)
from repro.embedding import EmbeddingTrainer, TrainingConfig, TransEModel
from repro.errors import ReproError
from repro.query.aggregate import AggregateQuery
from repro.query.graph import PathQuery
from repro.semantics.reference import ReferenceValidator

#: the paper's method roster (Tables VI-VIII)
METHODS = ("Ours", "EAQ", "GraB", "QGA", "SGQ", "JENA", "Virtuoso", "SSB")


def method_names() -> tuple[str, ...]:
    """All comparator names, in the paper's table order."""
    return METHODS


def sampled_engine(kg, embedding, config: PaperConfig | None = None):
    """An engine whose executor (and service) always samples."""
    engine = ApproximateAggregateEngine(kg, embedding, config or PaperConfig())
    engine._executor = SampledExecutor(
        kg, engine.space, engine.config, engine.planner
    )
    return engine


class PaperPlanner(QueryPlanner):
    """A planner whose plans validate with the paper's r-path search.

    It publishes into a :class:`PlanCache` of its own, so its plans — and
    the greedy verdicts memoised on them — never meet a production
    engine's.  It builds pi_A with the plan (its own :class:`PlanSampler`
    runs S1 and memoises it on the plan), not on the first draw, and
    binds its own first leg only — a chain plan wraps it in the base
    planner's :class:`~repro.semantics.validation.ChainValidator` — and
    each search walks the visiting map of the first S1 stage of its build.
    A simple plan's search stops at ``tau`` (the verdict cannot change past
    it); a chain's first leg runs all ``r`` paths to every typed
    intermediate within the bound, as the best one found seeds the chain's
    exact later legs.
    """

    def __init__(self, kg, space, config: PaperConfig | None = None) -> None:
        super().__init__(kg, space, config or PaperConfig(), cache=PlanCache())
        self.sampler = PlanSampler(kg, space, self.config)

    def _build(self, component: PathQuery) -> QueryPlan:
        """A plan with S1 run at once: its first leg's search walks the
        first stage's visiting map (node id -> stationary probability)."""
        config = self.config
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        sample, (nodes, probabilities) = self.sampler.run(component, source)
        first_leg = ReferenceValidator(
            self._kg,
            self._space,
            source,
            component.predicates[0],
            {
                node: probability
                for node, probability in zip(
                    np.asarray(nodes).tolist(), np.asarray(probabilities).tolist()
                )
                if probability > 0.0
            },
            repeat_factor=config.repeat_factor,
            max_length=config.n_bound,
            expansion_budget=VALIDATION_EXPANSIONS,
            stop_threshold=config.tau if component.is_simple else None,
        )
        plan = QueryPlan(
            component=component,
            source=source,
            validator=self._validator(component, first_leg),
        )
        self.sampler.adopt(plan, sample)
        return plan


def figure_engine(kg, embedding, config: PaperConfig | None = None):
    """A cold engine on the paper's model: the r-path validator, no census."""
    engine = ApproximateAggregateEngine(kg, embedding, config or PaperConfig())
    engine._planner = PaperPlanner(kg, engine.space, engine.config)
    engine._executor = SampledExecutor(
        kg, engine.space, engine.config, engine.planner
    )
    return engine


@dataclass(frozen=True)
class MethodResult:
    """One method's outcome on one query."""

    method: str
    value: float | None
    elapsed_seconds: float
    answers: frozenset[int] = frozenset()
    groups: dict[float, float] = field(default_factory=dict)
    supported: bool = True

    def error_against(self, truth_value: float, truth_groups: dict[float, float]) -> float:
        """Relative error vs a scalar or grouped ground truth."""
        if not self.supported or self.value is None:
            return float("nan")
        if truth_groups:
            return grouped_relative_error(self.groups, truth_groups)
        return relative_error(self.value, truth_value)


class BenchContext:
    """Everything an experiment needs about one dataset configuration."""

    def __init__(self, preset: str, seed: int = 0, scale: float = 1.0) -> None:
        if preset not in ALL_PRESETS:
            raise ReproError(f"unknown preset {preset!r}")
        self.preset = preset
        self.seed = seed
        self.scale = scale
        self.bundle: DatasetBundle = ALL_PRESETS[preset](seed=seed, scale=scale)
        self.space = self.bundle.space()
        self._ssb = SemanticSimilarityBaseline(self.bundle.kg, self.space)
        self._oracle = AnnotationOracle(self.bundle)
        self._tau_cache: dict[AggregateQuery, GroundTruth] = {}
        self._ha_cache: dict[AggregateQuery, HumanGroundTruth] = {}
        self._trained_transe: TransEModel | None = None

    # ------------------------------------------------------------------
    @property
    def workload(self) -> list[WorkloadQuery]:
        """The standard workload of this context's bundle (memoised)."""
        return standard_workload(self.bundle)

    def tau_ground_truth(self, aggregate_query: AggregateQuery) -> GroundTruth:
        """Memoised tau-GT via SSB for one query."""
        cached = self._tau_cache.get(aggregate_query)
        if cached is None:
            cached = self._ssb.ground_truth(aggregate_query)
            self._tau_cache[aggregate_query] = cached
        return cached

    def ha_ground_truth(self, aggregate_query: AggregateQuery) -> HumanGroundTruth:
        """Memoised HA-GT via the annotation oracle for one query."""
        cached = self._ha_cache.get(aggregate_query)
        if cached is None:
            cached = self._oracle.ground_truth(aggregate_query)
            self._ha_cache[aggregate_query] = cached
        return cached

    @property
    def oracle(self) -> AnnotationOracle:
        """The simulated-annotator oracle for this bundle."""
        return self._oracle

    def trained_transe(self) -> TransEModel:
        """A TransE model trained on this bundle (for the EAQ comparator)."""
        if self._trained_transe is None:
            kg = self.bundle.kg
            model = TransEModel(
                kg.num_nodes,
                kg.num_predicates,
                dim=32,
                predicate_names=list(kg.predicates),
                seed=self.seed,
            )
            EmbeddingTrainer(TrainingConfig(epochs=25, seed=self.seed)).train(model, kg)
            self._trained_transe = model
        return self._trained_transe

    # ------------------------------------------------------------------
    def engine(self, config: PaperConfig | None = None) -> ApproximateAggregateEngine:
        """A fresh (cold) :func:`figure_engine`; timings include all
        per-query stages."""
        return figure_engine(self.bundle.kg, self.space, config)


@lru_cache(maxsize=12)
def bench_context(preset: str, seed: int = 0, scale: float = 1.0) -> BenchContext:
    """Memoised BenchContext for (preset, seed, scale)."""
    return BenchContext(preset, seed=seed, scale=scale)


def run_method(
    context: BenchContext,
    method: str,
    query: WorkloadQuery,
    *,
    engine_config: PaperConfig | None = None,
    query_seed: int | None = None,
) -> MethodResult:
    """Execute ``method`` cold on one workload query."""
    aggregate_query = query.aggregate_query
    kg = context.bundle.kg
    space = context.space

    if method == "Ours":
        engine = context.engine(engine_config)
        started = time.perf_counter()
        result = engine.execute(aggregate_query, seed=query_seed)
        elapsed = time.perf_counter() - started
        if isinstance(result, GroupedResult):
            return MethodResult(
                method=method,
                value=float(result.num_groups),
                elapsed_seconds=elapsed,
                groups={key: r.value for key, r in result.groups.items()},
            )
        assert isinstance(result, ApproximateResult)
        return MethodResult(method=method, value=result.value, elapsed_seconds=elapsed)

    if method == "SSB":
        baseline = SemanticSimilarityBaseline(kg, space)
    elif method == "SGQ":
        baseline = SgqBaseline(kg, space)
    elif method == "GraB":
        baseline = GrabBaseline(kg)
    elif method == "QGA":
        baseline = QgaBaseline(kg)
    elif method in ("JENA", "Virtuoso"):
        baseline = SparqlStyleEngine(kg, label=method)
    elif method == "EAQ":
        baseline = EaqBaseline(kg, context.trained_transe())
    else:
        raise ReproError(f"unknown method {method!r}")

    try:
        answer = baseline.answer(aggregate_query)
    except ReproError:
        return MethodResult(
            method=method, value=None, elapsed_seconds=0.0, supported=False
        )
    return MethodResult(
        method=method,
        value=answer.value,
        elapsed_seconds=answer.elapsed_seconds,
        answers=answer.answers,
        groups=answer.groups,
    )
