"""The engine facade over the plan/execute split (paper Algorithm 2).

Execution of ``AQ_G = (Q, f_a)`` is a pipeline of three layers:

1. **Planning** — :mod:`repro.core.planner` builds one immutable
   :class:`~repro.core.plan.QueryPlan` per query component (its mapping
   node and the validator bound to it; S1 is the sampled executor's)
   and shares it through the process-wide
   :class:`~repro.core.plan.PlanCache`, so concurrent engines and services
   over the same graph reuse plans instead of rebuilding them.
2. **Validation (S2)** — :mod:`repro.core.executor` validates the
   query's whole joint candidate set in one batched pass per component
   (each plan's exact similarity row, built once) and returns the exact
   aggregate: the **census**.  Production never samples, so it runs
   neither S1's draws nor **S3** — the BLB confidence interval,
   Theorem-2 termination and Eq. 12 growth — which the paper's figures
   run on :class:`repro.bench.sampled.SampledExecutor`.
3. **Serving (S4)** — :mod:`repro.core.service` schedules many live
   queries' rounds cooperatively over shared plans; handles expose
   progressive results, refinement and cancellation.

:class:`ApproximateAggregateEngine` is the thin facade wiring a planner and
an executor together behind the unchanged public API: :meth:`execute` is a
blocking submit-and-wait over the engine's
:class:`~repro.core.service.AggregateQueryService`, byte-identical for a
fixed seed to driving the executor directly.  Validation happens once
per candidate, and every per-candidate quantity is a numpy
fancy-index.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.executor import (
    STAGE_ESTIMATION,
    STAGE_GUARANTEE,
    STAGE_SAMPLING,
    STAGE_VALIDATION,
    QueryExecutor,
)
from repro.core.planner import QueryPlanner
from repro.core.result import ApproximateResult, GroupedResult
from repro.embedding.base import PredicateEmbedding
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.graph import KnowledgeGraph
from repro.query.aggregate import AggregateQuery

__all__ = [
    "ApproximateAggregateEngine",
    "STAGE_SAMPLING",
    "STAGE_VALIDATION",
    "STAGE_ESTIMATION",
    "STAGE_GUARANTEE",
]


class ApproximateAggregateEngine:
    """Public entry point for approximate aggregate queries on a KG."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        embedding: PredicateEmbedding | PredicateVectorSpace,
        config: EngineConfig | None = None,
    ) -> None:
        self._kg = kg
        self._space = (
            embedding
            if isinstance(embedding, PredicateVectorSpace)
            else PredicateVectorSpace(embedding)
        )
        self.config = config or EngineConfig()
        self._planner = QueryPlanner(kg, self._space, self.config)
        self._executor = QueryExecutor(kg, self._space, self.config, self._planner)
        self._service: "AggregateQueryService | None" = None

    @property
    def kg(self) -> KnowledgeGraph:
        """The knowledge graph being queried."""
        return self._kg

    @property
    def space(self) -> PredicateVectorSpace:
        """The predicate vector space driving Eq. 4/5."""
        return self._space

    @property
    def planner(self) -> QueryPlanner:
        """The planning layer this engine takes plans from."""
        return self._planner

    @property
    def executor(self) -> QueryExecutor:
        """The execution layer (S2 + S3) running the rounds."""
        return self._executor

    @property
    def service(self) -> "AggregateQueryService":
        """The engine's serving layer (S4), created on first use.

        Shares the engine's planner and executor, so handles submitted
        here and blocking :meth:`execute` calls draw from the same plans
        and verdict memos.
        """
        if self._service is None:
            from repro.core.service import AggregateQueryService

            self._service = AggregateQueryService(
                self._kg,
                self._space,
                self.config,
                planner=self._planner,
                executor=self._executor,
            )
        return self._service

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(
        self, aggregate_query: AggregateQuery | str, *, seed: int | None = None
    ) -> ApproximateResult | GroupedResult:
        """Run Algorithm 2 to completion and return the result.

        ``aggregate_query`` is an :class:`AggregateQuery` or an AQL string
        (see :func:`repro.query.parser.parse_query`).  GROUP-BY queries
        return a :class:`GroupedResult`; everything else an
        :class:`ApproximateResult`.  ``seed`` overrides the config seed for
        this execution only.
        """
        return self._unwrapped_result(
            self.service.submit(aggregate_query, seed=seed)
        )

    @staticmethod
    def _unwrapped_result(handle):
        """``handle.result()`` with the service's failure wrapper removed.

        The async API wraps a failed query's stored exception in a fresh
        :class:`~repro.errors.ServiceError` (repeated raises of one
        shared object would mutate its traceback); this blocking facade
        promises the *original* error types — MappingNodeNotFoundError,
        SamplingError, ... — and each ``execute()`` owns its record
        outright, so re-raising the cause once is safe here.
        """
        from repro.errors import ServiceError

        try:
            return handle.result()
        except ServiceError as exc:
            if type(exc) is ServiceError and exc.__cause__ is not None:
                raise exc.__cause__
            raise

    def answer_similarity(self, state_or_components, node_id: int) -> float:
        """Composite answer similarity: minimum across components."""
        return self._executor.answer_similarity(state_or_components, node_id)
