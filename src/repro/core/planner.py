"""The planning layer: shared query plans, with S1 on demand.

A :class:`QueryPlanner` turns one query component into its immutable plan
— the mapping node and a validator bound to it — and publishes it in the
process-wide :class:`~repro.core.plan.PlanCache`, so that every engine and
session over the same graph, predicate space and configuration reuses one
plan instead of rebuilding it.  A census reads only the validator's row.
S1 — scope, closed-form Eq. 5/6 stationary distribution and Theorem-1
answer restriction, all three from the batched stage kernel
(:func:`~repro.sampling.strength.stage_distributions`, under the semantic
or the CNARW weights; only the Node2Vec ablation builds a per-source scope
and walks it) — runs when a plan first draws (:meth:`QueryPlan.sample`),
or at build time for the figures' planner, whose r-path search walks the
first stage.  The executor
(:mod:`repro.core.executor`) consumes plans; the engine facade
(:mod:`repro.core.engine`) only wires the two.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.config import EngineConfig, SamplerKind
from repro.core.plan import (
    PlanCache,
    PlanSample,
    QueryPlan,
    plan_key,
    shared_plan_cache,
)
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import QueryError, SamplingError
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import child_span
from repro.query.graph import PathQuery
from repro.sampling.chain import ChainSampler
from repro.sampling.collector import restrict_to_answers
from repro.sampling.scope import build_scope, resolve_mapping_node
from repro.sampling.strength import (
    Stage,
    similarity_entry_weights,
    stage_distributions,
)
from repro.sampling.topology import cnarw_entry_weights, node2vec_visit_distribution
from repro.semantics.validation import ChainValidator, CorrectnessValidator
from repro.utils.rng import derive_seed


class QueryPlanner:
    """Builds (or fetches) one immutable plan per query component.

    A plan comes from the process-wide :class:`PlanCache`, and only on a
    miss from an actual build (counted in :attr:`build_count`).  The
    planner keeps no plan of its own, so the cache's LRU bound is what
    bounds the plans a process holds (beyond those live queries hold).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        cache: PlanCache | None = None,
    ) -> None:
        self._kg = kg
        self._space = space
        self.config = config
        self._cache = cache if cache is not None else shared_plan_cache()
        #: plans actually built by this planner (cache misses); the
        #: service tests assert one build per shared (component, config)
        #: plan across a whole concurrent batch.  A plan's S1 run on its
        #: first draw is no build
        self.build_count = 0
        #: calls of the batched S1 stage kernel (``repro_plan_stage_batches``)
        #: and the walks they settled (``repro_plan_stage_sources``)
        self.stage_batches = 0
        self.stage_sources = 0

    @property
    def cache(self) -> PlanCache:
        """The (usually process-wide) plan cache this planner publishes to."""
        return self._cache

    def plan_for(self, component: PathQuery) -> QueryPlan:
        """The component's plan: shared cache or fresh build."""
        # get-or-build coordinates across threads: concurrent planners
        # (serving scheduler, engines on other threads) build a key at
        # most once; everyone else adopts the published plan.  The version
        # captured before building gates publication: a structural mutation
        # during the build keeps the plan private.
        return self._cache.get_or_build(
            self._kg,
            plan_key(component, self._space, self.config),
            lambda: self._counted_build(component),
        )

    def _counted_build(self, component: PathQuery) -> QueryPlan:
        self.build_count += 1
        with child_span(
            "plan_build", predicates=",".join(component.predicates)
        ):
            return self._build(component)

    # ------------------------------------------------------------------
    # Plan construction, and S1 for the draws
    # ------------------------------------------------------------------
    def _validator(
        self,
        component: PathQuery,
        source: int,
        scope: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> CorrectnessValidator | ChainValidator:
        """The validator of a built plan: its first leg (:meth:`_first_leg`),
        wrapped in a :class:`ChainValidator` for a chain component."""
        first_leg = self._first_leg(component, source, scope)
        if component.is_simple:
            return first_leg
        return ChainValidator(
            self._kg,
            self._space,
            component,
            first_leg,
            max_length=self.config.n_bound,
            floor=self.config.similarity_floor,
        )

    def _first_leg(
        self,
        component: PathQuery,
        source: int,
        scope: tuple[np.ndarray, np.ndarray] | None,
    ) -> CorrectnessValidator:
        """The validator bound to the plan's mapping node and first
        predicate.

        ``scope`` is the first S1 stage's ``(nodes, probabilities)`` when
        the build ran S1 (the figures' planner) and ``None`` otherwise.
        The exact row ignores it; the figures' planner overrides this and
        its r-path search walks the stage's probabilities.
        """
        return CorrectnessValidator(
            self._kg,
            self._space,
            source,
            component.predicates[0],
            max_length=self.config.n_bound,
            floor=self.config.similarity_floor,
        )

    def _stage(
        self,
        sources: np.ndarray,
        predicate: str,
        node_types: frozenset[str],
        hop: int = 0,
    ) -> list[Stage | SamplingError]:
        """The closed-form S1 stage of every semantic or CNARW build, one
        kernel call: a simple plan or a chain's first hop as a batch of
        one, a later chain hop with all its kept routes."""
        config = self.config
        if config.sampler is SamplerKind.CNARW:
            # the Fig. 5(a) ablation ignores predicates, so it must not ask
            # the embedding to cover the scope's edges
            weigh = partial(cnarw_entry_weights, self._kg)
        else:
            weigh = partial(
                similarity_entry_weights,
                self._kg,
                self._space,
                predicate,
                config.similarity_floor,
            )
        self.stage_batches += 1
        self.stage_sources += len(sources)
        with child_span("s1_stage", hop=hop, sources=len(sources)) as span:
            stages = stage_distributions(
                self._kg,
                sources,
                node_types,
                weigh,
                n_bound=config.n_bound,
                self_loop_weight=config.self_loop_weight,
            )
            if span is not None:
                # scope nodes over the sources that have a stage
                span.annotate(
                    reached=sum(
                        len(stage.nodes)
                        for stage in stages
                        if not isinstance(stage, SamplingError)
                    )
                )
        return stages

    def _first_stage(
        self, source: int, predicate: str, node_types: frozenset[str]
    ) -> Stage:
        (stage,) = self._stage(np.asarray([source]), predicate, node_types)
        if isinstance(stage, SamplingError):
            raise stage
        return stage

    def _build(self, component: PathQuery) -> QueryPlan:
        """The plan of ``component``: its S1 left for the first draw."""
        source = self._mapping_node(component)
        return QueryPlan(
            component=component,
            source=source,
            validator=self._validator(component, source),
            sampler=lambda: self._sample(component, source)[0],
        )

    def _mapping_node(self, component: PathQuery) -> int:
        """The component's mapping node; a chain the sampler cannot walk
        fails here, at plan time, not at its first draw."""
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        if not component.is_simple and self.config.sampler is SamplerKind.NODE2VEC:
            raise QueryError(
                f"the {self.config.sampler.value} sampler has no chain walk: "
                f"the chain component from {component.specific_name!r} needs "
                "the semantic or the cnarw sampler"
            )
        return source

    def _sample(
        self, component: PathQuery, source: int
    ) -> tuple[PlanSample, tuple[np.ndarray, np.ndarray]]:
        """S1 of ``component``: its :class:`PlanSample` and the first
        stage's ``(nodes, probabilities)`` (the figures' r-path search
        walks them)."""
        config = self.config
        predicate, target_types = component.hops[0]
        if config.sampler is SamplerKind.NODE2VEC:
            # The Fig. 5(a) Node2Vec ablation is a second-order walk: no
            # closed form, so it simulates the walk over a per-source scope.
            scope = build_scope(self._kg, source, config.n_bound, target_types)
            if scope.num_candidates == 0:
                raise SamplingError(
                    f"no candidate of types {sorted(target_types)} within "
                    f"{config.n_bound} hops of {component.specific_name!r}"
                )
            probabilities = node2vec_visit_distribution(
                self._kg, scope, seed=derive_seed(config.seed, "node2vec", source)
            )
            distribution = restrict_to_answers(scope, probabilities)
            sample = PlanSample(distribution, 0, scope.num_candidates)
            return sample, (scope.nodes, probabilities)
        first = self._first_stage(source, predicate, target_types)
        if component.is_simple:
            # the paper's N_ws is 0: closed form, no walk iterated
            sample = PlanSample(first.distribution, 0, first.num_candidates)
        else:
            # the plan keeps the composed marginal only
            distribution, expanded = ChainSampler(
                self._kg, self._stage, max_intermediates=config.max_intermediates
            ).build(component, first.distribution)
            sample = PlanSample(distribution, expanded, distribution.support_size)
        return sample, (first.nodes, first.probabilities)
