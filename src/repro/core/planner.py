"""The planning layer: S1 preparation producing shared :class:`QueryPlan`s.

A :class:`QueryPlanner` turns one query component into its immutable
sampling artefacts — scope, closed-form Eq. 5/6 stationary distribution and
Theorem-1 answer restriction, all three from the batched stage kernel
(:func:`~repro.sampling.strength.stage_distributions`; only the topology
ablations build a per-source scope, only CNARW iterates), and the greedy
validator — and publishes the result in the process-wide
:class:`~repro.core.plan.PlanCache` so that every engine and session over
the same graph, predicate space and configuration reuses one plan instead
of rebuilding it.  The executor (:mod:`repro.core.executor`) consumes
plans; the engine facade (:mod:`repro.core.engine`) only wires the two.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig, SamplerKind
from repro.core.plan import (
    PlanCache,
    QueryPlan,
    plan_key,
    shared_plan_cache,
)
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError, StoreError
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import child_span
from repro.query.graph import PathQuery
from repro.sampling.chain import ChainSampler
from repro.sampling.collector import restrict_to_answers
from repro.sampling.scope import build_scope, resolve_mapping_node
from repro.sampling.stationary import dense_visiting_array, stationary_distribution
from repro.sampling.strength import Stage, stage_distributions
from repro.sampling.topology import (
    cnarw_transition_model,
    node2vec_visit_distribution,
)
from repro.semantics.validation import CorrectnessValidator
from repro.utils.rng import derive_seed


def build_validator(
    kg: KnowledgeGraph, space: PredicateVectorSpace, config: EngineConfig
) -> CorrectnessValidator:
    """A fresh greedy validator wired the way plans expect.

    Module-level so plan reconstruction sites — the snapshot catalog and
    the worker processes of the parallel backends — rebuild validators
    identically to :class:`QueryPlanner`'s own S1 builds.
    """
    return CorrectnessValidator(
        kg,
        space,
        repeat_factor=config.repeat_factor,
        max_length=config.n_bound,
        floor=config.similarity_floor,
        expansion_budget=config.validation_expansions,
    )


class QueryPlanner:
    """Builds (or fetches) one immutable plan per query component.

    Resolution order: engine-local view, process-wide :class:`PlanCache`,
    then — when a :class:`~repro.store.catalog.SnapshotCatalog` is wired
    in — the on-disk catalog, and only on a full miss an actual S1 build
    (counted in :attr:`build_count`; catalog hits are not builds).  Fresh
    builds are saved back to the catalog so the next process skips S1.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        config: EngineConfig,
        cache: PlanCache | None = None,
        catalog=None,
    ) -> None:
        self._kg = kg
        self._space = space
        self.config = config
        self._cache = cache if cache is not None else shared_plan_cache()
        self._catalog = catalog
        #: engine-local plan view, keyed by component; dropped when the
        #: graph's structure moves so stale plans never survive a mutation
        self.plans: dict[PathQuery, QueryPlan] = {}
        self._planned_structure_version = kg.structure_version
        #: S1 builds actually executed by this planner (cache misses); the
        #: service tests assert one build per shared (component, config)
        #: plan across a whole concurrent batch, and the store
        #: tests assert catalog reloads leave it untouched
        self.build_count = 0
        #: plans adopted from the catalog instead of being built
        self.catalog_hits = 0
        #: unreadable catalog entries encountered (rebuilt + overwritten)
        self.catalog_errors = 0
        #: CNARW walks out of step budget (``repro_plan_unconverged_walks``)
        self.unconverged_walks = 0
        #: calls of the batched S1 stage kernel (``repro_plan_stage_batches``)
        #: and the walks they settled (``repro_plan_stage_sources``)
        self.stage_batches = 0
        self.stage_sources = 0

    @property
    def cache(self) -> PlanCache:
        """The (usually process-wide) plan cache this planner publishes to."""
        return self._cache

    def plan_for(self, component: PathQuery) -> QueryPlan:
        """The component's plan: local view, shared cache, or fresh build."""
        structure_version = self._kg.structure_version
        if self._planned_structure_version != structure_version:
            self.plans.clear()
            self._planned_structure_version = structure_version
        local = self.plans.get(component)
        if local is not None:
            return local
        key = plan_key(component, self._space, self.config)
        # get-or-build coordinates across threads: concurrent planners
        # (serving scheduler, engines on other threads) run S1 for a key at
        # most once; everyone else adopts the published plan.  The version
        # captured before building gates publication: a structural mutation
        # during the build keeps the plan private.
        plan = self._cache.get_or_build(
            self._kg, key, lambda: self._build_or_load(component)
        )
        self.plans[component] = plan
        return plan

    def _build_or_load(self, component: PathQuery) -> QueryPlan:
        """Catalog-aware builder run under ``PlanCache.get_or_build``.

        A catalog hit reconstructs the plan around the memory-mapped
        artefacts (fresh validator, empty memos) without counting as an
        S1 build; a miss builds normally and saves the artefacts back.
        An *unreadable* catalog entry (format-version bump, corruption)
        must never take queries down: it is counted in
        :attr:`catalog_errors` and rebuilt — the fresh save overwrites
        the bad file, self-healing the catalog.
        """
        if self._catalog is not None:
            try:
                plan = self._catalog.try_load_plan(
                    self._kg,
                    self._space,
                    self.config,
                    component,
                    validator=self._validator(),
                )
            except (StoreError, OSError):
                plan = None
                self.catalog_errors += 1
            if plan is not None:
                self.catalog_hits += 1
                return plan
        plan = self._counted_build(component)
        if self._catalog is not None:
            try:
                self._catalog.save_plan(self._kg, self._space, self.config, plan)
            except (StoreError, OSError):
                # a full disk / read-only catalog must not fail the query
                # the plan was just successfully built for
                self.catalog_errors += 1
        return plan

    def _counted_build(self, component: PathQuery) -> QueryPlan:
        self.build_count += 1
        with child_span(
            "plan_build", predicates=",".join(component.predicates)
        ):
            return self._build(component)

    # ------------------------------------------------------------------
    # Plan construction (S1)
    # ------------------------------------------------------------------
    def _validator(self) -> CorrectnessValidator:
        return build_validator(self._kg, self._space, self.config)

    def _stage(
        self,
        sources: np.ndarray,
        predicate: str,
        node_types: frozenset[str],
        hop: int = 0,
    ) -> list[Stage | SamplingError]:
        """The closed-form S1 stage of every semantic build, one kernel call:
        a simple plan or a chain's first hop (``visiting`` map included) as
        a batch of one, a later chain hop with all its kept routes."""
        config = self.config
        self.stage_batches += 1
        self.stage_sources += len(sources)
        with child_span("s1_stage", hop=hop, sources=len(sources)) as span:
            stages = stage_distributions(
                self._kg,
                self._space,
                sources,
                predicate,
                node_types,
                n_bound=config.n_bound,
                self_loop_weight=config.self_loop_weight,
                similarity_floor=config.similarity_floor,
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
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        if component.is_simple:
            return self._build_simple(component, source)
        return self._build_chain(component, source)

    def _build_simple(self, component: PathQuery, source: int) -> QueryPlan:
        config = self.config
        predicate, target_types = component.hops[0]
        iterations = 0  # the paper's N_ws; 0 = closed form, no walk iterated
        if config.sampler is SamplerKind.SEMANTIC:
            nodes, probabilities, num_candidates, distribution = self._first_stage(
                source, predicate, target_types
            )
        else:
            # The Fig. 5(a) topology ablations ignore predicates, so they
            # must not ask the embedding to cover the scope's edges.
            scope = build_scope(self._kg, source, config.n_bound, target_types)
            if scope.num_candidates == 0:
                raise SamplingError(
                    f"no candidate of types {sorted(target_types)} within "
                    f"{config.n_bound} hops of {component.specific_name!r}"
                )
            if config.sampler is SamplerKind.NODE2VEC:
                probabilities = node2vec_visit_distribution(
                    self._kg, scope, seed=derive_seed(config.seed, "node2vec", source)
                )
            else:
                # CNARW's weights are not symmetric, so its walk has no
                # closed form: the ablation keeps the power iteration
                stationary = stationary_distribution(
                    cnarw_transition_model(self._kg, scope)
                )
                self.unconverged_walks += not stationary.converged
                probabilities = stationary.probabilities
                iterations = stationary.iterations
            distribution = restrict_to_answers(scope, probabilities)
            nodes, num_candidates = scope.nodes, scope.num_candidates
        return QueryPlan(
            component=component,
            source=source,
            distribution=distribution,
            visiting=dense_visiting_array(
                nodes, probabilities, self._kg.num_nodes
            ),
            walk_iterations=iterations,
            num_candidates=num_candidates,
            validator=self._validator(),
        )

    def _build_chain(self, component: PathQuery, source: int) -> QueryPlan:
        # Chain validation runs lazily per sampled answer (§V-B): the
        # answer-side legs are enumerated from the answer (whose
        # neighbourhood is small), while the hub-side leg reuses the greedy
        # r-path validator guided by the first hop's stationary map, so
        # ``visiting`` is the first hop's.
        first = self._first_stage(source, *component.hops[0])
        chain = ChainSampler(
            self._kg,
            self._stage,
            max_intermediates=self.config.max_intermediates,
        ).build(component, first.distribution)
        return QueryPlan(
            component=component,
            source=source,
            distribution=chain.distribution,
            visiting=dense_visiting_array(
                first.nodes, first.probabilities, self._kg.num_nodes
            ),
            walk_iterations=chain.expanded_intermediates,
            num_candidates=chain.distribution.support_size,
            chain=chain,
            validator=self._validator(),
        )
