"""The planning layer: shared query plans for the census.

A :class:`QueryPlanner` turns one query component into its immutable plan
— the mapping node and a validator bound to it — and publishes it in the
process-wide :class:`~repro.core.plan.PlanCache`, so that every engine and
service over the same graph, embedding and path bound reuses one plan
instead of rebuilding it; every plan floors similarities at
:data:`~repro.semantics.similarity.SIMILARITY_FLOOR` (Eq. 2).  A census reads only the
validator's row.  S1 — scope, closed-form Eq. 5/6 stationary distribution
and Theorem-1 answer restriction — is not here: only a run that draws
needs it, and :class:`repro.bench.sampled.PlanSampler` builds it for a
plan, once per sampler, on its first draw (or, for the figures' planner,
at build time); it also refuses a chain the Node2Vec ablation cannot
walk.  The executor (:mod:`repro.core.executor`) consumes plans; the
engine facade (:mod:`repro.core.engine`) only wires the two.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.plan import PlanCache, QueryPlan, plan_key, shared_plan_cache
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import MappingNodeNotFoundError
from repro.kg.graph import KnowledgeGraph
from repro.obs.trace import Clock
from repro.query.graph import PathQuery
from repro.semantics.validation import ChainValidator, CorrectnessValidator


def resolve_mapping_node(
    kg: KnowledgeGraph, specific_name: str, specific_types: frozenset[str]
) -> int:
    """Find ``us`` for the query's specific node (Definition 5, cond. 1).

    The KG is assumed entity-disambiguated, so the name lookup is unique;
    the type intersection must also be non-empty.
    """
    if not kg.has_node_named(specific_name):
        raise MappingNodeNotFoundError(f"no entity named {specific_name!r} in the KG")
    node_id = kg.node_by_name(specific_name)
    node = kg.node(node_id)
    if not node.shares_type_with(specific_types):
        raise MappingNodeNotFoundError(
            f"entity {specific_name!r} has types {sorted(node.types)}, "
            f"none of the required {sorted(specific_types)}"
        )
    return node_id


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
        #: service tests assert one build per shared plan across a whole
        #: concurrent batch
        self.build_count = 0

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
        """Build ``component``'s plan, counted once the build returns one:
        a build that raises built nothing."""
        with Clock("plan_build", predicates=",".join(component.predicates)):
            plan = self._build(component)
        self.build_count += 1
        return plan

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build(self, component: PathQuery) -> QueryPlan:
        """The plan of ``component``: its mapping node and exact row."""
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        first_leg = CorrectnessValidator(
            self._kg,
            self._space,
            source,
            component.predicates[0],
            max_length=self.config.n_bound,
        )
        return QueryPlan(
            component=component,
            source=source,
            validator=self._validator(component, first_leg),
        )

    def _validator(
        self, component: PathQuery, first_leg: CorrectnessValidator
    ) -> CorrectnessValidator | ChainValidator:
        """A plan's validator: ``first_leg``, wrapped in a
        :class:`ChainValidator` for a chain component."""
        if component.is_simple:
            return first_leg
        return ChainValidator(
            self._kg,
            self._space,
            component,
            first_leg,
            max_length=self.config.n_bound,
        )
