"""Immutable per-component query plans and the process-wide plan cache.

S1 of Algorithm 2 — scope BFS, the Eq. 5/6 stationary distribution (in
closed form), candidate restriction — is pure preparation: for a fixed graph
structure, predicate space and configuration, a component's sampling
artefacts never change.  This module names that artefact bundle
:class:`QueryPlan` and shares it across engines through a single
:class:`PlanCache` keyed on ``(graph, structure_version, component,
predicate space, config fingerprint)``, the way approximate-aggregation
systems amortise expensive per-predicate ("oracle") work across a whole
workload instead of per query.

Plans are structurally immutable (frozen dataclass, read-only arrays) but
carry two append-only memo dicts — the per-answer validation verdicts and
the chain-prefix table.  Validation is deterministic, so concurrent
engines appending to a shared memo can only ever write the same values;
sharing the memo is what lets refinement rounds and interactive sessions
skip revalidation entirely.

The cache holds graphs weakly (a dead graph drops its plans) and evicts a
graph's plans wholesale when its *structure* version moves.  Attribute
writes bump a different counter and leave plans — like CSR snapshots —
untouched.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.config import EngineConfig, SamplerKind
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.sampling.chain import ChainDistribution
from repro.sampling.collector import AnswerDistribution
from repro.semantics.validation import CorrectnessValidator

#: cache key of one plan within a graph entry
PlanKey = Hashable


@dataclass(frozen=True)
class QueryPlan:
    """One query component's S1 artefacts, shareable across engines."""

    component: PathQuery
    #: the resolved mapping node ``us``
    source: int
    #: answer-restricted stationary distribution pi_A (Theorem 1)
    distribution: AnswerDistribution
    #: dense per-node visiting probabilities over the whole graph
    #: (zero outside the scope); the validator consumes this directly
    visiting: np.ndarray
    walk_iterations: int
    num_candidates: int
    chain: ChainDistribution | None = None
    #: shared greedy validator (first-leg validator for chain components)
    validator: CorrectnessValidator | None = None
    #: per-answer verdict memo: greedy results are deterministic, so the
    #: memo is safe to share across engines, rounds and sessions
    similarity_cache: dict[int, float] = field(default_factory=dict)
    #: chain validation memo: (hop level, node) -> best (log_sum, length)
    chain_prefix_memo: dict[tuple[int, int], tuple[float, int] | None] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class PlanArtifacts:
    """The persistable/picklable payload of one :class:`QueryPlan`.

    Everything S1 computed, with the runtime-only handles stripped: the
    validator (cheap to rebuild from ``(kg, space, config)``) and the
    memo dicts (append-only caches, shipped separately where needed).
    This is the unit the store writes to disk, publishes through shared
    memory, and ships to worker processes — the arrays are the dominant
    payload and stay zero-copy end to end.
    """

    component: PathQuery
    source: int
    answers: np.ndarray
    probabilities: np.ndarray
    visiting: np.ndarray
    walk_iterations: int
    num_candidates: int
    is_chain: bool
    #: a chain plan's composed routes (``ChainDistribution.route_nodes`` /
    #: ``.route_probability``); ``None`` for simple plans
    route_nodes: np.ndarray | None = None
    route_probability: np.ndarray | None = None
    chain_truncated: bool = False

    def arrays(self) -> dict[str, np.ndarray]:
        """The array segments, keyed the way the store formats them."""
        arrays = {
            "answers": self.answers,
            "probabilities": self.probabilities,
            "visiting": self.visiting,
        }
        if self.is_chain:
            arrays["route_nodes"] = self.route_nodes
            arrays["route_probability"] = self.route_probability
        return arrays


def extract_artifacts(plan: QueryPlan) -> PlanArtifacts:
    """Strip ``plan`` down to its persistable artefacts (no copies)."""
    chain = plan.chain
    return PlanArtifacts(
        component=plan.component,
        source=plan.source,
        answers=plan.distribution.answers,
        probabilities=plan.distribution.probabilities,
        visiting=plan.visiting,
        walk_iterations=plan.walk_iterations,
        num_candidates=plan.num_candidates,
        is_chain=chain is not None,
        route_nodes=chain.route_nodes if chain is not None else None,
        route_probability=chain.route_probability if chain is not None else None,
        chain_truncated=chain.truncated if chain is not None else False,
    )


def plan_from_artifacts(
    artifacts: PlanArtifacts, validator: CorrectnessValidator | None
) -> QueryPlan:
    """Rebuild a live :class:`QueryPlan` around stored/shared artefacts.

    The arrays are adopted as-is (memory-mapped or shared segments stay
    zero-copy); the validator is a fresh instance bound to the caller's
    graph and configuration, and the memo dicts start empty — verdicts
    are deterministic, so a rebuilt plan converges to the same memo
    content as the original.
    """
    distribution = AnswerDistribution(
        answers=artifacts.answers, probabilities=artifacts.probabilities
    )
    chain = None
    if artifacts.is_chain:
        chain = ChainDistribution(
            distribution=distribution,
            route_nodes=artifacts.route_nodes,
            route_probability=artifacts.route_probability,
            expanded_intermediates=artifacts.walk_iterations,
            truncated=artifacts.chain_truncated,
        )
    return QueryPlan(
        component=artifacts.component,
        source=artifacts.source,
        distribution=distribution,
        visiting=artifacts.visiting,
        walk_iterations=artifacts.walk_iterations,
        num_candidates=artifacts.num_candidates,
        chain=chain,
        validator=validator,
    )


#: revision of a plan's arrays (1 = capped power iteration, 2 = closed-form
#: node strengths, 3 = the same values with chain routes as
#: ``route_nodes``/``route_probability`` segments instead of header JSON);
#: part of ``config_token``, so a catalog never maps an older revision's
#: artefact beside fresh plans
S1_REVISION = 3


def plan_fingerprint(config: EngineConfig) -> tuple:
    """The configuration facets a plan's content depends on.

    Everything S1 consumes (sampler kind, scope bound, Eq. 5 smoothing)
    plus the validator construction knobs and ``tau`` — the memoised
    verdict similarities depend on the tau short-circuit, so plans built
    under different thresholds must not share a memo.  The RNG seed only
    matters for the node2vec baseline (the semantic and CNARW walks are
    deterministic), so it joins the fingerprint only there — engines with
    different seeds still share semantic plans.  :data:`S1_REVISION` leads.
    """
    fingerprint: tuple = (
        S1_REVISION,
        config.sampler,
        config.n_bound,
        config.self_loop_weight,
        config.similarity_floor,
        config.repeat_factor,
        config.validation_expansions,
        config.max_intermediates,
        config.tau,
    )
    if config.sampler is SamplerKind.NODE2VEC:
        fingerprint += (config.seed,)
    return fingerprint


def plan_key(
    component: PathQuery, space: PredicateVectorSpace, config: EngineConfig
) -> PlanKey:
    """Cache key of one component's plan within a graph entry.

    The *embedding* participates by identity (plain-object hash): the
    engine wraps raw embeddings in a fresh :class:`PredicateVectorSpace`
    per instance, but two spaces over one embedding serve identical
    similarities, so plans key on the wrapped embedding — engines
    constructed from the same embedding object share plans.  The key tuple
    holds the embedding strongly, so it lives exactly as long as its plans
    stay cached.
    """
    return (component, space.embedding, plan_fingerprint(config))


@dataclass
class _GraphEntry:
    """All cached plans of one graph structure version (LRU-ordered)."""

    structure_version: int
    plans: dict[PlanKey, QueryPlan] = field(default_factory=dict)
    #: keys currently being built by some thread (see ``get_or_build``)
    building: dict[PlanKey, threading.Event] = field(default_factory=dict)


#: default per-graph plan bound; a plan's dominant payload is its dense
#: visiting array (num_nodes float64), so the cap bounds resident memory
#: for long-lived serving processes with many components/configs/tenants
DEFAULT_MAX_PLANS_PER_GRAPH = 256


class PlanCache:
    """Process-wide store of S1 plans, shared by every engine on a graph.

    Thread-safe; lookups and stores are O(1) dict operations under one
    lock.  Plan *construction* happens outside the lock (it runs the S1
    stage) — when two engines race to build the same plan, the first
    stored one wins and the loser adopts it, so a key always resolves to
    one shared object.  A plan built against a structure version that
    moved during construction is returned to its builder but never
    published.  Each graph's plans are LRU-bounded so a serving process
    with many components, configs or tenant embeddings cannot grow without
    bound; eviction only drops the shared reference — engines holding a
    plan keep using it.
    """

    def __init__(
        self, max_plans_per_graph: int = DEFAULT_MAX_PLANS_PER_GRAPH
    ) -> None:
        if max_plans_per_graph < 1:
            raise ValueError("max_plans_per_graph must be >= 1")
        self.max_plans_per_graph = max_plans_per_graph
        self._lock = threading.Lock()
        self._entries: weakref.WeakKeyDictionary[KnowledgeGraph, _GraphEntry] = (
            weakref.WeakKeyDictionary()
        )
        #: process-lifetime lookup tallies (survive clear()); exported by
        #: the observability layer as repro_plan_cache_hits / _misses
        self.hits = 0
        self.misses = 0

    def _entry_locked(self, kg: KnowledgeGraph) -> _GraphEntry:
        """The graph's live entry; evicts stale structure versions.

        Caller holds ``self._lock``.
        """
        version = kg.structure_version
        entry = self._entries.get(kg)
        if entry is None or entry.structure_version != version:
            entry = _GraphEntry(structure_version=version)
            self._entries[kg] = entry
        return entry

    def lookup(self, kg: KnowledgeGraph, key: PlanKey) -> QueryPlan | None:
        """The cached plan for ``key`` on ``kg``'s current structure, if any."""
        with self._lock:
            plans = self._entry_locked(kg).plans
            plan = plans.get(key)
            if plan is not None:
                # LRU touch: dicts iterate in insertion order, so oldest
                # (least recently used) keys surface first for eviction
                plans[key] = plans.pop(key)
                self.hits += 1
            else:
                self.misses += 1
            return plan

    def store(
        self,
        kg: KnowledgeGraph,
        key: PlanKey,
        plan: QueryPlan,
        structure_version: int,
    ) -> QueryPlan:
        """Publish ``plan`` under ``key`` and return the canonical instance.

        ``structure_version`` is the version the caller captured *before*
        building: if the graph mutated during the (unlocked) build, the
        stale plan is handed back unpublished instead of poisoning the new
        structure's entry.  First writer wins: a plan already stored by a
        concurrent engine is returned instead, so callers always end up
        sharing one object.
        """
        with self._lock:
            entry = self._entry_locked(kg)
            if entry.structure_version != structure_version:
                return plan
            canonical = entry.plans.setdefault(key, plan)
            while len(entry.plans) > self.max_plans_per_graph:
                oldest = next(iter(entry.plans))
                if oldest == key:  # never evict what we just resolved
                    entry.plans[key] = entry.plans.pop(key)
                    continue
                del entry.plans[oldest]
            return canonical

    def get_or_build(
        self,
        kg: KnowledgeGraph,
        key: PlanKey,
        builder,
    ) -> QueryPlan:
        """The plan for ``key``, building it at most once across threads.

        The naive lookup/build/store dance lets N concurrent engines race
        to run S1 N times for the same key; here the first thread to miss
        claims the key (a per-key event under the cache lock), builds
        outside the lock, and publishes through :meth:`store` —
        first-writer-wins is preserved.  Concurrent callers wait on the
        event and adopt the published plan; if the builder raised (the
        event is set with nothing published), one waiter becomes the next
        builder.  A structural mutation during a build keeps the stale
        plan private, exactly like the plain ``store`` path.
        """
        while True:
            with self._lock:
                entry = self._entry_locked(kg)
                plan = entry.plans.get(key)
                if plan is not None:
                    entry.plans[key] = entry.plans.pop(key)  # LRU touch
                    self.hits += 1
                    return plan
                event = entry.building.get(key)
                if event is None:
                    event = threading.Event()
                    entry.building[key] = event
                    structure_version = entry.structure_version
                    self.misses += 1
                    claimed = True
                else:
                    claimed = False
            if claimed:
                try:
                    # publish BEFORE releasing the waiters: a waiter woken
                    # by the event must find the plan already stored, or
                    # it would claim the key and run S1 a second time
                    return self.store(kg, key, builder(), structure_version)
                finally:
                    with self._lock:
                        current = self._entries.get(kg)
                        if current is not None and current.building.get(key) is event:
                            del current.building[key]
                    event.set()
            event.wait()
            # loop: either the plan is published now, or the builder died
            # (or the structure moved) and this thread claims the build

    def num_plans(self, kg: KnowledgeGraph) -> int:
        """Number of live cached plans for ``kg``'s current structure."""
        with self._lock:
            entry = self._entries.get(kg)
            if entry is None or entry.structure_version != kg.structure_version:
                return 0
            return len(entry.plans)

    def clear(self) -> None:
        """Drop every cached plan (benchmarks and tests)."""
        with self._lock:
            self._entries.clear()


#: the process-wide cache every engine uses unless given its own
_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` instance."""
    return _SHARED_PLAN_CACHE
