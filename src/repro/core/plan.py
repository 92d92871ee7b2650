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
own every piece of S2 state compiled for them through their validator, so
the plan key alone decides when it is stale: a simple or a chain plan's
validator holds its exact similarity row over every node
(:mod:`repro.semantics.validation`; the figures' r-path search a
node-indexed memo), built lazily.  Validation is deterministic and a row
is published once, whole and read-only, so concurrent engines sharing a
plan only ever read "not yet" or that row; sharing it is what lets
refinement rounds and interactive sessions skip revalidation entirely.

Beside each graph's plans the cache keeps the *joint supports* of
composite queries (the intersected :class:`AnswerDistribution`), keyed by
the component plan keys: a joint is a function of its plans, so it is
assembled once and dropped with any of them.

The cache holds graphs weakly (a dead graph drops its plans) and evicts a
graph's plans and joints wholesale when its *structure* version moves.
Attribute writes bump a different counter and leave plans — like CSR
snapshots — untouched.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.config import EngineConfig, SamplerKind
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerDistribution
from repro.semantics.validation import ChainValidator, CorrectnessValidator

#: cache key of one plan within a graph entry
PlanKey = Hashable


@dataclass(frozen=True)
class QueryPlan:
    """One query component's S1 artefacts, shareable across engines."""

    component: PathQuery
    #: the resolved mapping node ``us``
    source: int
    #: answer-restricted stationary distribution pi_A (Theorem 1): all S2
    #: reads of S1, for simple and chain components alike
    distribution: AnswerDistribution
    #: the paper's N_ws: 0 for a simple plan (closed form, no walk
    #: iterated); a chain plan reports its expanded intermediates here
    walk_iterations: int
    num_candidates: int
    #: the plan's one S2 entry point: the exact row of ``(source,
    #: predicates[0])`` for a simple component, a :class:`ChainValidator`
    #: around that first leg for a chain; the figures' planner binds the
    #: paper's r-path search as the (first-leg) validator instead
    validator: CorrectnessValidator | ChainValidator


@dataclass(frozen=True)
class PlanArtifacts:
    """The persistable payload of one :class:`QueryPlan`.

    Everything S1 hands S2 — the answer distribution pi_A and the scalars
    beside it — with the runtime-only handles stripped: the validator
    (rebuilt from ``component`` and ``source``) and the memos (append-only
    caches, rebuilt as queries validate).  This is the unit the store
    writes to disk and memory-maps back; its two arrays stay zero-copy
    end to end.
    """

    component: PathQuery
    source: int
    answers: np.ndarray
    probabilities: np.ndarray
    walk_iterations: int
    num_candidates: int

    def arrays(self) -> dict[str, np.ndarray]:
        """The array segments, keyed the way the store formats them."""
        return {"answers": self.answers, "probabilities": self.probabilities}


def extract_artifacts(plan: QueryPlan) -> PlanArtifacts:
    """Strip ``plan`` down to its persistable artefacts (no copies)."""
    return PlanArtifacts(
        component=plan.component,
        source=plan.source,
        answers=plan.distribution.answers,
        probabilities=plan.distribution.probabilities,
        walk_iterations=plan.walk_iterations,
        num_candidates=plan.num_candidates,
    )


def plan_from_artifacts(
    artifacts: PlanArtifacts,
    make_validator: Callable[
        [PathQuery, int], CorrectnessValidator | ChainValidator
    ],
) -> QueryPlan:
    """Rebuild a live :class:`QueryPlan` around stored/shared artefacts.

    The arrays are adopted as-is (memory-mapped or shared segments stay
    zero-copy); ``make_validator(component, source)`` binds a fresh
    validator to the loaded plan's mapping node, its memos empty —
    verdicts are deterministic, so a rebuilt plan converges to the same
    memo content as the original.
    """
    return QueryPlan(
        component=artifacts.component,
        source=artifacts.source,
        distribution=AnswerDistribution(
            answers=artifacts.answers, probabilities=artifacts.probabilities
        ),
        walk_iterations=artifacts.walk_iterations,
        num_candidates=artifacts.num_candidates,
        validator=make_validator(artifacts.component, artifacts.source),
    )


#: revision of a plan's arrays (1 = capped power iteration, 2 = closed-form
#: node strengths, 3 = the same values with chain routes as segments
#: instead of header JSON, 4 = CNARW plans in closed form too, semantic
#: plans unchanged, 5 = the ``answers`` and ``probabilities`` segments
#: only: the per-node probability array and the routes left the file);
#: part of ``config_token``, so a catalog never maps an older revision's
#: artefact beside fresh plans
S1_REVISION = 5


def plan_fingerprint(config: EngineConfig) -> tuple:
    """The configuration facets a plan's content depends on.

    Everything S1 consumes (sampler kind, scope bound, Eq. 5 smoothing)
    plus what the memoised similarities depend on: the bound, the floor
    and the figures' r-path budget.  ``tau`` is not among them: the validators
    memoise similarities and each query compares them with its own
    threshold.  The RNG seed only matters for the node2vec baseline
    (the semantic and CNARW walks are deterministic), so it joins the
    fingerprint only there — engines with different seeds still share
    semantic plans.  :data:`S1_REVISION` leads.
    """
    fingerprint: tuple = (
        S1_REVISION,
        config.sampler,
        config.n_bound,
        config.self_loop_weight,
        config.similarity_floor,
        config.validation_expansions,
        config.max_intermediates,
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
    #: composite queries' joint supports, keyed by their component plan
    #: keys (LRU-ordered); a joint goes when any of its plans is evicted
    joints: dict[tuple[PlanKey, ...], AnswerDistribution] = field(
        default_factory=dict
    )

    def published(
        self, keys: Sequence[PlanKey], plans: Sequence[QueryPlan]
    ) -> bool:
        """Whether every plan is the one published under its key."""
        return all(self.plans.get(key) is plan for key, plan in zip(keys, plans))


#: default per-graph plan bound; a plan's payload is its support (answers,
#: probabilities) plus, once validated, its validator's similarity row
#: (a similarity and a path length per graph node), so the cap
#: bounds resident memory for long-lived serving processes with many
#: components/configs/tenants
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
                for joint_key in [k for k in entry.joints if oldest in k]:
                    del entry.joints[joint_key]
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

    def joint_for(
        self,
        kg: KnowledgeGraph,
        keys: tuple[PlanKey, ...],
        plans: Sequence[QueryPlan],
        build: Callable[[], AnswerDistribution],
    ) -> AnswerDistribution:
        """The joint support of ``plans`` (``keys[i]``'s plan is
        ``plans[i]``), assembled by ``build`` once per published plan set.

        Only plans that are the ones published under their keys share a
        joint: a plan kept private by a structural mutation, or one whose
        key was evicted and rebuilt, gets a fresh assembly.  Like a plan,
        a joint is built outside the lock and the first one stored wins;
        the joints are LRU-bounded by ``max_plans_per_graph`` too.
        """
        with self._lock:
            entry = self._entry_locked(kg)
            if entry.published(keys, plans):
                joint = entry.joints.get(keys)
                if joint is not None:
                    entry.joints[keys] = entry.joints.pop(keys)  # LRU touch
                    return joint
        joint = build()
        with self._lock:
            entry = self._entry_locked(kg)
            if entry.published(keys, plans):
                joint = entry.joints.setdefault(keys, joint)
                while len(entry.joints) > self.max_plans_per_graph:
                    del entry.joints[next(iter(entry.joints))]
        return joint

    def num_joints(self, kg: KnowledgeGraph) -> int:
        """Number of cached joint supports for ``kg``'s current structure."""
        with self._lock:
            entry = self._entries.get(kg)
            if entry is None or entry.structure_version != kg.structure_version:
                return 0
            return len(entry.joints)

    def num_plans(self, kg: KnowledgeGraph) -> int:
        """Number of live cached plans for ``kg``'s current structure."""
        with self._lock:
            entry = self._entries.get(kg)
            if entry is None or entry.structure_version != kg.structure_version:
                return 0
            return len(entry.plans)

    def clear(self) -> None:
        """Drop every cached plan and joint (benchmarks and tests)."""
        with self._lock:
            self._entries.clear()


#: the process-wide cache every engine uses unless given its own
_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` instance."""
    return _SHARED_PLAN_CACHE
