"""Immutable per-component query plans and the process-wide plan cache.

A :class:`QueryPlan` binds one query component to its mapping node and
its validator — the exact similarity row of the paper's S2 oracle for
``(mapping node, predicate)`` (:mod:`repro.semantics.validation`; the
figures' r-path search a node-indexed memo), built lazily.  A census
reads nothing else, so a plan is a function of the component, the
embedding and ``n_bound`` (Eq. 2's similarity floor is the constant
:data:`~repro.semantics.similarity.SIMILARITY_FLOOR`), and plans are
shared across engines through a single :class:`PlanCache` keyed on
``(graph, structure_version, component, embedding, n_bound)``,
the way approximate-aggregation systems pay for the expensive
per-predicate ("oracle") work once across a whole workload instead of
per query.  Engines that differ only in the seed or in how they would
sample share one plan.

A plan answers a census from its row: its candidates
(:meth:`QueryPlan.candidates`) are the nodes the row reaches, typed as
the component's last hop requires, and its kept set at a threshold
(:meth:`QueryPlan.kept`) those whose similarity clears it; a composite
query intersects its plans' sets per query.  A validated row is
published whole and read-only, so concurrent engines sharing a plan only
ever read "not yet" or the finished row.  S1 of Algorithm 2 — scope BFS, the Eq. 5/6
stationary distribution, candidate restriction — is needed only to
draw, and is not part of a plan: :class:`repro.bench.sampled.PlanSampler`
keeps each sampler's pi_A beside the plan once its first draw built it.

Each graph keeps its cache entry on itself, as it keeps its CSR snapshot:
a plan's validator holds its graph, so graph -> entry -> plan -> graph is
a cycle the garbage collector frees once every caller dropped the graph.
A graph's plans are evicted wholesale when its *structure* version
moves.  Attribute writes bump a different counter and leave plans — like
CSR snapshots — untouched.

Plans live in one process only: a new process builds its plans afresh
(a mapping node and a validator whose row waits for its first read), and
what it can memory-map instead of rebuilding is the graph's CSR snapshot
(:mod:`repro.store`).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from repro.core.config import EngineConfig
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.semantics.validation import ChainValidator, CorrectnessValidator

#: cache key of one plan within a graph entry
PlanKey = Hashable


@dataclass(frozen=True)
class CandidateSet:
    """The answers a census counts over: sorted, read-only node ids."""

    answers: np.ndarray

    @property
    def support_size(self) -> int:
        """Number of candidate answers."""
        return len(self.answers)


@dataclass(frozen=True)
class QueryPlan:
    """One query component's shareable artefacts: its validator, and the
    census candidates and kept sets read off the validator's row."""

    component: PathQuery
    #: the resolved mapping node ``us``
    source: int
    #: the plan's one S2 entry point: the exact row of ``(source,
    #: predicates[0])`` for a simple component, a :class:`ChainValidator`
    #: around that first leg for a chain; the figures' planner binds the
    #: paper's r-path search as the (first-leg) validator instead
    validator: CorrectnessValidator | ChainValidator

    def candidates(self, kg: KnowledgeGraph) -> CandidateSet:
        """The answers a census counts: every node the validator's row
        reaches (``best_length > 0``) that is typed as the last hop
        requires — a simple component's mapping node excepted, as S1
        excepts it — from one mask over the row of ``kg``, the plan's
        graph, kept on the plan.

        A chain's candidates are all the answers its row reaches, where
        the pi_A a draw builds keeps only those behind the routes its
        chain cut keeps per hop.  Raises the
        :class:`~repro.errors.SamplingError` of a component without one.
        """
        candidates = self.__dict__.get("_candidates")
        if candidates is None:
            # no lock: concurrent callers compute equal sets, one is kept
            component = self.component
            predicate, node_types = component.hops[-1]
            reached = self.validator.row()[1] > 0
            reached &= csr_snapshot(kg).type_mask(node_types)
            if component.is_simple:
                reached[self.source] = False
            answers = np.flatnonzero(reached)
            if len(answers) == 0:
                # the messages S1's walks raise
                raise SamplingError(
                    f"no candidate of types {sorted(node_types)} within "
                    f"{self.validator.max_length} hops of "
                    f"{component.specific_name!r}"
                    if component.is_simple
                    else f"chain hop with predicate {predicate!r} produced "
                    "no candidates"
                )
            answers.setflags(write=False)
            candidates = CandidateSet(answers)
            object.__setattr__(self, "_candidates", candidates)
        return candidates

    def kept(self, kg: KnowledgeGraph, tau: float) -> np.ndarray:
        """The sorted, read-only ids of the candidates whose row clears
        ``tau``: what a census validating at ``tau`` counts over, before
        its screen.

        Built by one ``validate_batch`` over the candidates on the first
        call at ``tau`` and kept on the plan, one set per ``tau`` asked
        for (``tau`` is not in the plan key).  It holds node ids only:
        attribute values and filters are read per query.
        """
        memo = self.__dict__.get("_kept")
        if memo is None:
            memo = self.__dict__.setdefault("_kept", {})
        kept = memo.get(tau)
        if kept is None:
            # no lock: concurrent callers compute equal sets, one is kept
            answers = self.candidates(kg).answers
            kept = answers[self.validator.validate_batch(answers).similarity >= tau]
            kept.setflags(write=False)
            memo[tau] = kept
        return kept


def plan_fingerprint(config: EngineConfig) -> tuple:
    """The configuration facets a plan's content depends on: the path
    bound, the one knob the exact row reads (its similarity floor is the
    constant :data:`~repro.semantics.similarity.SIMILARITY_FLOOR`).

    ``tau`` is not among them (each query compares the row's similarities
    with its own threshold), nor is the seed.  The seed and the sampled
    executor's S1 knobs key each sampler's pi_A beside the plan instead
    (:class:`repro.bench.sampled.PlanSampler`).
    """
    return (config.n_bound,)


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


#: the attribute a graph keeps its plan-cache entries under: one
#: :class:`_GraphEntry` per live :class:`PlanCache`, weakly keyed by the
#: cache, so a dropped cache leaves nothing behind on a long-lived graph
_ENTRIES_ATTR = "_plan_cache_entries"

#: per-graph plan bound, read at each eviction; a plan's payload is, once
#: validated, its validator's similarity row (a similarity and a path
#: length per graph node), its candidates and one kept set per tau a
#: census asked for (node ids, a subset of the candidates), plus one pi_A
#: (answers, probabilities) per sampler that has drawn from it, so the
#: cap bounds resident memory for long-lived serving processes with many
#: components/configs/tenants
MAX_PLANS_PER_GRAPH = 256


class PlanCache:
    """Process-wide store of query plans, shared by every engine on a graph.

    Thread-safe: :meth:`get_or_build` looks up under one lock and builds
    a missing plan outside it, at most once across threads, so a key
    always resolves to one shared object.  A plan built against a
    structure version that moved during construction is returned to its
    builder but never published.  Each graph's plans are LRU-bounded
    (:data:`MAX_PLANS_PER_GRAPH`) so a serving process with many
    components, configs or tenant embeddings cannot grow without bound;
    eviction only drops the shared reference — engines holding a plan
    keep using it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: the graphs holding an entry of this cache, weakly: only
        #: :meth:`clear` walks them
        self._graphs: weakref.WeakSet[KnowledgeGraph] = weakref.WeakSet()
        #: process-lifetime lookup tallies (survive clear()); exported by
        #: the observability layer as repro_plan_cache_hits / _misses
        self.hits = 0
        self.misses = 0

    def _entry_locked(self, kg: KnowledgeGraph) -> _GraphEntry:
        """The graph's live entry; evicts stale structure versions.

        Caller holds ``self._lock``.
        """
        version = kg.structure_version
        entry = self._entry_of(kg)
        if entry is None or entry.structure_version != version:
            entry = _GraphEntry(structure_version=version)
            entries = vars(kg).setdefault(_ENTRIES_ATTR, weakref.WeakKeyDictionary())
            entries[self] = entry
            self._graphs.add(kg)
        return entry

    def _entry_of(self, kg: KnowledgeGraph) -> _GraphEntry | None:
        """The graph's entry of this cache, stale or not, if any."""
        return vars(kg).get(_ENTRIES_ATTR, {}).get(self)

    def get_or_build(
        self,
        kg: KnowledgeGraph,
        key: PlanKey,
        builder: Callable[[], QueryPlan],
    ) -> QueryPlan:
        """The plan for ``key``, building it at most once across threads.

        The first thread to miss claims the key (a per-key event under
        the cache lock), builds outside the lock, and publishes the plan
        (:meth:`_publish`).  Concurrent callers wait on the event and
        adopt the published plan; if the builder raised (the event is set
        with nothing published), one waiter becomes the next builder.
        """
        while True:
            with self._lock:
                entry = self._entry_locked(kg)
                plan = entry.plans.get(key)
                if plan is not None:
                    # LRU touch: dicts iterate in insertion order, so the
                    # least recently used keys surface first for eviction
                    entry.plans[key] = entry.plans.pop(key)
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
                    # it would claim the key and build a second time
                    return self._publish(kg, key, builder(), structure_version)
                finally:
                    with self._lock:
                        current = self._entry_of(kg)
                        if current is not None and current.building.get(key) is event:
                            del current.building[key]
                    event.set()
            event.wait()
            # loop: either the plan is published now, or the builder died
            # (or the structure moved) and this thread claims the build

    def _publish(
        self,
        kg: KnowledgeGraph,
        key: PlanKey,
        plan: QueryPlan,
        structure_version: int,
    ) -> QueryPlan:
        """Publish ``plan`` under ``key`` and return the canonical instance.

        ``structure_version`` is the version captured *before* building:
        if the graph mutated during the (unlocked) build, the stale plan
        is handed back unpublished instead of poisoning the new
        structure's entry.  A plan already published under ``key`` (a
        build racing a :meth:`clear`) wins over ``plan``.
        """
        with self._lock:
            entry = self._entry_locked(kg)
            if entry.structure_version != structure_version:
                return plan
            canonical = entry.plans.pop(key, plan)
            entry.plans[key] = canonical  # most recently used: kept
            while len(entry.plans) > MAX_PLANS_PER_GRAPH:
                del entry.plans[next(iter(entry.plans))]
            return canonical

    def num_plans(self, kg: KnowledgeGraph) -> int:
        """Number of live cached plans for ``kg``'s current structure."""
        with self._lock:
            entry = self._entry_of(kg)
            if entry is None or entry.structure_version != kg.structure_version:
                return 0
            return len(entry.plans)

    def clear(self) -> None:
        """Drop every cached plan (benchmarks and tests)."""
        with self._lock:
            for kg in list(self._graphs):
                vars(kg)[_ENTRIES_ATTR].pop(self, None)
            self._graphs.clear()


#: the process-wide cache every engine uses unless given its own
_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` instance."""
    return _SHARED_PLAN_CACHE
