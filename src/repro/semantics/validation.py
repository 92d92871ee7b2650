"""Greedy correctness validation with repeat factor ``r`` (paper §IV-B2).

Enumerating all subgraph matches per sampled answer is what makes SSB slow;
the engine instead runs a best-first search from the mapping node, guided by
the stationary visiting probabilities computed during sampling, and stops
after finding ``r`` distinct paths to the answer.  The best similarity among
those paths decides correctness (similarity >= tau).

Properties (paper's effectiveness analysis):

* no false positives — an incorrect answer has *no* path of similarity
  >= tau, so whatever path the greedy search returns cannot clear tau;
* false negatives shrink as ``r`` grows (Fig. 6(c)): more paths found means
  a better chance of hitting the answer's optimal match.

Implementation notes.  A validator instance is bound to one query component
and compiles, once per (query predicate, visiting) context, the whole
in-scope neighbourhood into a :class:`~repro.semantics.kernels.CompiledContext`:
a deduplicated adjacency table with the max log-similarity per neighbour
(the goal shortcut: whenever the expanded node has a direct edge to the
answer, that path is recorded immediately instead of competing in the heap)
and a probability-sorted, branch-capped successor beam.  This keeps one
validation at O(budget * branch_cap) heap operations even around hubs with
thousands of neighbours.  Per-edge log-similarities come from one dense
log-clamped similarity row indexed by predicate id over the CSR snapshot's
adjacency slices — no per-edge string lookups.

Visiting probabilities are **array-valued**: callers may pass either a
``{node_id: probability}`` mapping or a dense float array over node ids
(zero = outside the scope).  Mappings are densified once per context.
:meth:`CorrectnessValidator.validate_batch` is the engine's entry point:
context -> trace -> replay.  It records the answer-independent pop sequence
once per (context, source) and reads every answer's outcome off it
(:func:`repro.semantics.kernels.replay`): a private search for answer ``a``
is the shared one with ``a`` never pushed, i.e. the shared pop sequence
with the pops below ``a`` deleted and run on by as many pops as were
deleted, so no answer needs a heap of its own.  Three edges keep that
exact: ``answer == source`` pops the shared sequence and finds nothing; an
answer whose deletions outrun the recorded pops extends the trace under
its lock; and an unknown-predicate error met while extending — the
extension may expand a node this answer's own search never would — sends
that one answer to :func:`repro.semantics.kernels.search`, which raises
where the seed raises or not at all.  ``search`` is also :meth:`validate`'s
path, the single-answer entry point.  The seed's dict-probing search
survives as :class:`repro.semantics.reference.ReferenceValidator`, the
oracle the tests compare both entry points with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import EmbeddingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.semantics import kernels
from repro.semantics.similarity import SIMILARITY_FLOOR

#: default cap on queue pops per validation; bounds worst-case latency.
DEFAULT_EXPANSION_BUDGET = 120

#: successors kept per node (probability-ordered beam).
DEFAULT_BRANCH_CAP = 16

#: visiting probabilities: ``{node_id: probability}`` or a dense array over
#: node ids where zero marks nodes outside the sampling scope.
VisitingProbabilities = Union[Mapping[int, float], np.ndarray]


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of validating one answer."""

    answer: int
    similarity: float
    paths_found: int
    expansions: int
    #: length (edges) of the best path found; 0 when none was found
    best_length: int = 0

    def is_correct(self, tau: float) -> bool:
        """True when the answer's (heuristic) best match clears tau."""
        return self.similarity >= tau


class CorrectnessValidator:
    """Best-first path search guided by stationary probabilities."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        *,
        repeat_factor: int = 3,
        max_length: int = 3,
        floor: float = SIMILARITY_FLOOR,
        expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
        branch_cap: int = DEFAULT_BRANCH_CAP,
    ) -> None:
        if repeat_factor < 1:
            raise ValueError("repeat_factor must be >= 1")
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        if branch_cap < 1:
            raise ValueError("branch_cap must be >= 1")
        self._kg = kg
        self._space = space
        self.repeat_factor = repeat_factor
        self.max_length = max_length
        self.floor = floor
        self.expansion_budget = expansion_budget
        self.branch_cap = branch_cap
        # caches are (query predicate, visiting context) specific; they
        # reset when the validator is reused for a different context
        self._cache_predicate: str | None = None
        #: strong reference to the context's visiting object: while it is
        #: the cache key it cannot be collected, so ``is`` identity can
        #: never alias a dead context (unlike the raw ``id()`` it replaced)
        self._context_ref: VisitingProbabilities | None = None
        #: monotone context counter — a stable identity token for the
        #: current cache generation, unaffected by address reuse
        self._context_token = 0
        self._compiled: kernels.CompiledContext | None = None
        #: per-source shared (answer-independent) expansion traces
        self._traces: dict[int, kernels.SharedTrace] = {}

    # ------------------------------------------------------------------
    def _context(
        self,
        query_predicate: str,
        visiting_probabilities: VisitingProbabilities,
    ) -> kernels.CompiledContext:
        """The compiled context for ``(predicate, visiting)``; built once.

        Reused until the validator is called with a different predicate or
        visiting object.  Concurrent builders (the serving layer's thread
        backend shares validators) produce identical contexts, so the last
        write winning is benign.
        """
        if (
            self._context_ref is not visiting_probabilities
            or self._cache_predicate != query_predicate
        ):
            self._cache_predicate = query_predicate
            self._context_ref = visiting_probabilities
            self._context_token += 1
            self._compiled = None
            self._traces.clear()
        context = self._compiled
        if context is None:
            context = kernels.build_context(
                self._kg,
                self._space,
                csr_snapshot(self._kg),
                self._log_similarities(query_predicate),
                self._visiting_array(visiting_probabilities),
                self.branch_cap,
            )
            self._compiled = context
        return context

    def _visiting_array(
        self, visiting_probabilities: VisitingProbabilities
    ) -> np.ndarray:
        """Dense per-node probability array; arrays pass through untouched.

        A node participates in the search iff its entry is positive —
        exactly a mapping's membership semantics, since those mappings only
        ever hold strictly positive probabilities.
        """
        if isinstance(visiting_probabilities, np.ndarray):
            return visiting_probabilities
        dense = np.zeros(self._kg.num_nodes, dtype=np.float64)
        if visiting_probabilities:
            nodes = np.fromiter(
                visiting_probabilities.keys(),
                dtype=np.int64,
                count=len(visiting_probabilities),
            )
            dense[nodes] = np.fromiter(
                visiting_probabilities.values(),
                dtype=np.float64,
                count=len(visiting_probabilities),
            )
        return dense

    def _log_similarities(self, query_predicate: str) -> np.ndarray:
        """Dense log-clamped similarity per predicate id.

        Predicates the embedding does not cover hold NaN; like the seed's
        lazy per-edge lookups, they only raise when a search actually
        expands a node with one of their edges.
        """
        row = self._space.known_similarity_row(query_predicate, self._kg.predicates)
        with np.errstate(invalid="ignore"):
            return np.log(np.clip(row, self.floor, 1.0))

    # ------------------------------------------------------------------
    def validate(
        self,
        source: int,
        answer: int,
        query_predicate: str,
        visiting_probabilities: VisitingProbabilities,
        stop_threshold: float | None = None,
    ) -> ValidationOutcome:
        """Find up to ``repeat_factor`` paths ``source -> answer`` greedily.

        The frontier is a max-heap on the stationary probability of a
        partial path's endpoint — the paper's "select the node with the
        highest visiting probability" policy.  Only nodes with known
        (positive) probability, i.e. inside the sampling scope, are
        expanded.

        ``stop_threshold`` enables a sound short-circuit for correctness
        validation: the answer similarity is a max over paths, so once a
        found path reaches the threshold the >= tau verdict cannot change
        and the remaining repeat-factor paths are skipped.
        """
        context = self._context(query_predicate, visiting_probabilities)
        return ValidationOutcome(
            answer,
            *kernels.search(
                context,
                source,
                answer,
                self.repeat_factor,
                self.max_length,
                self.expansion_budget,
                stop_threshold,
            ),
        )

    def validate_batch(
        self,
        source: int,
        answers: Iterable[int],
        query_predicate: str,
        visiting_probabilities: VisitingProbabilities,
        stop_threshold: float | None = None,
        tallies: dict | None = None,
    ) -> dict[int, ValidationOutcome]:
        """Validate every distinct answer of a round in one shared pass.

        The context is compiled once and — the actual batching — the
        budgeted best-first pop sequence is recorded once per (context,
        source) and every answer's outcome is *replayed* from it with the
        answer's own subtree deleted, instead of re-running the heap
        search.  Outcomes are exactly those of calling :meth:`validate`
        per answer.  ``tallies`` (a dict over
        :data:`~repro.semantics.kernels.REPLAY_TALLIES`, owned by the
        caller) is added to: answers settled with deleted pops, pops the
        trace was extended by, and private searches — the one fallback,
        for an answer whose extension met an unknown predicate.
        """
        context = self._context(query_predicate, visiting_probabilities)
        trace = self._traces.get(source)
        if trace is None:
            trace = kernels.build_trace(
                context, source, self.max_length, self.expansion_budget
            )
            self._traces[source] = trace
        if tallies is None:
            tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        outcomes: dict[int, ValidationOutcome] = {}
        distinct = list(dict.fromkeys(int(answer) for answer in answers))
        for answer, bounds in zip(distinct, kernels.replay_bounds(trace, distinct)):
            try:
                outcomes[answer] = ValidationOutcome(
                    answer,
                    *kernels.replay(
                        trace, answer, self.repeat_factor, stop_threshold,
                        bounds, tallies,
                    ),
                )
            except EmbeddingError:
                tallies["private_searches"] += 1
                outcomes[answer] = self.validate(
                    source,
                    answer,
                    query_predicate,
                    visiting_probabilities,
                    stop_threshold,
                )
        return outcomes
