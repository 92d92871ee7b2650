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

Implementation notes.  A validator instance is bound to one plan's
context — its mapping node ``source``, its query predicate and its dense
visiting array over node ids (zero = outside the scope) — and compiles,
once and lazily, the whole in-scope neighbourhood into a
:class:`~repro.semantics.kernels.CompiledContext`: a deduplicated
adjacency table with the max log-similarity per neighbour (the goal
shortcut: whenever the expanded node has a direct edge to the answer,
that path is recorded immediately instead of competing in the heap) and a
probability-sorted, branch-capped successor beam.  This keeps one
validation at O(budget * branch_cap) heap operations even around hubs with
thousands of neighbours.  Per-edge log-similarities come from one dense
log-clamped similarity row indexed by predicate id over the CSR snapshot's
adjacency slices — no per-edge string lookups.

:meth:`CorrectnessValidator.validate_batch` is the one search path:
context -> trace -> replay (:meth:`~CorrectnessValidator.validate` is a
batch of one).  It records the answer-independent pop sequence from
``source`` once (:class:`~repro.semantics.kernels.SharedTrace`) and reads
every answer's outcome off it (:func:`repro.semantics.kernels.replay`): a
private search for answer ``a`` is the shared one with ``a`` never pushed,
i.e. the shared pop sequence with the pops below ``a`` deleted and run on
by as many pops as were deleted, so no answer needs a heap of its own.
Three edges keep that exact: ``answer == source`` pops the shared sequence
and finds nothing; an answer whose deletions outrun the recorded pops
extends the trace under its lock; and a pop whose node has an edge the
embedding does not cover is recorded as poisoned, so an answer raises
exactly when its own search would expand that node.  The seed's
dict-probing search survives as
:class:`repro.semantics.reference.ReferenceValidator`, the oracle the
tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.semantics import kernels
from repro.semantics.similarity import SIMILARITY_FLOOR

#: default cap on queue pops per validation; bounds worst-case latency.
DEFAULT_EXPANSION_BUDGET = 120

#: successors kept per node (probability-ordered beam).
DEFAULT_BRANCH_CAP = 16

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
    """Best-first path search from one source, guided by stationary
    probabilities: one plan's ``(source, predicate, visiting)`` context."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        source: int,
        query_predicate: str,
        visiting: np.ndarray,
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
        self.source = source
        self.query_predicate = query_predicate
        #: dense per-node probabilities; a node takes part in the search
        #: iff its entry is positive
        self.visiting = visiting
        self.repeat_factor = repeat_factor
        self.max_length = max_length
        self.floor = floor
        self.expansion_budget = expansion_budget
        self.branch_cap = branch_cap
        self._compiled: kernels.CompiledContext | None = None
        self._shared: kernels.SharedTrace | None = None

    # ------------------------------------------------------------------
    def _context(self) -> kernels.CompiledContext:
        """The compiled context, built on first use.

        Concurrent builders (services and sessions over one plan share its
        validator) produce identical contexts, so the last write winning
        is benign.
        """
        context = self._compiled
        if context is None:
            context = kernels.build_context(
                self._kg,
                self._space,
                csr_snapshot(self._kg),
                self._log_similarities(),
                self.visiting,
                self.branch_cap,
            )
            self._compiled = context
        return context

    def _trace(self) -> kernels.SharedTrace:
        """The shared pop sequence from :attr:`source`, recorded on first use."""
        trace = self._shared
        if trace is None:
            trace = kernels.build_trace(
                self._context(), self.source, self.max_length, self.expansion_budget
            )
            self._shared = trace
        return trace

    def _log_similarities(self) -> np.ndarray:
        """Dense log-clamped similarity per predicate id.

        Predicates the embedding does not cover hold NaN; like the seed's
        lazy per-edge lookups, they only raise when a search actually
        expands a node with one of their edges.
        """
        row = self._space.known_similarity_row(
            self.query_predicate, self._kg.predicates
        )
        with np.errstate(invalid="ignore"):
            return np.log(np.clip(row, self.floor, 1.0))

    # ------------------------------------------------------------------
    def validate(
        self, answer: int, stop_threshold: float | None = None
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

        A batch of one: :meth:`validate_batch` runs the search.
        """
        return self.validate_batch([answer], stop_threshold)[int(answer)]

    def validate_batch(
        self,
        answers: Iterable[int],
        stop_threshold: float | None = None,
        tallies: dict | None = None,
    ) -> dict[int, ValidationOutcome]:
        """Validate every distinct answer of a round in one shared pass.

        The context is compiled once and — the actual batching — the
        budgeted best-first pop sequence is recorded once and every
        answer's outcome is *replayed* from it with the answer's own
        subtree deleted, instead of re-running the heap search.  Each
        outcome is the seed search's for that answer
        (:class:`~repro.semantics.reference.ReferenceValidator`), and the
        batch raises :class:`~repro.errors.EmbeddingError` iff some
        answer's search meets a predicate the embedding does not cover.
        ``tallies`` (a dict over
        :data:`~repro.semantics.kernels.REPLAY_TALLIES`, owned by the
        caller) is added to: answers settled with deleted pops, and pops
        the trace was extended by.
        """
        trace = self._trace()
        if tallies is None:
            tallies = dict.fromkeys(kernels.REPLAY_TALLIES, 0)
        outcomes: dict[int, ValidationOutcome] = {}
        distinct = list(dict.fromkeys(int(answer) for answer in answers))
        for answer, bounds in zip(distinct, kernels.replay_bounds(trace, distinct)):
            outcomes[answer] = ValidationOutcome(
                answer,
                *kernels.replay(
                    trace, answer, self.repeat_factor, stop_threshold,
                    bounds, tallies,
                ),
            )
        return outcomes
