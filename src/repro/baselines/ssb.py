"""SSB — the Semantic Similarity-based Baseline (paper Algorithm 1).

Enumerates every candidate answer in the n-bounded subgraph of the mapping
node, computes each candidate's exact Eq. 3 similarity by exhaustive path
enumeration, keeps those with similarity >= tau, and aggregates exactly.
Slow by design — its output *is* the tau-relevant ground truth (tau-GT)
used throughout the paper's effectiveness evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.base import BaselineMethod
from repro.core.planner import resolve_mapping_node
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import QueryError
from repro.kg.graph import KnowledgeGraph
from repro.query.aggregate import AggregateQuery
from repro.query.graph import PathQuery, QueryGraph
from repro.semantics.matching import best_matches_from, best_sums_by_length


@dataclass(frozen=True)
class GroundTruth:
    """tau-GT: the exact value plus the correct answers behind it."""

    value: float
    answers: frozenset[int]
    similarities: dict[float, float] | dict[int, float]
    groups: dict[float, float]


class SemanticSimilarityBaseline(BaselineMethod):
    """Algorithm 1, extended to every query shape for ground-truthing."""

    method_name = "SSB"

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        *,
        tau: float = 0.85,
        n_bound: int = 3,
        max_expansions: int | None = None,
    ) -> None:
        super().__init__(kg)
        self._space = space
        self.tau = tau
        self.n_bound = n_bound
        self.max_expansions = max_expansions
        self._match_cache: dict[tuple[int, str], dict[int, float]] = {}
        self._chain_cache: dict[PathQuery, dict[int, dict[int, float]]] = {}

    # ------------------------------------------------------------------
    # Similarity enumeration
    # ------------------------------------------------------------------
    def _matches_from(self, source: int, predicate: str) -> dict[int, tuple[float, int]]:
        """Best Eq. 3 similarity (and its path length) per reachable node."""
        key = (source, predicate)
        cached = self._match_cache.get(key)
        if cached is None:
            matches = best_matches_from(
                self._kg,
                self._space,
                predicate,
                source,
                self.n_bound,
                max_expansions=self.max_expansions,
            )
            cached = {
                node: (match.similarity, match.length)
                for node, match in matches.items()
            }
            self._match_cache[key] = cached
        return cached

    def component_similarities(self, component: PathQuery) -> dict[int, float]:
        """Exact answer similarities for one query component.

        Simple components follow Eq. 2-3 directly; chain components take
        :meth:`chain_similarities`' values.
        """
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        if component.is_simple:
            predicate, target_types = component.hops[0]
            matches = self._matches_from(source, predicate)
            return {
                node: similarity
                for node, (similarity, _length) in matches.items()
                if node != source
                and self._kg.node(node).shares_type_with(target_types)
            }
        return {
            node: similarity
            for node, (similarity, _length) in self.chain_similarities(
                component
            ).items()
        }

    def chain_sums(self, component: PathQuery) -> dict[int, dict[int, float]]:
        """Total length -> the best log-sum of a chain path of that length,
        for every answer the chain reaches.

        A chain path (§V-B) concatenates one simple path per leg: leg ``k``
        has at most ``n_bound`` edges weighed against its own predicate and
        ends on a node typed as hop ``k`` requires.  Enumerated: every typed
        node a leg reaches carries its best log-sum per total length so
        far, and the next leg's per-length DFS runs from it with each of
        those sums as an offset, so every sum is the concatenated path's,
        added in path order.
        """
        cached = self._chain_cache.get(component)
        if cached is not None:
            return cached
        source = resolve_mapping_node(
            self._kg, component.specific_name, component.specific_types
        )
        frontier: dict[int, dict[int, float]] = {source: {0: 0.0}}
        for predicate, node_types in component.hops:
            typed = set(self._kg.nodes_with_any_type(node_types))
            following: dict[int, dict[int, float]] = {}
            for start, prefix in frontier.items():
                totals = sorted(prefix)
                reached = best_sums_by_length(
                    self._kg,
                    self._space,
                    predicate,
                    start,
                    self.n_bound,
                    offsets=[prefix[total] for total in totals],
                )
                for node, rows in reached.items():
                    if node not in typed:
                        continue
                    best = following.setdefault(node, {})
                    for total, row in zip(totals, rows):
                        for length, log_sum in enumerate(row, start=1):
                            if log_sum > best.get(total + length, -math.inf):
                                best[total + length] = log_sum
            frontier = following
        self._chain_cache[component] = frontier
        return frontier

    def chain_similarities(self, component: PathQuery) -> dict[int, tuple[float, int]]:
        """``(similarity, best length)`` of every answer a chain reaches:
        Eq. 2 applied to the concatenated path, the best geometric mean
        over :meth:`chain_sums`, and the smallest total length that
        attains it."""
        result = {}
        for node, by_total in self.chain_sums(component).items():
            similarity, best_length = 0.0, 0
            for total in sorted(by_total):
                candidate = math.exp(by_total[total] / total)
                if candidate > similarity:
                    similarity, best_length = candidate, total
            if best_length:
                result[node] = (similarity, best_length)
        return result

    def answer_similarities(self, query: QueryGraph) -> dict[int, float]:
        """Per-answer similarity; composite shapes take the component min."""
        combined: dict[int, float] | None = None
        for component in query.components:
            similarities = self.component_similarities(component)
            if combined is None:
                combined = similarities
                continue
            combined = {
                node: min(similarity, similarities[node])
                for node, similarity in combined.items()
                if node in similarities
            }
        return combined or {}

    # ------------------------------------------------------------------
    # BaselineMethod surface
    # ------------------------------------------------------------------
    def collect_answers(self, aggregate_query: AggregateQuery) -> set[int]:
        """The factoid answer set for the query graph (BaselineMethod hook)."""
        similarities = self.answer_similarities(aggregate_query.query)
        return {
            node
            for node, similarity in similarities.items()
            if similarity >= self.tau
        }

    # ------------------------------------------------------------------
    # Ground-truth helper
    # ------------------------------------------------------------------
    def ground_truth(self, aggregate_query: AggregateQuery) -> GroundTruth:
        """tau-GT = f_a over the tau-relevant correct answers (Table I)."""
        answers = {
            node
            for node in self.collect_answers(aggregate_query)
            if self._usable(aggregate_query, node)
        }
        value, groups = self._aggregate(aggregate_query, answers)
        similarities = self.answer_similarities(aggregate_query.query)
        return GroundTruth(
            value=value,
            answers=frozenset(answers),
            similarities={node: similarities[node] for node in answers},
            groups=groups,
        )


def tau_ground_truth(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    aggregate_query: AggregateQuery,
    *,
    tau: float = 0.85,
    n_bound: int = 3,
) -> GroundTruth:
    """Convenience wrapper building a fresh SSB for one query."""
    baseline = SemanticSimilarityBaseline(kg, space, tau=tau, n_bound=n_bound)
    truth = baseline.ground_truth(aggregate_query)
    if not truth.answers and aggregate_query.function.needs_attribute:
        raise QueryError(
            "tau-GT is undefined: no correct answer carries the attribute "
            f"{aggregate_query.attribute!r}"
        )
    return truth
