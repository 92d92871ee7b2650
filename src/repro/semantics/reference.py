"""The seed S2 implementations, preserved as equivalence oracles.

Production S2 runs over the array-compiled kernels
(:mod:`repro.semantics.kernels`); nothing here is reachable from an engine
option — only tests call it.

* :class:`ReferenceValidator` keeps the seed's dict-probing search —
  per-neighbour ``in`` tests and probability lookups against the
  ``{node_id: probability}`` mapping, a tuple-sorted successor beam —
  exactly as the engine's ``_ensure_validated`` drove it one entry at a
  time.  For identical inputs it and
  :class:`~repro.semantics.validation.CorrectnessValidator` (``validate``
  and ``validate_batch``) must return identical
  :class:`ValidationOutcome`\\ s.
* :func:`chain_prefixes_recursive` keeps the one-endpoint-at-a-time
  chain-prefix recursion (§V-B) that ``QueryExecutor._chain_prefix_batch``
  must reproduce memo row for memo row.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Mapping

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.semantics.matching import best_matches_iterative
from repro.semantics.similarity import SIMILARITY_FLOOR, require_known_predicates
from repro.semantics.validation import (
    DEFAULT_BRANCH_CAP,
    DEFAULT_EXPANSION_BUDGET,
    ValidationOutcome,
)


class ReferenceValidator:
    """Seed best-first path search with dict-probed visiting probabilities."""

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
        self._kg = kg
        self._space = space
        self.repeat_factor = repeat_factor
        self.max_length = max_length
        self.floor = floor
        self.expansion_budget = expansion_budget
        self.branch_cap = branch_cap
        self._cache_key: tuple[str, int] | None = None
        self._children: dict[int, list[tuple[float, int, float]]] = {}
        self._adjacency: dict[int, dict[int, float]] = {}
        self._log_row: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _reset_cache(self, query_predicate: str, visiting_id: int) -> None:
        key = (query_predicate, visiting_id)
        if self._cache_key != key:
            self._cache_key = key
            self._children.clear()
            self._adjacency.clear()
            self._log_row = None

    def _log_similarities(self, query_predicate: str) -> np.ndarray:
        if self._log_row is None:
            row = self._space.known_similarity_row(
                query_predicate, self._kg.predicates
            )
            with np.errstate(invalid="ignore"):
                self._log_row = np.log(np.clip(row, self.floor, 1.0))
        return self._log_row

    def _expand(
        self,
        node: int,
        query_predicate: str,
        visiting_probabilities: Mapping[int, float],
    ) -> tuple[list[tuple[float, int, float]], dict[int, float]]:
        children = self._children.get(node)
        if children is not None:
            return children, self._adjacency[node]
        snapshot = csr_snapshot(self._kg)
        edge_ids, neighbours = snapshot.neighbors(node)
        predicate_ids = snapshot.edge_predicate_ids[edge_ids]
        log_similarities = self._log_similarities(query_predicate)[predicate_ids]
        require_known_predicates(
            self._kg, self._space, predicate_ids, log_similarities
        )
        distinct, inverse = np.unique(neighbours, return_inverse=True)
        best = np.full(len(distinct), -np.inf, dtype=np.float64)
        np.maximum.at(best, inverse, log_similarities)
        adjacency = dict(zip(distinct.tolist(), best.tolist()))
        beam = sorted(
            (
                (-visiting_probabilities[neighbour], neighbour, log_similarity)
                for neighbour, log_similarity in adjacency.items()
                if neighbour in visiting_probabilities
            ),
        )[: self.branch_cap]
        self._children[node] = beam
        self._adjacency[node] = adjacency
        return beam, adjacency

    # ------------------------------------------------------------------
    def validate(
        self,
        source: int,
        answer: int,
        query_predicate: str,
        visiting_probabilities: Mapping[int, float],
        stop_threshold: float | None = None,
    ) -> ValidationOutcome:
        """The seed's per-answer search; see the live validator's docstring."""
        self._reset_cache(query_predicate, id(visiting_probabilities))
        best_similarity = 0.0
        best_length = 0
        paths_found = 0
        expansions = 0
        tie_breaker = itertools.count()

        heap: list[tuple[float, int, int, float, tuple[int, ...]]] = [
            (-visiting_probabilities.get(source, 1.0), next(tie_breaker), source,
             0.0, (source,))
        ]
        done = False
        while heap and not done and expansions < self.expansion_budget:
            _, _, node, log_sum, on_path = heapq.heappop(heap)
            depth = len(on_path) - 1
            expansions += 1
            if depth >= self.max_length:
                continue
            beam, adjacency = self._expand(
                node, query_predicate, visiting_probabilities
            )
            goal_log = adjacency.get(answer)
            if goal_log is not None and answer not in on_path:
                similarity = math.exp((log_sum + goal_log) / (depth + 1))
                paths_found += 1
                if similarity > best_similarity:
                    best_similarity = similarity
                    best_length = depth + 1
                if paths_found >= self.repeat_factor or (
                    stop_threshold is not None
                    and best_similarity >= stop_threshold
                ):
                    done = True
                    continue
            for priority, child, log_similarity in beam:
                if child == answer or child in on_path:
                    continue
                heapq.heappush(
                    heap,
                    (
                        priority,
                        next(tie_breaker),
                        child,
                        log_sum + log_similarity,
                        on_path + (child,),
                    ),
                )
        return ValidationOutcome(
            answer=answer,
            similarity=best_similarity,
            paths_found=paths_found,
            expansions=expansions,
            best_length=best_length,
        )


def chain_prefixes_recursive(
    kg: KnowledgeGraph, space: PredicateVectorSpace, config, plan, node_ids
) -> dict[tuple[int, int], tuple[float, int] | None]:
    """The seed's recursive chain-prefix resolution for ``node_ids``.

    Returns ``{(level, node): (log-similarity sum, edge count) | None}`` for
    ``source ->hops[:level]-> node``: level 1 is one private
    :class:`ReferenceValidator` search per endpoint on the first hop's
    stationary map, deeper levels enumerate backwards from the node with
    :func:`~repro.semantics.matching.best_matches_iterative` and recurse
    over the typed intermediates one endpoint at a time.  ``config`` and
    ``plan`` are the engine's ``EngineConfig`` and chain ``QueryPlan``.
    """
    component = plan.component
    visiting = {
        node: float(probability)
        for node, probability in enumerate(plan.visiting)
        if probability > 0.0
    }
    validator = ReferenceValidator(
        kg,
        space,
        repeat_factor=config.repeat_factor,
        max_length=config.n_bound,
        floor=config.similarity_floor,
        expansion_budget=config.validation_expansions,
    )
    memo: dict[tuple[int, int], tuple[float, int] | None] = {}

    def prefix(level: int, node_id: int) -> tuple[float, int] | None:
        key = (level, node_id)
        if key in memo:
            return memo[key]
        predicate = component.predicates[level - 1]
        result: tuple[float, int] | None = None
        if level == 1:
            outcome = validator.validate(
                plan.source, node_id, predicate, visiting, stop_threshold=1.0
            )
            if outcome.paths_found:
                result = (
                    outcome.best_length * math.log(max(outcome.similarity, 1e-12)),
                    outcome.best_length,
                )
        else:
            matches = best_matches_iterative(
                kg,
                space,
                predicate,
                node_id,
                config.n_bound,
                targets=kg.nodes_with_any_type(component.hops[level - 2][1]),
                floor=config.similarity_floor,
                budget_per_level=config.validation_expansions * 5,
            )
            best_mean = 0.0
            for endpoint, match in matches.items():
                below = prefix(level - 1, endpoint)
                if below is None:
                    continue
                log_sum = below[0] + match.length * math.log(
                    max(match.similarity, 1e-12)
                )
                length = below[1] + match.length
                mean = math.exp(log_sum / length)
                if mean > best_mean:
                    best_mean = mean
                    result = (log_sum, length)
        memo[key] = result
        return result

    for node_id in node_ids:
        prefix(component.num_hops, int(node_id))
    return memo
