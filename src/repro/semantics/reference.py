"""The paper's r-path search, and the seed chain-prefix recursion.

* :class:`ReferenceValidator` is the paper's greedy correctness search
  (§IV-B2) in the seed's dict-probing form: a best-first search from the
  mapping node on the stationary visiting probabilities that stops after
  ``r`` paths to the answer.  It approximates Eq. 3 from below and so has
  false negatives; production validation computes Eq. 3 exactly
  (:class:`~repro.semantics.validation.CorrectnessValidator`).  Only the
  figures' engine binds it (:mod:`repro.bench.harness`), as a simple
  plan's validator or a chain's first leg, so Fig. 5(b) and Fig. 6(c)
  still chart what ``r`` does.  Each answer is searched once: the search
  memoises by node id like every chain validator
  (:class:`~repro.semantics.validation.MemoisedSearch`).
* :func:`chain_prefixes_recursive` keeps the one-endpoint-at-a-time
  chain-prefix recursion (§V-B) that
  :class:`~repro.semantics.validation.ChainValidator` must reproduce
  prefix for prefix; only tests call it.
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
from repro.semantics.matching import best_matches_from, best_matches_iterative
from repro.semantics.similarity import SIMILARITY_FLOOR, require_known_predicates
from repro.semantics.validation import MemoisedSearch

#: default cap on queue pops per search; bounds worst-case latency.
DEFAULT_EXPANSION_BUDGET = 120

#: successors kept per node (probability-ordered beam).
DEFAULT_BRANCH_CAP = 16


class ReferenceValidator(MemoisedSearch):
    """The paper's best-first r-path search, bound to one ``(source,
    predicate, visiting)`` context.

    ``visiting`` maps the scope's node ids to their stationary
    probabilities; only those nodes are expanded.  ``stop_threshold``
    makes the search stop at the first path whose similarity reaches it
    (the verdict at that threshold cannot change any more).  Searches are
    memoised by node id (:meth:`MemoisedSearch.validate_batch`).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        source: int,
        query_predicate: str,
        visiting: Mapping[int, float],
        *,
        repeat_factor: int = 3,
        max_length: int = 3,
        floor: float = SIMILARITY_FLOOR,
        expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
        branch_cap: int = DEFAULT_BRANCH_CAP,
        stop_threshold: float | None = None,
    ) -> None:
        if repeat_factor < 1:
            raise ValueError("repeat_factor must be >= 1")
        self._kg = kg
        self._space = space
        self.source = source
        self.query_predicate = query_predicate
        self.visiting = visiting
        self.repeat_factor = repeat_factor
        self.max_length = max_length
        self.floor = floor
        self.expansion_budget = expansion_budget
        self.branch_cap = branch_cap
        self.stop_threshold = stop_threshold
        self._children: dict[int, list[tuple[float, int, float]]] = {}
        self._adjacency: dict[int, dict[int, float]] = {}
        self._log_row: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _log_similarities(self) -> np.ndarray:
        if self._log_row is None:
            row = self._space.known_similarity_row(
                self.query_predicate, self._kg.predicates
            )
            with np.errstate(invalid="ignore"):
                self._log_row = np.log(np.clip(row, self.floor, 1.0))
        return self._log_row

    def _expand(
        self, node: int
    ) -> tuple[list[tuple[float, int, float]], dict[int, float]]:
        children = self._children.get(node)
        if children is not None:
            return children, self._adjacency[node]
        snapshot = csr_snapshot(self._kg)
        edge_ids, neighbours = snapshot.neighbors(node)
        predicate_ids = snapshot.edge_predicate_ids[edge_ids]
        log_similarities = self._log_similarities()[predicate_ids]
        require_known_predicates(
            self._kg, self._space, predicate_ids, log_similarities
        )
        distinct, inverse = np.unique(neighbours, return_inverse=True)
        best = np.full(len(distinct), -np.inf, dtype=np.float64)
        np.maximum.at(best, inverse, log_similarities)
        adjacency = dict(zip(distinct.tolist(), best.tolist()))
        visiting = self.visiting
        beam = sorted(
            (
                (-visiting[neighbour], neighbour, log_similarity)
                for neighbour, log_similarity in adjacency.items()
                if neighbour in visiting
            ),
        )[: self.branch_cap]
        self._children[node] = beam
        self._adjacency[node] = adjacency
        return beam, adjacency

    # ------------------------------------------------------------------
    def search(self, answer: int) -> tuple[float, int, int, int]:
        """``(similarity, paths found, expansions, best length)`` of one
        answer's search.

        The frontier is a max-heap on the visiting probability of a
        partial path's endpoint — the paper's "select the node with the
        highest visiting probability" policy.  Whenever the popped node
        has an edge to the answer, that path counts (the goal shortcut);
        the search stops after ``repeat_factor`` paths, at
        ``stop_threshold``, or after ``expansion_budget`` pops.  An edge
        the embedding does not cover raises when its node is expanded.
        """
        visiting = self.visiting
        best_similarity = 0.0
        best_length = 0
        paths_found = 0
        expansions = 0
        tie_breaker = itertools.count()
        stop_threshold = self.stop_threshold

        heap: list[tuple[float, int, int, float, tuple[int, ...]]] = [
            (-visiting.get(self.source, 1.0), next(tie_breaker), self.source,
             0.0, (self.source,))
        ]
        done = False
        while heap and not done and expansions < self.expansion_budget:
            _, _, node, log_sum, on_path = heapq.heappop(heap)
            depth = len(on_path) - 1
            expansions += 1
            if depth >= self.max_length:
                continue
            beam, adjacency = self._expand(node)
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
        return best_similarity, paths_found, expansions, best_length

    def _search(self, answers: np.ndarray) -> tuple[list[float], list[int], None]:
        """One search per answer, in order."""
        searched = [self.search(answer) for answer in answers.tolist()]
        return [found[0] for found in searched], [found[3] for found in searched], None


def chain_prefixes_recursive(
    kg: KnowledgeGraph, space: PredicateVectorSpace, config, plan, node_ids
) -> dict[tuple[int, int], tuple[float, int] | None]:
    """The seed's recursive chain-prefix resolution for ``node_ids``.

    Returns ``{(level, node): (log-similarity sum, edge count) | None}`` for
    ``source ->hops[:level]-> node``: level 1 reads SSB's exhaustive
    enumeration from the mapping node
    (:func:`~repro.semantics.matching.best_matches_from`, the exact row's
    oracle), deeper levels enumerate backwards from the node with
    :func:`~repro.semantics.matching.best_matches_iterative` and recurse
    over the typed intermediates one endpoint at a time.  ``config`` and
    ``plan`` are the engine's ``EngineConfig`` and chain ``QueryPlan``.
    """
    component = plan.component
    first_leg = best_matches_from(
        kg,
        space,
        component.predicates[0],
        plan.source,
        config.n_bound,
        floor=config.similarity_floor,
    )
    memo: dict[tuple[int, int], tuple[float, int] | None] = {}

    def prefix(level: int, node_id: int) -> tuple[float, int] | None:
        key = (level, node_id)
        if key in memo:
            return memo[key]
        predicate = component.predicates[level - 1]
        result: tuple[float, int] | None = None
        if level == 1:
            match = first_leg.get(node_id)
            if match is not None:
                result = (
                    match.length * math.log(max(match.similarity, 1e-12)),
                    match.length,
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
