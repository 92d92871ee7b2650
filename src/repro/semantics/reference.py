"""The paper's r-path search.

:class:`ReferenceValidator` is the paper's greedy correctness search
(§IV-B2) in the seed's dict-probing form: a best-first search from the
mapping node on the stationary visiting probabilities that stops after
``r`` paths to the answer.  It approximates Eq. 3 from below and so has
false negatives; production validation computes Eq. 3 exactly
(:class:`~repro.semantics.validation.CorrectnessValidator`).  Only the
figures' engine binds it (:mod:`repro.bench.harness`), as a simple plan's
validator or a chain's first leg, so Fig. 5(b) and Fig. 6(c) still chart
what ``r`` does.  Each answer is searched once: the searches are memoised
by node id.  As a chain's first leg it searches every typed intermediate
within the bound and seeds the chain's exact later legs
(:class:`~repro.semantics.validation.ChainValidator`) with the best path
it found to each.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import GraphChangedError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.semantics.similarity import SIMILARITY_FLOOR, require_known_predicates
from repro.semantics.validation import (
    ValidationBatch,
    ValidationOutcome,
    log_similarities,
    require_node_ids,
)

#: default cap on queue pops per search; bounds worst-case latency.
DEFAULT_EXPANSION_BUDGET = 120

#: successors kept per node (probability-ordered beam).
DEFAULT_BRANCH_CAP = 16


class ReferenceValidator:
    """The paper's best-first r-path search, bound to one ``(source,
    predicate, visiting)`` context.

    ``visiting`` maps the scope's node ids to their stationary
    probabilities; only those nodes are expanded.  ``stop_threshold``
    makes the search stop at the first path whose similarity reaches it
    (the verdict at that threshold cannot change any more).

    Searches are memoised by node id: ``(similarity, best_length)`` over
    every graph node, similarity NaN until the node is searched.  The
    memo is allocated on first read and published with one attribute
    store, and each cell is written once — ``best_length`` first — with
    its final value, so the queries and services sharing the plan read NaN
    or that value.
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
        self._memo: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def _log_similarities(self) -> np.ndarray:
        if self._log_row is None:
            self._log_row = log_similarities(
                self._kg, self._space, self.query_predicate, self.floor
            )
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

    def memo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(similarity, best_length)`` per node id, NaN where unsearched."""
        memo = self._memo
        if memo is None:
            num_nodes = self._kg.num_nodes
            memo = (np.full(num_nodes, np.nan), np.zeros(num_nodes, dtype=np.int16))
            self._memo = memo
        return memo

    def validate_batch(self, answers: Sequence[int] | np.ndarray) -> ValidationBatch:
        """Every answer's outcome: the memo, after one :meth:`search` per
        answer it does not hold yet, in order; a node the graph gained
        after the memo was allocated is a :class:`GraphChangedError`."""
        answers = require_node_ids(self._kg, answers)
        memo_similarity, memo_length = self.memo()
        if len(answers) and answers.max() >= len(memo_similarity):
            raise GraphChangedError(
                f"node {answers.max()} was added after the memo was allocated"
            )
        similarity = memo_similarity[answers]
        misses = np.isnan(similarity)
        if misses.any():
            missed = answers[misses]
            searched = [self.search(answer) for answer in missed.tolist()]
            found = [outcome[0] for outcome in searched]
            memo_length[missed] = [outcome[3] for outcome in searched]
            memo_similarity[missed] = found
            similarity[misses] = found
        return ValidationBatch(answers, similarity, memo_length[answers])

    def validate(self, answer: int) -> ValidationOutcome:
        """One answer's outcome: a batch of one."""
        return self.validate_batch([answer]).outcome(0)

    def leg_sums(self, typed: np.ndarray) -> dict[int, np.ndarray]:
        """As a chain's first leg: path length -> ``length * log(similarity)``
        of the best path found to each node where ``typed`` holds, at that
        path's length (``-inf`` elsewhere).  Every typed node within
        ``max_length`` hops of the source is searched."""
        distances = csr_snapshot(self._kg).hop_distance_array(
            self.source, self.max_length
        )
        candidates = np.flatnonzero(typed & (distances > 0))
        batch = self.validate_batch(candidates)
        sums = {}
        for length in range(1, self.max_length + 1):
            found = batch.best_length == length
            level = np.full(self._kg.num_nodes, -np.inf)
            level[candidates[found]] = length * np.log(
                np.maximum(batch.similarity[found], 1e-12)
            )
            sums[length] = level
        return sums
