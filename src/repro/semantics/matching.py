"""Exhaustive subgraph-match search (the expensive core of SSB, §III).

Since Eq. 2 is non-monotone in path length, Dijkstra-style pruning is
unsound; the paper's remark 2 prescribes enumerating all (simple) paths up
to length ``n`` from the mapping node.  :func:`best_matches_from` does this
in a *single* depth-first pass and records, for every reachable node, the
best similarity and the path realising it — so SSB's per-candidate cost is
amortised over one traversal.  :func:`best_sums_by_length` keeps the best
log-sum per path length instead, which SSB's chain enumeration composes
leg by leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.kg.graph import KnowledgeGraph
from repro.semantics.similarity import SIMILARITY_FLOOR, clamp_similarity


@dataclass(frozen=True)
class SubgraphMatch:
    """One edge-to-path mapping (Definition 5) with its Eq. 2 similarity."""

    answer: int
    edge_path: tuple[int, ...]
    node_path: tuple[int, ...]
    similarity: float

    @property
    def length(self) -> int:
        """Number of edges on the path so far."""
        return len(self.edge_path)


def best_matches_from(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    query_predicate: str,
    source: int,
    max_length: int,
    *,
    floor: float = SIMILARITY_FLOOR,
    max_expansions: int | None = None,
) -> dict[int, SubgraphMatch]:
    """Best subgraph match for every node reachable within ``max_length``.

    Enumerates all simple paths from ``source`` of length <= ``max_length``
    by DFS, carrying the running log-similarity so each extension is O(1):
    a stack of prefix totals, so a path's sum is its edges' log-similarities
    added in path order and backtracking restores the previous total
    exactly (subtracting on the way back would leave a rounding residue).
    ``max_expansions`` caps the number of path extensions for callers that
    need bounded latency; hitting the cap can only produce underestimates
    (never false positives), mirroring the paper's false-negative analysis.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    best: dict[int, SubgraphMatch] = {}
    expansions = 0

    # Iterative DFS over simple paths; each frame is (node, neighbour index).
    edge_path: list[int] = []
    node_path: list[int] = [source]
    #: log_totals[k]: the log-similarity sum of the path's first k edges
    log_totals: list[float] = [0.0]
    on_path = {source}
    stack: list[tuple[int, int]] = [(source, 0)]

    def consider(node: int, depth: int, log_total: float) -> None:
        """Record ``path`` if it beats the best similarity seen for its answer."""
        similarity = math.exp(log_total / depth)
        current = best.get(node)
        if current is None or similarity > current.similarity:
            best[node] = SubgraphMatch(
                answer=node,
                edge_path=tuple(edge_path),
                node_path=tuple(node_path),
                similarity=similarity,
            )

    while stack:
        node, index = stack[-1]
        neighbours = kg.neighbors(node)
        if index >= len(neighbours) or (
            max_expansions is not None and expansions >= max_expansions
        ):
            stack.pop()
            if edge_path:
                edge_path.pop()
                node_path.pop()
                log_totals.pop()
            if node != source:
                on_path.discard(node)
            continue
        stack[-1] = (node, index + 1)
        edge_id, neighbour = neighbours[index]
        if neighbour in on_path:
            continue
        expansions += 1
        predicate = kg.predicate_of(edge_id)
        log_similarity = math.log(
            clamp_similarity(space.similarity(predicate, query_predicate), floor)
        )
        edge_path.append(edge_id)
        node_path.append(neighbour)
        log_totals.append(log_totals[-1] + log_similarity)
        consider(neighbour, len(edge_path), log_totals[-1])
        if len(edge_path) < max_length:
            on_path.add(neighbour)
            stack.append((neighbour, 0))
        else:
            edge_path.pop()
            node_path.pop()
            log_totals.pop()

    return best


def best_sums_by_length(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    query_predicate: str,
    source: int,
    max_length: int,
    *,
    offsets: Sequence[float] = (0.0,),
    floor: float = SIMILARITY_FLOOR,
) -> dict[int, list[list[float]]]:
    """Best log-sum per path length for every node a simple path reaches.

    ``result[node][k][l - 1]`` is the best ``offsets[k]`` plus the edge
    log-similarities of a simple ``l``-edge path ``source -> node``, added
    in path order after the offset (``-inf`` where no such path exists).
    Eq. 2 is not monotone in path length, so a chain answer (§V-B) needs
    every length of every leg, and each of a start's prefix sums as an
    offset: the running sum is carried down the path, never subtracted
    on the way back, so every sum is the path-order float sum the chain
    row's leg passes compute.  Like :func:`best_matches_from`, the source
    is never recorded and an edge the embedding does not cover raises
    when the enumeration first weighs it.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    logs: dict[str, float] = {}
    best: dict[int, list[list[float]]] = {}
    on_path = {source}

    def extend(node: int, depth: int, totals: list[float]) -> None:
        for edge_id, neighbour in kg.neighbors(node):
            if neighbour in on_path:
                continue
            predicate = kg.predicate_of(edge_id)
            log_similarity = logs.get(predicate)
            if log_similarity is None:
                log_similarity = logs[predicate] = math.log(
                    clamp_similarity(
                        space.similarity(predicate, query_predicate), floor
                    )
                )
            extended = [total + log_similarity for total in totals]
            record = best.get(neighbour)
            if record is None:
                record = best[neighbour] = [
                    [-math.inf] * max_length for _ in offsets
                ]
            for per_length, total in zip(record, extended):
                if total > per_length[depth]:
                    per_length[depth] = total
            if depth + 1 < max_length:
                on_path.add(neighbour)
                extend(neighbour, depth + 1, extended)
                on_path.discard(neighbour)

    extend(source, 0, list(offsets))
    return best
