"""Seed (pure-Python) S1 implementations, kept as reference oracles.

These are verbatim ports of the pre-CSR hot path — per-edge Python loops
over ``kg.neighbors`` tuples and string-keyed similarity lookups.  They are
no longer called by the engine; they exist so that the equivalence tests
can pin the vectorised kernels (scope BFS, Eq. 5 transition assembly,
strength closed form, CNARW weights, chain route composition) to the
original semantics.

:func:`stage_distribution_per_source` is of the same kind but one
generation younger: the per-source S1 stage that production ran until the
batched kernel (:func:`repro.sampling.strength.stage_distributions`)
replaced it, kept as that kernel's byte-for-byte oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerDistribution, restrict_to_answers
from repro.sampling.scope import SamplingScope, build_scope, resolve_mapping_node
from repro.sampling.strength import strength_distribution
from repro.semantics.similarity import SIMILARITY_FLOOR, clamp_similarity


def hop_distances_python(
    kg: KnowledgeGraph, source: int, max_hops: int
) -> dict[int, int]:
    """Seed BFS: dict-and-deque traversal over adjacency tuple lists."""
    if max_hops < 0:
        raise ValueError("max_hops must be >= 0")
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        current = frontier.popleft()
        depth = distances[current]
        if depth == max_hops:
            continue
        for _edge_id, neighbour in kg.neighbors(current):
            if neighbour not in distances:
                distances[neighbour] = depth + 1
                frontier.append(neighbour)
    return distances


def build_scope_python(
    kg: KnowledgeGraph,
    source: int,
    n_bound: int,
    target_types: frozenset[str],
) -> SamplingScope:
    """Seed scope build: BFS dict + per-node ``shares_type_with`` filtering."""
    if n_bound < 1:
        raise SamplingError("n_bound must be >= 1")
    distances = hop_distances_python(kg, source, n_bound)
    ordered_nodes = tuple(sorted(distances, key=lambda node: (distances[node], node)))
    candidates = tuple(
        node
        for node in ordered_nodes
        if node != source and kg.node(node).shares_type_with(target_types)
    )
    return SamplingScope(
        source=source,
        n_bound=n_bound,
        distances=distances,
        nodes=ordered_nodes,
        candidate_answers=candidates,
    )


@dataclass(frozen=True)
class ReferenceRow:
    """One state's row of the seed transition matrix."""

    neighbours: np.ndarray  # dense scope indexes
    probabilities: np.ndarray
    edge_ids: np.ndarray


class ReferenceTransitionModel:
    """The seed per-edge Eq. 5 assembly, row dataclass per node and all."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        scope: SamplingScope,
        space: PredicateVectorSpace,
        query_predicate: str,
        *,
        self_loop_weight: float = 0.001,
        similarity_floor: float = SIMILARITY_FLOOR,
    ) -> None:
        if self_loop_weight <= 0:
            raise SamplingError("self_loop_weight must be positive (Lemma 2)")
        self.scope = scope
        self.query_predicate = query_predicate
        self._index = scope.index_of()
        self._rows: list[ReferenceRow] = []
        self._build(kg, space, self_loop_weight, similarity_floor)

    def _build(
        self,
        kg: KnowledgeGraph,
        space: PredicateVectorSpace,
        self_loop_weight: float,
        similarity_floor: float,
    ) -> None:
        source_index = self._index[self.scope.source]
        for node in self.scope.nodes:
            node_index = self._index[node]
            neighbour_indexes: list[int] = []
            weights: list[float] = []
            edge_ids: list[int] = []
            for edge_id, neighbour in kg.neighbors(node):
                other_index = self._index.get(neighbour)
                if other_index is None:
                    continue  # neighbour outside the n-bounded scope
                predicate = kg.predicate_of(edge_id)
                weight = clamp_similarity(
                    space.similarity(predicate, self.query_predicate),
                    similarity_floor,
                )
                neighbour_indexes.append(other_index)
                weights.append(weight)
                edge_ids.append(edge_id)
            if node_index == source_index:
                neighbour_indexes.append(source_index)
                weights.append(self_loop_weight)
                edge_ids.append(-1)
            if not neighbour_indexes:
                neighbour_indexes.append(node_index)
                weights.append(1.0)
                edge_ids.append(-1)
            weight_array = np.asarray(weights, dtype=np.float64)
            probabilities = weight_array / weight_array.sum()
            self._rows.append(
                ReferenceRow(
                    neighbours=np.asarray(neighbour_indexes, dtype=np.int64),
                    probabilities=probabilities,
                    edge_ids=np.asarray(edge_ids, dtype=np.int64),
                )
            )

    @property
    def size(self) -> int:
        """Number of states (scope nodes) in the chain."""
        return len(self._rows)

    def row(self, scope_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour_indexes, probabilities)`` for one scope node."""
        row = self._rows[scope_index]
        return row.neighbours, row.probabilities

    def row_edges(self, scope_index: int) -> np.ndarray:
        """Edge ids of one state's row (-1 for synthetic self-loops)."""
        return self._rows[scope_index].edge_ids

    def to_sparse(self) -> sparse.csr_matrix:
        """The full row-stochastic matrix P as a CSR matrix."""
        indptr = [0]
        indices: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for row in self._rows:
            indices.append(row.neighbours)
            data.append(row.probabilities)
            indptr.append(indptr[-1] + len(row.neighbours))
        return sparse.csr_matrix(
            (
                np.concatenate(data) if data else np.empty(0),
                np.concatenate(indices) if indices else np.empty(0, dtype=np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(self.size, self.size),
        )


def strength_distribution_python(
    kg: KnowledgeGraph,
    scope: SamplingScope,
    edge_weights: np.ndarray,
    *,
    self_loop_weight: float = 0.001,
) -> np.ndarray:
    """Seed closed-form stationary distribution: per-edge Python loop."""
    in_scope = scope.distances
    strengths = np.zeros(len(scope.nodes), dtype=np.float64)
    for position, node in enumerate(scope.nodes):
        total = 0.0
        for edge_id, neighbour in kg.neighbors(node):
            if neighbour in in_scope:
                total += edge_weights[edge_id]
        strengths[position] = total
    source_position = scope.index_of()[scope.source]
    strengths[source_position] += self_loop_weight
    total_strength = strengths.sum()
    if total_strength <= 0.0:
        raise SamplingError("scope has no positively weighted edges")
    return strengths / total_strength


def stage_distribution_per_source(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    source: int,
    predicate: str,
    node_types: frozenset[str],
    *,
    n_bound: int = 3,
    self_loop_weight: float = 0.001,
    similarity_floor: float = SIMILARITY_FLOOR,
) -> tuple[SamplingScope, np.ndarray, AnswerDistribution]:
    """One hop's walk from one ``source``: its scope, scope-wide pi, answer pi'.

    The composition ``build_scope`` -> ``strength_distribution`` ->
    ``restrict_to_answers`` — a BFS, an adjacency gather and a position
    table per source — whose bytes, error classes, messages and
    precedence the batched stage kernel must reproduce per source.
    """
    scope = build_scope(kg, source, n_bound, node_types)
    if scope.num_candidates == 0:
        raise SamplingError(
            f"no candidate of types {sorted(node_types)} within "
            f"{n_bound} hops of {kg.node(source).name!r}"
        )
    probabilities = strength_distribution(
        kg,
        space,
        scope,
        predicate,
        self_loop_weight=self_loop_weight,
        similarity_floor=similarity_floor,
    )
    return scope, probabilities, restrict_to_answers(scope, probabilities)


def cnarw_weights_python(
    kg: KnowledgeGraph, scope: SamplingScope, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """CNARW weight ``max(1 - |N(u) ∩ N(v)| / min(d(u), d(v)), 0.05)`` per entry.

    The per-entry set-intersection loop :func:`repro.semantics.kernels.cnarw_weights`
    must reproduce byte for byte; ``rows``/``cols`` index ``scope.nodes``.
    """
    snapshot = csr_snapshot(kg)
    nodes = scope.nodes
    neighbour_sets: dict[int, set[int]] = {}

    def neighbours_of(node: int) -> set[int]:
        cached = neighbour_sets.get(node)
        if cached is None:
            cached = set(snapshot.neighbors(node)[1].tolist())
            neighbour_sets[node] = cached
        return cached

    weights = np.empty(len(rows), dtype=np.float64)
    for position in range(len(rows)):
        left = neighbours_of(nodes[int(rows[position])])
        right = neighbours_of(nodes[int(cols[position])])
        common = len(left & right)
        denominator = max(1, min(len(left), len(right)))
        weights[position] = max(1.0 - common / denominator, 0.05)
    return weights


def compose_routes_python(
    kg: KnowledgeGraph,
    stage_of,
    component: PathQuery,
    max_intermediates: int,
    first_stage: AnswerDistribution | None = None,
) -> tuple[AnswerDistribution, dict, int, bool]:
    """Seed chain composition (§V-B): a dict of route tuples per hop.

    The loop :meth:`repro.sampling.chain.ChainSampler.build` must reproduce
    byte for byte — ``stage_of`` is the sampler's ``stage`` callable.
    Returns ``(distribution, routes, expanded intermediates, truncated)``
    with ``routes`` as :attr:`ChainDistribution.routes` states them.
    """
    source = resolve_mapping_node(
        kg, component.specific_name, component.specific_types
    )
    # frontier: partial route (nodes after the specific one) -> probability
    frontier: dict[tuple[int, ...], float] = {(): 1.0}
    truncated = False
    expanded = 0

    for predicate, node_types in component.hops:
        next_frontier: dict[tuple[int, ...], float] = {}
        ranked = sorted(frontier.items(), key=lambda item: -item[1])
        kept = ranked[:max_intermediates]
        if len(ranked) > len(kept):
            truncated = True
        kept_mass = sum(probability for _, probability in kept)
        if kept_mass <= 0:
            raise SamplingError("chain sampling lost all probability mass")
        for route, probability in kept:
            start = route[-1] if route else source
            stage = None if route else first_stage
            try:
                if stage is None:
                    _, _, stage = stage_of(start, predicate, node_types)
            except SamplingError:
                continue  # this intermediate reaches no next-hop candidate
            expanded += 1
            renormalised = probability / kept_mass
            for node, node_probability in zip(stage.answers, stage.probabilities):
                extended = route + (int(node),)
                contribution = renormalised * float(node_probability)
                next_frontier[extended] = (
                    next_frontier.get(extended, 0.0) + contribution
                )
        if not next_frontier:
            raise SamplingError(
                f"chain hop with predicate {predicate!r} produced no candidates"
            )
        frontier = next_frontier

    # Accumulate route probabilities per final answer (the paper's rule).
    marginal: dict[int, float] = {}
    routes: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for route, probability in frontier.items():
        answer = route[-1]
        marginal[answer] = marginal.get(answer, 0.0) + probability
        routes.setdefault(answer, []).append((route[:-1], probability))

    answers = np.asarray(sorted(marginal), dtype=np.int64)
    probabilities = np.asarray(
        [marginal[int(answer)] for answer in answers], dtype=np.float64
    )
    probabilities = probabilities / probabilities.sum()
    frozen_routes = {
        answer: tuple(sorted(pairs, key=lambda pair: -pair[1]))
        for answer, pairs in routes.items()
    }
    return (
        AnswerDistribution(answers=answers, probabilities=probabilities),
        frozen_routes,
        expanded,
        truncated,
    )
