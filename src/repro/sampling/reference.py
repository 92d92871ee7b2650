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

import numpy as np
from scipy import sparse

from repro.core.planner import resolve_mapping_node
from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.query.graph import PathQuery
from repro.sampling.collector import AnswerDistribution, restrict_to_answers
from repro.sampling.scope import SamplingScope, build_scope
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


class ReferenceTransitionModel:
    """The seed per-edge Eq. 5 assembly, one row of arrays per node: the
    matrix the power-iteration oracle (:mod:`repro.sampling.stationary`)
    and :class:`~repro.sampling.walker.RandomWalker` run on."""

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
        index = scope.index_of()
        #: per scope node, ``(neighbour indexes, probabilities)``
        self._rows: list[tuple[np.ndarray, np.ndarray]] = []
        for node in scope.nodes:
            neighbour_indexes: list[int] = []
            weights: list[float] = []
            for edge_id, neighbour in kg.neighbors(node):
                other_index = index.get(neighbour)
                if other_index is None:
                    continue  # neighbour outside the n-bounded scope
                predicate = kg.predicate_of(edge_id)
                weights.append(
                    clamp_similarity(
                        space.similarity(predicate, query_predicate), similarity_floor
                    )
                )
                neighbour_indexes.append(other_index)
            if node == scope.source:
                neighbour_indexes.append(index[node])
                weights.append(self_loop_weight)
            if not neighbour_indexes:
                neighbour_indexes.append(index[node])
                weights.append(1.0)
            weight_array = np.asarray(weights, dtype=np.float64)
            self._rows.append(
                (
                    np.asarray(neighbour_indexes, dtype=np.int64),
                    weight_array / weight_array.sum(),
                )
            )

    @property
    def size(self) -> int:
        """Number of states (scope nodes) in the chain."""
        return len(self._rows)

    def row(self, scope_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour_indexes, probabilities)`` for one scope node."""
        return self._rows[scope_index]

    def to_sparse(self) -> sparse.csr_matrix:
        """The full row-stochastic matrix P as a CSR matrix."""
        indptr = np.cumsum([0] + [len(neighbours) for neighbours, _ in self._rows])
        return sparse.csr_matrix(
            (
                np.concatenate([probabilities for _, probabilities in self._rows]),
                np.concatenate([neighbours for neighbours, _ in self._rows]),
                indptr,
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
) -> tuple[AnswerDistribution, int]:
    """Seed chain composition (§V-B): a dict of route tuples per hop.

    The loop :meth:`repro.sampling.chain.ChainSampler.build` must reproduce
    byte for byte — ``stage_of`` is the sampler's ``stage`` callable.
    Returns ``(answer marginal, expanded intermediates)``.
    """
    source = resolve_mapping_node(
        kg, component.specific_name, component.specific_types
    )
    # frontier: partial route (nodes after the specific one) -> probability
    frontier: dict[tuple[int, ...], float] = {(): 1.0}
    expanded = 0

    for predicate, node_types in component.hops:
        next_frontier: dict[tuple[int, ...], float] = {}
        ranked = sorted(frontier.items(), key=lambda item: -item[1])
        kept = ranked[:max_intermediates]
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
    for route, probability in frontier.items():
        marginal[route[-1]] = marginal.get(route[-1], 0.0) + probability

    answers = np.asarray(sorted(marginal), dtype=np.int64)
    probabilities = np.asarray(
        [marginal[int(answer)] for answer in answers], dtype=np.float64
    )
    probabilities = probabilities / probabilities.sum()
    return (
        AnswerDistribution(answers=answers, probabilities=probabilities),
        expanded,
    )
