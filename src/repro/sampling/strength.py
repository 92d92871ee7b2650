"""Closed-form stationary distributions for the reversible walk.

The Eq. 5 transition matrix is a random walk on an undirected graph with
symmetric edge weights (each edge's predicate similarity to the query
predicate), so the chain is *reversible* and its stationary distribution is
proportional to node strength — the sum of incident in-scope edge weights:

    pi(u)  =  s(u) / sum_v s(v),      s(u) = sum_{e=(u,v), v in scope} w(e)

This module computes that closed form directly and is the one production
S1 path: :func:`stage_distribution` serves every semantic plan build, simple
plans and chain stages alike.  It is mathematically identical to running
Eq. 6 power iteration to convergence — :mod:`repro.sampling.stationary` stays
as the oracle the tests compare it against — but costs one pass over the
scope's edges instead of up to a thousand.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.sampling.collector import AnswerDistribution, restrict_to_answers
from repro.sampling.scope import SamplingScope, build_scope
from repro.semantics.similarity import SIMILARITY_FLOOR, require_known_predicates


def strength_distribution(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    scope: SamplingScope,
    query_predicate: str,
    *,
    self_loop_weight: float = 0.001,
    similarity_floor: float = SIMILARITY_FLOOR,
) -> np.ndarray:
    """Stationary probabilities over ``scope.nodes`` via node strengths.

    An in-scope edge weighs its predicate's similarity to
    ``query_predicate`` clamped into ``[similarity_floor, 1]``: the
    vocabulary-sized row (memoised in the space) is gathered by the predicate
    ids of the scope's edges only, so a predicate the embedding does not
    cover raises ``EmbeddingError`` only when one of those edges carries it.
    The mapping node's aperiodicity self-loop contributes
    ``self_loop_weight`` to its strength, matching
    :class:`~repro.sampling.transition.TransitionModel` exactly.  Strengths
    are accumulated in one weighted bincount over the CSR adjacency gather.
    """
    snapshot = csr_snapshot(kg)
    nodes = np.asarray(scope.nodes, dtype=np.int64)
    positions, rows, _cols, edge_ids = snapshot.gather_within(nodes)
    predicate_ids = snapshot.edge_predicate_ids[edge_ids]
    similarity_row = space.known_similarity_row(query_predicate, kg.predicates)
    weights = np.clip(similarity_row, similarity_floor, 1.0)[predicate_ids]
    require_known_predicates(kg, space, predicate_ids, weights)
    strengths = np.bincount(rows, weights=weights, minlength=len(nodes))
    strengths[positions[scope.source]] += self_loop_weight
    total_strength = strengths.sum()
    if total_strength <= 0.0:
        raise SamplingError("scope has no positively weighted edges")
    return strengths / total_strength


def stage_distribution(
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
    """One hop's walk from ``source``: its scope, scope-wide pi, answer pi'."""
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
