"""Closed-form stationary distributions for the reversible walks.

Both walks an S1 plan takes — the Eq. 5 semantic walk and the Fig. 5(a)
CNARW ablation — move over an undirected graph with *symmetric* edge
weights: an edge's predicate similarity to the query predicate, or CNARW's
``max(1 - |N(u) ∩ N(v)| / min(d(u), d(v)), 0.05)``, which reads the same
from either end.  So the chain is *reversible* and its stationary
distribution is proportional to node strength — the sum of incident
in-scope edge weights:

    pi(u)  =  s(u) / sum_v s(v),      s(u) = sum_{e=(u,v), v in scope} w(e)

It is mathematically identical to running Eq. 6 power iteration to
convergence — :mod:`repro.sampling.stationary` stays as the oracle the tests
compare it against — but costs one pass over the edges instead of up to a
thousand.

:func:`stage_distributions` is the one production S1 path: every semantic
and CNARW plan build goes through it, a simple plan and a chain's first hop
as a batch of one, a later chain hop (§V-B: one walk *per intermediate*) as
one batch of up to ``max_intermediates`` sources that share
``(predicate, node_types)``.  The walk enters as its weight per adjacency
entry (:class:`EntryWeights`: :func:`similarity_entry_weights`, or
:func:`~repro.sampling.topology.cnarw_entry_weights` for the ablation).
The batch is settled in ``n_bound + 1`` products of the snapshot's CSR
adjacency (:attr:`~repro.kg.csr.CSRGraph.adjacency_matrix`) with dense
``(num_nodes, sources)`` blocks, one column per source (``n_bound + 2`` when
some entry has no weight — an embedding that does not cover the graph's
whole vocabulary):

1. **Reach** — ``n_bound`` products ``A @ frontier``, the frontier being the
   previous BFS level as 0.0 / 1.0.  An entry counts the node's neighbours on
   that level; counts of non-negative terms cannot cancel, so ``> 0`` is the
   exact "has a neighbour there".
2. **Strength** — one product ``W @ reached`` with the adjacency entries
   weighted by the walk: every node's strength within every source's scope
   at once.
3. **Unknown weights** — one more product with the "entry has no weight"
   indicator in place of the weights, run only when such an entry exists,
   so an uncovered predicate fails a source only when *that source's* scope
   touches it.

Then a short per-source tail on slices — ``(distance, id)`` order, the
normalisation, the Theorem-1 restriction to candidate answers — which is
also where the per-source errors come from.

**Why the bits equal the per-source composition** (``build_scope`` → the
weighted ``np.bincount`` of :func:`strength_distribution` →
``restrict_to_answers``; kept in :mod:`repro.sampling.reference` as the
oracle the tests pin this kernel to, byte for byte).  A CSR product
accumulates each output element sequentially over the row's entries *in
adjacency order*, which is the order ``bincount`` accumulates the gathered
entries in, and the adjacency matrix is never canonicalised (no
``sum_duplicates``, no ``sort_indices``: parallel edges and self-loops stay
separate entries).  Inside the scope the term is ``w * 1.0``, which is exact;
outside it is ``w * 0.0 = 0.0`` and ``x + 0.0 = x`` — the entries the
per-source gather drops — so a fused multiply-add cannot change a bit
either.  ``NaN * 0.0`` is NaN, which is why uncovered predicates are zeroed
in ``W`` and found by product 3 instead.  The total strength is
``strengths.sum()`` over the source's own ``(distance, id)``-ordered slice:
numpy sums pairwise, so the value depends on that order and on the slice
being a separate array — ``np.add.reduceat`` over a concatenation (plain
left-to-right per segment) is *not* a substitute.

**Memory** is bounded on any graph: a block holds at most
:data:`_STAGE_BLOCK_ELEMENTS` elements, so a batch is settled
``max(1, _STAGE_BLOCK_ELEMENTS // num_nodes)`` sources at a time — all 64 of
a hop at once on a 5.6 k-node graph, four at a time at 1 M nodes, one at a
time beyond (the per-source path's own footprint).  Results do not depend on
the block size.  *Time* is ``O(adjacency entries)`` per source per product
whatever the scope's size: right where scopes cover a large share of the
graph (the ledger's median scope is half of it), not for a small scope in a
huge graph.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.embedding.predicate_space import PredicateVectorSpace
from repro.errors import NodeNotFoundError, SamplingError
from repro.kg.csr import CSRGraph, csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.sampling.collector import AnswerDistribution
from repro.sampling.scope import SamplingScope
from repro.semantics.similarity import SIMILARITY_FLOOR, require_known_predicates

#: most elements one dense ``(num_nodes, sources)`` block of the stage
#: kernel may hold; a larger batch is settled in several blocks
_STAGE_BLOCK_ELEMENTS = 1 << 22


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

    The per-scope form of the closed form — one weighted bincount over the
    CSR adjacency gather — that the batched kernel's oracle composes and
    the tests compare with the seed loop and the power iteration; no plan
    build calls it.

    An in-scope edge weighs its predicate's similarity to
    ``query_predicate`` clamped into ``[similarity_floor, 1]``: the
    vocabulary-sized row (memoised in the space) is gathered by the predicate
    ids of the scope's edges only, so a predicate the embedding does not
    cover raises ``EmbeddingError`` only when one of those edges carries it.
    The mapping node's aperiodicity self-loop contributes
    ``self_loop_weight`` to its strength, matching the seed Eq. 5 assembly
    in :mod:`repro.sampling.reference` exactly.
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


class EntryWeights(NamedTuple):
    """A walk's weight per adjacency entry of the snapshot.

    ``values[e]`` weighs entry ``e`` of
    :attr:`~repro.kg.csr.CSRGraph.adjacency_matrix`.  The weighting must be
    symmetric — an entry (u, v) weighs what the entries (v, u) weigh — for
    node strength to be the walk's stationary distribution.
    """

    values: np.ndarray
    #: 1.0 on the entries without a weight (``values`` holds 0.0 there),
    #: or ``None`` when every entry has one
    unknown: np.ndarray | None = None
    #: raises the error of a scope (its nodes in ``(distance, id)`` order)
    #: that touches an entry without a weight
    refuse: Callable[[np.ndarray], None] | None = None


def similarity_entry_weights(
    kg: KnowledgeGraph,
    space: PredicateVectorSpace,
    predicate: str,
    similarity_floor: float = SIMILARITY_FLOOR,
) -> EntryWeights:
    """Eq. 5: an entry weighs its predicate's similarity to ``predicate``,
    clamped into ``[similarity_floor, 1]`` — the space's memoised
    vocabulary-sized row gathered per entry.  An entry whose predicate the
    embedding does not cover has no weight; a scope touching one is refused
    with the ``EmbeddingError`` the per-source gather raises."""
    snapshot = csr_snapshot(kg)
    entry_predicate_ids = snapshot.entry_predicate_ids
    weights = np.clip(
        space.known_similarity_row(predicate, kg.predicates), similarity_floor, 1.0
    )
    uncovered = np.isnan(weights)
    if not uncovered.any():
        return EntryWeights(weights[entry_predicate_ids])

    def refuse(scope_nodes: np.ndarray) -> None:
        # name the culprit the per-source gather meets first, in
        # (distance, id, adjacency) order
        _, _, _, edge_ids = snapshot.gather_within(scope_nodes)
        predicate_ids = snapshot.edge_predicate_ids[edge_ids]
        require_known_predicates(kg, space, predicate_ids, weights[predicate_ids])

    return EntryWeights(
        np.where(uncovered, 0.0, weights)[entry_predicate_ids],
        uncovered.astype(np.float64)[entry_predicate_ids],
        refuse,
    )


class Stage(NamedTuple):
    """One source's walk of one hop, as arrays."""

    #: scope nodes in ``(distance, node id)`` order, the source first
    nodes: np.ndarray
    #: stationary probability pi per scope node, aligned with ``nodes``
    probabilities: np.ndarray
    #: candidate answers inside the scope (Definition 4), zero-mass included
    num_candidates: int
    #: pi restricted to the candidates and renormalised (Theorem 1)
    distribution: AnswerDistribution


def stage_distributions(
    kg: KnowledgeGraph,
    sources,
    node_types: frozenset[str],
    weigh: Callable[[], EntryWeights],
    *,
    n_bound: int = 3,
    self_loop_weight: float = 0.001,
) -> list[Stage | SamplingError]:
    """One hop's walks from every one of ``sources``, settled together.

    ``weigh()`` gives the walk's :class:`EntryWeights`; it is called once,
    and only when some source has a candidate.  Returns one entry per
    source, in call order (duplicates allowed): its :class:`Stage`, or the
    ``SamplingError`` a walk from it alone would raise — no candidate
    within ``n_bound`` hops, no positively weighted edge, no candidate with
    positive mass — so a chain hop can skip a dead intermediate.  An
    ``EmbeddingError`` is raised, not returned: the one of the first source
    in call order whose scope touches an entry without a weight (a source
    without candidates never looks at a weight, so it is never that source).
    """
    if n_bound < 1:
        raise SamplingError("n_bound must be >= 1")
    snapshot = csr_snapshot(kg)
    sources = np.asarray(sources, dtype=np.int64)
    outside = (sources < 0) | (sources >= snapshot.num_nodes)
    if outside.any():
        raise NodeNotFoundError(
            f"node id {int(sources[outside.argmax()])} out of range"
        )
    type_mask = snapshot.type_mask(node_types)
    per_block = max(1, _STAGE_BLOCK_ELEMENTS // max(snapshot.num_nodes, 1))
    weights: EntryWeights | None = None
    stages: list[Stage | SamplingError] = []
    for start in range(0, len(sources), per_block):
        block = sources[start : start + per_block]
        reached, scopes = _reach(snapshot, block, n_bound)
        num_candidates = (reached & type_mask[:, None]).sum(axis=0)
        num_candidates -= type_mask[block]  # the source is no answer
        if num_candidates.any():  # else no weight is ever looked at
            if weights is None:
                weights = weigh()
            strengths = _strengths(
                snapshot, block, reached, scopes, num_candidates, weights,
                self_loop_weight,
            )
        for column, (source, nodes) in enumerate(zip(block.tolist(), scopes)):
            if not num_candidates[column]:
                stages.append(
                    SamplingError(
                        f"no candidate of types {sorted(node_types)} within "
                        f"{n_bound} hops of {kg.node(source).name!r}"
                    )
                )
                continue
            try:
                stages.append(
                    _restrict(
                        nodes,
                        strengths[nodes, column],
                        type_mask[nodes] & (nodes != source),
                        int(num_candidates[column]),
                    )
                )
            except SamplingError as error:
                stages.append(error)
    return stages


def _reach(
    snapshot: CSRGraph, sources: np.ndarray, n_bound: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-source BFS: the ``(num_nodes, sources)`` ``reached`` block and
    each source's scope nodes in ``(distance, node id)`` order."""
    shape = (snapshot.num_nodes, len(sources))
    columns = np.arange(len(sources))
    adjacency = snapshot.adjacency_matrix
    reached = np.zeros(shape, dtype=bool)
    reached[sources, columns] = True
    # unreached nodes carry the largest distance, in the smallest unsigned
    # dtype that fits (one byte up to n_bound 254: a radix sort below)
    distance = np.full(shape, n_bound + 1, dtype=np.min_scalar_type(n_bound + 1))
    distance[sources, columns] = 0
    fresh = reached
    for depth in range(1, n_bound + 1):
        fresh = (adjacency @ fresh.astype(np.float64)) > 0.0
        fresh &= ~reached
        if not fresh.any():
            break
        reached |= fresh
        distance[fresh] = depth
    # ids are already ascending, so one stable sort on distance along the
    # source axis is the (distance, id) order; the unreached sort last
    order = np.argsort(distance.T, axis=1, kind="stable")
    sizes = reached.sum(axis=0).tolist()
    return reached, [order[column, :size].copy() for column, size in enumerate(sizes)]


def _strengths(
    snapshot: CSRGraph,
    sources: np.ndarray,
    reached: np.ndarray,
    scopes: list[np.ndarray],
    num_candidates: np.ndarray,
    weights: EntryWeights,
    self_loop_weight: float,
) -> np.ndarray:
    """Node strengths within every source's scope: ``(num_nodes, sources)``.

    Refuses the first source with candidates whose scope touches an entry
    without a weight.
    """
    adjacency = snapshot.adjacency_matrix
    in_scope = reached.astype(np.float64)

    def product(per_entry: np.ndarray) -> np.ndarray:
        weighted = sparse.csr_matrix(
            (per_entry, adjacency.indices, adjacency.indptr), shape=adjacency.shape
        )
        return weighted @ in_scope

    if weights.unknown is not None:
        touched = (product(weights.unknown) > 0.0) & reached
        failing = touched.any(axis=0) & (num_candidates > 0)
        if failing.any():
            weights.refuse(scopes[failing.argmax()])
    strengths = product(weights.values)
    strengths[sources, np.arange(len(sources))] += self_loop_weight
    return strengths


def _restrict(
    nodes: np.ndarray,
    strengths: np.ndarray,
    candidate: np.ndarray,
    num_candidates: int,
) -> Stage:
    """The per-source tail: normalise, then restrict to the candidates.

    Operation for operation what :func:`strength_distribution` does after
    its bincount and what ``restrict_to_answers`` does, on arrays aligned
    with ``nodes``; ``AnswerDistribution`` validates pi_A as ever.
    """
    total_strength = strengths.sum()
    if total_strength <= 0.0:
        raise SamplingError("scope has no positively weighted edges")
    probabilities = strengths / total_strength
    raw = probabilities[candidate]
    reachable = raw > 0.0
    if not reachable.any():
        raise SamplingError(
            "the stationary distribution assigns zero mass to every candidate"
        )
    raw = raw[reachable]
    return Stage(
        nodes=nodes,
        probabilities=probabilities,
        num_candidates=num_candidates,
        distribution=AnswerDistribution(
            answers=nodes[candidate][reachable], probabilities=raw / raw.sum()
        ),
    )
