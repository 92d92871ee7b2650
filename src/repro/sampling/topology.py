"""Topology-aware sampling baselines for the Fig. 5(a) ablation.

The paper contrasts its semantic-aware walk with two samplers that only see
graph structure:

* **CNARW** (Li et al., ICDE 2019) — common-neighbour-aware random walk:
  the transition weight to a neighbour shrinks with the common-neighbour
  ratio, accelerating mixing but ignoring predicates entirely.  The weight
  reads the same from either end of an edge, so the walk is reversible and
  the batched stage kernel (:mod:`repro.sampling.strength`) takes its
  stationary distribution in closed form, as it does the semantic walk's.
* **Node2Vec** (Grover & Leskovec, KDD 2016) — a second-order biased walk
  with return/in-out parameters p and q; its visiting distribution is
  estimated empirically by simulating the walk (the distribution of a
  second-order chain is not a simple eigenvector).

Both produce an answer distribution that is oblivious to semantic
similarity, which is precisely why their estimates in Fig. 5(a) are 6-10x
worse than the semantic-aware sampler's.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph
from repro.semantics import kernels
from repro.sampling.scope import SamplingScope
from repro.sampling.strength import EntryWeights
from repro.utils.rng import ensure_rng


def cnarw_entry_weights(kg: KnowledgeGraph) -> EntryWeights:
    """CNARW's weight per adjacency entry: ``max(1 - |N(u) ∩ N(v)| /
    min(d(u), d(v)), 0.05)`` (:func:`repro.semantics.kernels.cnarw_weights`).

    Symmetric in ``u`` and ``v`` bit for bit — the common-neighbour count
    and the smaller degree do not depend on the order — and positive, so
    every scope is irreducible; no embedding is read.
    """
    snapshot = csr_snapshot(kg)
    nodes = np.arange(snapshot.num_nodes, dtype=np.int64)
    owners = np.repeat(nodes, np.diff(snapshot.indptr))
    return EntryWeights(
        kernels.cnarw_weights(snapshot, nodes, owners, snapshot.neighbor_ids)
    )


def node2vec_visit_distribution(
    kg: KnowledgeGraph,
    scope: SamplingScope,
    *,
    return_parameter: float = 1.0,
    in_out_parameter: float = 2.0,
    steps: int = 20_000,
    burn_in: int = 500,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Empirical visiting distribution of a Node2Vec-style biased walk.

    Second-order bias: stepping from ``prev`` to ``current``, a neighbour
    ``x`` of ``current`` is weighted 1/p when x == prev (return), 1 when x
    is also a neighbour of prev (BFS-ish), and 1/q otherwise (DFS-ish).
    Returns visit frequencies aligned with ``scope.nodes``.
    """
    if return_parameter <= 0 or in_out_parameter <= 0:
        raise SamplingError("node2vec parameters p and q must be positive")
    rng = ensure_rng(seed)
    index = scope.index_of()
    in_scope = scope.distances

    neighbour_cache: dict[int, list[int]] = {}

    def neighbours(node: int) -> list[int]:
        """Neighbour ids of ``node_id`` within the scope."""
        cached = neighbour_cache.get(node)
        if cached is None:
            cached = [nb for nb in kg.neighbor_ids(node) if nb in in_scope]
            neighbour_cache[node] = cached
        return cached

    visits = np.zeros(len(scope.nodes), dtype=np.int64)
    previous = scope.source
    current_neighbours = neighbours(scope.source)
    if not current_neighbours:
        raise SamplingError("the mapping node has no in-scope neighbours")
    current = current_neighbours[int(rng.integers(0, len(current_neighbours)))]

    previous_neighbour_set = set(neighbours(previous))
    for step in range(steps):
        options = neighbours(current)
        if not options:
            current, previous = scope.source, current
            previous_neighbour_set = set(neighbours(previous))
            continue
        weights = np.empty(len(options), dtype=np.float64)
        for position, candidate in enumerate(options):
            if candidate == previous:
                weights[position] = 1.0 / return_parameter
            elif candidate in previous_neighbour_set:
                weights[position] = 1.0
            else:
                weights[position] = 1.0 / in_out_parameter
        weights /= weights.sum()
        pick = int(rng.choice(len(options), p=weights))
        previous, current = current, options[pick]
        previous_neighbour_set = set(neighbours(previous))
        if step >= burn_in:
            visits[index[current]] += 1

    total = visits.sum()
    if total == 0:
        raise SamplingError("node2vec walk recorded no visits; increase steps")
    return visits / total
