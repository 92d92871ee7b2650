"""Topology-aware sampling baselines for the Fig. 5(a) ablation.

The paper contrasts its semantic-aware walk with two samplers that only see
graph structure:

* **CNARW** (Li et al., ICDE 2019) — common-neighbour-aware random walk:
  the transition weight to a neighbour shrinks with the common-neighbour
  ratio, accelerating mixing but ignoring predicates entirely.
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
from repro.sampling.transition import DEFAULT_SELF_LOOP_WEIGHT, TransitionModel
from repro.utils.rng import ensure_rng


def uniform_transition_model(
    kg: KnowledgeGraph, scope: SamplingScope
) -> "SimpleTransitionModel":
    """Classic simple random walk: uniform over in-scope neighbours."""
    return SimpleTransitionModel(kg, scope, mode="uniform")


def cnarw_transition_model(
    kg: KnowledgeGraph, scope: SamplingScope
) -> "SimpleTransitionModel":
    """CNARW-style walk: weight 1 - |N(u) ∩ N(v)| / min(d(u), d(v)).

    Prefers neighbours sharing few common neighbours; the weights' 0.05
    floor keeps the chain irreducible.
    """
    return SimpleTransitionModel(kg, scope, mode="cnarw")


class SimpleTransitionModel(TransitionModel):
    """A topology-only transition model with the same row interface.

    Reuses :class:`TransitionModel`'s CSR gather and row-installation
    plumbing but replaces the Eq. 5 semantic weights with structural ones.
    """

    def __init__(self, kg: KnowledgeGraph, scope: SamplingScope, mode: str) -> None:
        if mode not in ("uniform", "cnarw"):
            raise SamplingError(f"unknown topology mode {mode!r}")
        self._mode = mode
        # Note: we bypass TransitionModel.__init__ and build rows directly —
        # the semantic constructor requires an embedding space we do not use.
        self.scope = scope
        self.query_predicate = "<topology>"
        self._build_structural(kg)

    def _build_structural(self, kg: KnowledgeGraph) -> None:
        source_index, rows, cols, edge_ids = self._gather_scope_entries(kg)
        if self._mode == "uniform":
            weights = np.ones(len(rows), dtype=np.float64)
        else:
            weights = kernels.cnarw_weights(
                csr_snapshot(kg), np.asarray(self.scope.nodes), rows, cols
            )
        self._install_rows(
            len(self.scope.nodes),
            source_index,
            rows,
            cols,
            weights,
            edge_ids,
            DEFAULT_SELF_LOOP_WEIGHT,
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
