"""The n-bounded sampling scope (paper §IV-A2).

The random walk is restricted to nodes within ``n`` hops of the mapping
node ``us`` — the induced subgraph G'.  The scope also pre-computes the
candidate answer set A (Definition 4: nodes in G' sharing a type with the
query target), which the collector, estimators and SSB all consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.kg.csr import csr_snapshot
from repro.kg.graph import KnowledgeGraph


@dataclass(frozen=True)
class SamplingScope:
    """The n-bounded subgraph around one mapping node, plus its candidates."""

    source: int
    n_bound: int
    #: node id -> hop distance from the source, for every node in G'
    distances: dict[int, int] = field(repr=False)
    #: scope nodes in a fixed order (source first, then BFS discovery order)
    nodes: tuple[int, ...] = field(repr=False)
    #: candidate answers A: scope nodes type-compatible with the target
    candidate_answers: tuple[int, ...] = field(repr=False)

    @property
    def size(self) -> int:
        """Number of nodes inside the scope."""
        return len(self.nodes)

    @property
    def num_candidates(self) -> int:
        """Number of candidate answers inside the scope."""
        return len(self.candidate_answers)

    def contains(self, node_id: int) -> bool:
        """True when ``node_id`` lies inside the scope."""
        return node_id in self.distances

    def index_of(self) -> dict[int, int]:
        """node id -> dense index within :attr:`nodes` (built on demand)."""
        return {node: index for index, node in enumerate(self.nodes)}


def build_scope(
    kg: KnowledgeGraph,
    source: int,
    n_bound: int,
    target_types: frozenset[str],
) -> SamplingScope:
    """BFS the n-bounded subgraph and collect candidate answers.

    Candidates exclude the source itself (an answer entity is distinct from
    the specific entity in Definition 3's query graphs).  Both the BFS and
    the type filtering run on the graph's CSR snapshot: distances come from
    the frontier-array BFS, candidate selection is one boolean gather over
    the node x type membership bitmask.
    """
    if n_bound < 1:
        raise SamplingError("n_bound must be >= 1")
    snapshot = csr_snapshot(kg)
    distance_array = snapshot.hop_distance_array(source, n_bound)
    reached = np.flatnonzero(distance_array >= 0)
    # (distance, node id) order: ``reached`` is already ascending, so a
    # stable sort on distance reproduces the seed's lexicographic order.
    ordered = reached[np.argsort(distance_array[reached], kind="stable")]
    candidate_mask = snapshot.type_mask(target_types)[ordered]
    candidate_mask &= ordered != source
    distances = dict(zip(reached.tolist(), distance_array[reached].tolist()))
    return SamplingScope(
        source=source,
        n_bound=n_bound,
        distances=distances,
        nodes=tuple(ordered.tolist()),
        candidate_answers=tuple(ordered[candidate_mask].tolist()),
    )
